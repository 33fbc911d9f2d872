package raw_test

// Chaos mode for the differential harness: the same seeded query corpus runs
// while a seeded fault schedule injects failures into every file-access seam
// underneath the engine — vault entry corruption and torn writes, transient
// raw-file read errors, manifest stat failures, worker and serial panics.
// The invariant is strict: every query either returns the oracle's answer
// bit for bit, or a clean error — never a wrong answer, never a crash, and
// never a partially published adaptive structure (a poisoned run must not
// make a later run wrong).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rawdb"
	"rawdb/internal/faults"
	"rawdb/internal/server"
	"rawdb/internal/workload"
)

// chaosSchedule builds the seeded fault plan for one chaos pass. Data-class
// faults (corrupt, shortread) target only the vault — its entries are
// checksummed and recomputable, so corruption degrades to a cold rebuild.
// Raw-file sites get error faults only: a flipped bit in source data would
// legitimately change answers, which is not a bug the harness should hunt.
func chaosSchedule(seed int64) *faults.Schedule {
	rng := rand.New(rand.NewSource(seed))
	return faults.NewSchedule(seed,
		faults.Rule{Site: faults.SiteVaultRead, Kind: faults.Corrupt, After: rng.Intn(3), Every: 4 + rng.Intn(4), Times: 6},
		faults.Rule{Site: faults.SiteVaultRead, Kind: faults.ShortRead, After: 2 + rng.Intn(4), Every: 5 + rng.Intn(4), Times: 4},
		faults.Rule{Site: faults.SiteVaultRead, Kind: faults.Err, After: 6 + rng.Intn(4), Every: 7, Times: 3},
		faults.Rule{Site: faults.SiteVaultWrite, Kind: faults.Torn, After: rng.Intn(3), Every: 5 + rng.Intn(3), Times: 4},
		faults.Rule{Site: faults.SiteVaultWrite, Kind: faults.Err, After: 4 + rng.Intn(3), Every: 8, Times: 3},
		faults.Rule{Site: faults.SiteCSVLoad, Kind: faults.Err, After: 1 + rng.Intn(3), Every: 9 + rng.Intn(4), Times: 4},
		faults.Rule{Site: faults.SiteJSONLoad, Kind: faults.Err, After: rng.Intn(3), Every: 11, Times: 3},
		faults.Rule{Site: faults.SiteDatasetStat, Kind: faults.Err, After: 3 + rng.Intn(5), Every: 13, Times: 3},
		faults.Rule{Site: faults.SiteExecMorsel, Kind: faults.Err, After: 20 + rng.Intn(10), Every: 30, Times: 2},
		faults.Rule{Site: faults.SiteExecMorsel, Kind: faults.Panic, After: 60 + rng.Intn(20), Times: 1},
		faults.Rule{Site: faults.SiteExecSerial, Kind: faults.Err, After: 40 + rng.Intn(10), Times: 2},
	)
}

// writeChaosFiles materialises the generated tables as real files (a plain
// CSV table and a 4-partition CSV dataset): file-level faults only bite on
// path-backed registrations, and mid-query loss needs files to lose.
func writeChaosFiles(t *testing.T, dir string, tab, utab *dtTable) (tPattern, uPath string) {
	t.Helper()
	tDir := filepath.Join(dir, "t-parts")
	if err := os.MkdirAll(tDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, chunk := range workload.SplitRows(tab.renderCSV(), 4) {
		if err := os.WriteFile(filepath.Join(tDir, fmt.Sprintf("part-%02d.csv", i)), chunk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	uPath = filepath.Join(dir, "u.csv")
	if err := os.WriteFile(uPath, utab.renderCSV(), 0o644); err != nil {
		t.Fatal(err)
	}
	return tDir, uPath
}

func registerChaos(t *testing.T, eng *raw.Engine, ts dtTabs, tPattern, uPath string) {
	t.Helper()
	if err := eng.RegisterDatasetFormat("t", tPattern, raw.FormatCSV, ts.t.cols); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterCSV("u", uPath, ts.u.cols); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialChaos is the chaos backbone: the seeded corpus under the
// seeded fault schedule, across worker counts 1/2/8 and three vault modes.
// Each query must be bit-exact against the oracle or fail with a clean
// error; after the storm, with faults disabled, every query must be
// bit-exact — injected failures may cost work, never future correctness.
func TestDifferentialChaos(t *testing.T) {
	seed := int64(9100)
	rng := rand.New(rand.NewSource(seed))
	tab := genTable(rng, 160)
	utab := genTable(rng, 40)
	ts := dtTabs{t: tab, u: utab}
	tPattern, uPath := writeChaosFiles(t, t.TempDir(), tab, utab)

	queries := make([]dtQuery, difftestQueries/2)
	for i := range queries {
		queries[i] = genQuery(rng, ts)
	}
	workerCycle := []int{1, 2, 8}

	runChaos := func(name string, eng *raw.Engine, faultSeed int64) {
		t.Helper()
		faults.Install(chaosSchedule(faultSeed))
		clean := 0
		for qi, q := range queries {
			sql := q.SQL(ts)
			w := workerCycle[qi%len(workerCycle)]
			res, err := eng.QueryOpt(sql, raw.Options{Parallelism: &w})
			auditBudget(t, fmt.Sprintf("chaos %s query %d (error %v)", name, qi, err), eng)
			if err != nil {
				// A clean failure: no result, and the process/engine is
				// intact (the next iteration proves it). Wrong answers are
				// the only forbidden outcome.
				if res != nil {
					t.Fatalf("%s query %d %q: error %v WITH a result", name, qi, sql, err)
				}
				continue
			}
			clean++
			want, types := oracle(ts, q)
			checkOracle(t, fmt.Sprintf("chaos %s (seed %d) query %d workers %d", name, seed, qi, w),
				sql, res, want, types)
		}
		faults.Disable()
		if clean == 0 {
			t.Fatalf("%s: every query failed; fault schedule drowned the signal", name)
		}
		// Aftermath: faults off, everything must answer and match.
		for qi, q := range queries[:20] {
			sql := q.SQL(ts)
			w := workerCycle[qi%len(workerCycle)]
			res, err := eng.QueryOpt(sql, raw.Options{Parallelism: &w})
			if err != nil {
				t.Fatalf("%s aftermath query %d %q: %v", name, qi, sql, err)
			}
			want, types := oracle(ts, q)
			label := fmt.Sprintf("chaos-aftermath %s query %d", name, qi)
			checkOracle(t, label, sql, res, want, types)
			auditBudget(t, label, eng)
		}
	}

	plain := raw.NewEngine(raw.Config{})
	registerChaos(t, plain, ts, tPattern, uPath)
	runChaos("vault-off", plain, seed+1)
	plain.Close()

	dir := t.TempDir()
	cold := raw.NewEngine(raw.Config{CacheDir: dir})
	registerChaos(t, cold, ts, tPattern, uPath)
	runChaos("vault-cold", cold, seed+2)
	cold.Close()

	// Restart into a vault populated under write faults: torn entries are
	// legal on-disk states and must quarantine, not propagate.
	restarted := raw.NewEngine(raw.Config{CacheDir: dir})
	registerChaos(t, restarted, ts, tPattern, uPath)
	runChaos("vault-restart", restarted, seed+3)
	restarted.Close()
}

// TestVaultQuarantineRerunsCold corrupts every vault read and asserts the
// full degradation contract: entries quarantined (deleted from disk), the
// quarantined lifecycle event and vault.quarantined metric emitted, and the
// query still answering bit-exactly from a cold rebuild.
func TestVaultQuarantineRerunsCold(t *testing.T) {
	seed := int64(9200)
	rng := rand.New(rand.NewSource(seed))
	tab := genTable(rng, 120)
	utab := genTable(rng, 30)
	ts := dtTabs{t: tab, u: utab}
	tPattern, uPath := writeChaosFiles(t, t.TempDir(), tab, utab)
	queries := make([]dtQuery, 20)
	for i := range queries {
		queries[i] = genQuery(rng, ts)
	}

	dir := t.TempDir()
	warm := raw.NewEngine(raw.Config{CacheDir: dir})
	registerChaos(t, warm, ts, tPattern, uPath)
	for _, q := range queries {
		if _, err := warm.Query(q.SQL(ts)); err != nil {
			t.Fatal(err)
		}
	}
	warm.Close() // flushes structures into the vault

	faults.Install(faults.NewSchedule(seed,
		faults.Rule{Site: faults.SiteVaultRead, Kind: faults.Corrupt, Times: 1 << 20}))
	defer faults.Disable()
	eng := raw.NewEngine(raw.Config{CacheDir: dir})
	defer eng.Close()
	registerChaos(t, eng, ts, tPattern, uPath)
	for qi, q := range queries {
		sql := q.SQL(ts)
		res, err := eng.Query(sql)
		if err != nil {
			t.Fatalf("query %d %q under vault corruption: %v", qi, sql, err)
		}
		want, types := oracle(ts, q)
		checkOracle(t, fmt.Sprintf("quarantine query %d", qi), sql, res, want, types)
	}
	snap := eng.Metrics().Snapshot()
	if snap["vault.quarantined"] == 0 {
		t.Fatalf("corrupted vault reads produced no vault.quarantined metric: %v", snap)
	}
	found := false
	for _, ev := range eng.RecentEvents() {
		if ev.Kind == raw.EventQuarantined {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no quarantined lifecycle event emitted")
	}
}

// TestServerSurvivesWorkerPanic injects a panic into a morsel worker and a
// serial pipeline behind a running server: both queries fail cleanly, the
// server keeps serving, and the panics are counted.
func TestServerSurvivesWorkerPanic(t *testing.T) {
	seed := int64(9300)
	rng := rand.New(rand.NewSource(seed))
	tab := genTable(rng, 160)
	utab := genTable(rng, 30)
	ts := dtTabs{t: tab, u: utab}
	tPattern, uPath := writeChaosFiles(t, t.TempDir(), tab, utab)

	eng := raw.NewEngine(raw.Config{})
	defer eng.Close()
	registerChaos(t, eng, ts, tPattern, uPath)
	srv := server.New(eng, server.Options{})
	ctx := context.Background()

	faults.Install(faults.NewSchedule(seed,
		faults.Rule{Site: faults.SiteExecMorsel, Kind: faults.Panic, Times: 1},
		faults.Rule{Site: faults.SiteExecSerial, Kind: faults.Panic, After: 1, Times: 1}))
	defer faults.Disable()

	w := 4
	sql := "SELECT COUNT(*) FROM t"
	if _, err := srv.ExecuteOpt(ctx, sql, raw.Options{Parallelism: &w}); err == nil {
		t.Fatal("injected worker panic did not fail the query")
	} else if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("worker panic surfaced as %v, want a recovered-panic error", err)
	}
	// Serial path: the second rule fires on the second serial hit.
	if _, err := srv.Execute(ctx, sql); err == nil {
		t.Fatal("injected serial panic did not fail the query")
	} else if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("serial panic surfaced as %v, want a recovered-panic error", err)
	}
	faults.Disable()

	res, err := srv.ExecuteOpt(ctx, sql, raw.Options{Parallelism: &w})
	if err != nil {
		t.Fatalf("server did not survive injected panics: %v", err)
	}
	if got := res.NumRows(); got != 1 {
		t.Fatalf("post-panic query returned %d rows", got)
	}
	if snap := eng.Metrics().Snapshot(); snap["query.panics"] < 2 {
		t.Fatalf("query.panics = %d, want >= 2", snap["query.panics"])
	}
}

// countRows answers SELECT COUNT(*) FROM t as an int64 or fails the test.
func countRows(t *testing.T, eng *raw.Engine, table string) int64 {
	t.Helper()
	res, err := eng.Query("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatalf("COUNT(*) FROM %s: %v", table, err)
	}
	return res.Int64(0, 0)
}

// TestMidQueryPartitionDeleted deletes a partition file between manifest
// refresh and load (via a hook fault on the load seam) and asserts the
// retry-once contract: the rerun's refresh reconciles the manifest and the
// query answers over the surviving partitions.
func TestMidQueryPartitionDeleted(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "a.csv"), "1\n2\n3\n")
	victim := filepath.Join(dir, "b.csv")
	mustWrite(t, victim, "4\n5\n")

	eng := raw.NewEngine(raw.Config{})
	defer eng.Close()
	if err := eng.RegisterDataset("t", dir, []raw.Column{{Name: "c", Type: raw.Int64}}); err != nil {
		t.Fatal(err)
	}
	faults.Install(faults.NewSchedule(1, faults.Rule{
		Site: faults.SiteCSVLoad, Kind: faults.Hook, Times: 1,
		Fn: func() { os.Remove(victim) },
	}))
	defer faults.Disable()

	if got := countRows(t, eng, "t"); got != 3 {
		t.Fatalf("count after mid-query delete = %d, want 3 (surviving partition)", got)
	}
	snap := eng.Metrics().Snapshot()
	if snap["query.partition_retries"] != 1 {
		t.Fatalf("query.partition_retries = %d, want 1", snap["query.partition_retries"])
	}
}

// TestMidQueryPartitionRewritten rewrites a partition to a different size
// between refresh and load: the snapshot-size check catches the shear, the
// retried query sees the new bytes, and nothing stale leaks into the answer.
func TestMidQueryPartitionRewritten(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "a.csv"), "1\n2\n3\n")
	victim := filepath.Join(dir, "b.csv")
	mustWrite(t, victim, "4\n5\n")

	eng := raw.NewEngine(raw.Config{})
	defer eng.Close()
	if err := eng.RegisterDataset("t", dir, []raw.Column{{Name: "c", Type: raw.Int64}}); err != nil {
		t.Fatal(err)
	}
	faults.Install(faults.NewSchedule(1, faults.Rule{
		Site: faults.SiteCSVLoad, Kind: faults.Hook, Times: 1,
		Fn: func() { mustWrite(t, victim, "10\n20\n30\n40\n") },
	}))
	defer faults.Disable()

	if got := countRows(t, eng, "t"); got != 7 {
		t.Fatalf("count after mid-query rewrite = %d, want 7 (3 + 4 new rows)", got)
	}
	if snap := eng.Metrics().Snapshot(); snap["query.partition_retries"] != 1 {
		t.Fatalf("query.partition_retries = %d, want 1", snap["query.partition_retries"])
	}
}

// TestMidQueryFlappingPartition rewrites the partition on EVERY load, so the
// retry loses the race too: after its single retry the query must fail with
// a clean partition-lost error, and succeed once the file settles.
func TestMidQueryFlappingPartition(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "a.csv"), "1\n2\n3\n")
	victim := filepath.Join(dir, "b.csv")
	mustWrite(t, victim, "4\n5\n")

	eng := raw.NewEngine(raw.Config{})
	defer eng.Close()
	if err := eng.RegisterDataset("t", dir, []raw.Column{{Name: "c", Type: raw.Int64}}); err != nil {
		t.Fatal(err)
	}
	faults.Install(faults.NewSchedule(1, faults.Rule{
		Site: faults.SiteCSVLoad, Kind: faults.Hook, Times: 1 << 20,
		Fn: func() {
			f, err := os.OpenFile(victim, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				return
			}
			f.WriteString("9\n")
			f.Close()
		},
	}))
	defer faults.Disable()

	_, err := eng.Query("SELECT COUNT(*) FROM t")
	if err == nil {
		t.Fatal("query over a flapping partition succeeded; want a clean error after one retry")
	}
	if !strings.Contains(err.Error(), "lost mid-query") {
		t.Fatalf("flapping partition surfaced as %v, want a partition-lost error", err)
	}
	faults.Disable()
	mustWrite(t, victim, "4\n5\n")
	if got := countRows(t, eng, "t"); got != 5 {
		t.Fatalf("count after the file settled = %d, want 5", got)
	}
}

// TestLoadRetryTransient asserts bounded-backoff retry: two transient read
// errors on the same file are absorbed (three attempts), the query succeeds,
// and the retries are counted.
func TestLoadRetryTransient(t *testing.T) {
	dir := t.TempDir()
	mustWrite(t, filepath.Join(dir, "a.csv"), "1\n2\n3\n")

	eng := raw.NewEngine(raw.Config{})
	defer eng.Close()
	if err := eng.RegisterDataset("t", dir, []raw.Column{{Name: "c", Type: raw.Int64}}); err != nil {
		t.Fatal(err)
	}
	faults.Install(faults.NewSchedule(1, faults.Rule{
		Site: faults.SiteCSVLoad, Kind: faults.Err, Times: 2,
	}))
	defer faults.Disable()

	if got := countRows(t, eng, "t"); got != 3 {
		t.Fatalf("count under transient faults = %d, want 3", got)
	}
	if snap := eng.Metrics().Snapshot(); snap["load.retries"] != 2 {
		t.Fatalf("load.retries = %d, want 2", snap["load.retries"])
	}
}

// TestMemoryGovernor drives the server's admission ladder: under a tiny
// cache budget a cold query over a large-enough file projects past the
// degrade threshold (admitted in no-capture mode, leaving no new structures)
// and past the reject threshold (refused with ErrOverloaded).
func TestMemoryGovernor(t *testing.T) {
	seed := int64(9400)
	rng := rand.New(rand.NewSource(seed))
	tab := genTable(rng, 200)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, tab.renderCSV(), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Budget sized so one cold query projects between degrade and reject.
	eng := raw.NewEngine(raw.Config{CacheBudget: fi.Size() * 2})
	defer eng.Close()
	if err := eng.RegisterCSV("t", path, tab.cols); err != nil {
		t.Fatal(err)
	}
	if est := eng.EstimateQueryBytes("SELECT COUNT(*) FROM t"); est != fi.Size() {
		t.Fatalf("EstimateQueryBytes = %d, want file size %d", est, fi.Size())
	}
	srv := server.New(eng, server.Options{MemoryDegrade: 0.25, MemoryReject: 2.0})
	ctx := context.Background()
	if _, err := srv.Execute(ctx, "SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("degraded admission failed: %v", err)
	}
	snap := eng.Metrics().Snapshot()
	if snap["server.degraded"] != 1 {
		t.Fatalf("server.degraded = %d, want 1", snap["server.degraded"])
	}
	// No-capture really captured nothing: no posmap/synopsis/shred bytes.
	for _, k := range []string{"posmap.bytes", "synopsis.bytes", "shred.pool.bytes"} {
		if snap[k] != 0 {
			t.Fatalf("degraded query published %s = %d, want 0", k, snap[k])
		}
	}

	// Reject rung: a fresh engine whose budget is a tenth of the file, so a
	// cold query projects at 10x capacity — far past any reject threshold.
	eng2 := raw.NewEngine(raw.Config{CacheBudget: fi.Size()/10 + 1})
	defer eng2.Close()
	if err := eng2.RegisterCSV("t", path, tab.cols); err != nil {
		t.Fatal(err)
	}
	rej := server.New(eng2, server.Options{})
	_, err = rej.Execute(ctx, "SELECT MIN(col1) FROM t")
	if !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("over-budget admission returned %v, want ErrOverloaded", err)
	}
	if snap := eng2.Metrics().Snapshot(); snap["server.mem_rejections"] != 1 {
		t.Fatalf("server.mem_rejections = %d, want 1", snap["server.mem_rejections"])
	}
}

// TestNoCaptureReusesCache: a degraded query must still *reuse* structures a
// normal query captured earlier — degradation sheds builds, not reads.
func TestNoCaptureReusesCache(t *testing.T) {
	seed := int64(9500)
	rng := rand.New(rand.NewSource(seed))
	tab := genTable(rng, 150)
	utab := genTable(rng, 30)
	ts := dtTabs{t: tab, u: utab}
	tPattern, uPath := writeChaosFiles(t, t.TempDir(), tab, utab)

	eng := raw.NewEngine(raw.Config{})
	defer eng.Close()
	registerChaos(t, eng, ts, tPattern, uPath)

	queries := make([]dtQuery, 15)
	for i := range queries {
		queries[i] = genQuery(rng, ts)
	}
	for _, q := range queries { // warm pass captures structures
		if _, err := eng.Query(q.SQL(ts)); err != nil {
			t.Fatal(err)
		}
	}
	nc := true
	for qi, q := range queries {
		sql := q.SQL(ts)
		res, err := eng.QueryOpt(sql, raw.Options{NoCapture: &nc})
		if err != nil {
			t.Fatalf("no-capture query %d %q: %v", qi, sql, err)
		}
		want, types := oracle(ts, q)
		checkOracle(t, fmt.Sprintf("no-capture query %d", qi), sql, res, want, types)
	}
}

func mustWrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
