// Restart-simulation suite for the persistent raw-data vault: a process
// that registers a table, runs queries, and exits (Close) leaves a cache
// directory from which a second process restarts warm — its first query
// plans against vault-loaded positional maps / structural indexes / column
// shreds instead of re-tokenizing the raw file. The suite also pins the
// safety property (any file change or cache corruption falls back to a cold
// rebuild with correct results) and the unified cache budget.
//
// Everything here is named TestVault* so CI can run the restart simulation
// twice (-count=2 catches state leaking between runs).
package raw_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rawdb"
	"rawdb/internal/workload"
)

// pathsOf joins a result's access paths for matching.
func pathsOf(res *raw.Result) string { return strings.Join(res.Stats.AccessPaths, " ") }

// assertWarm fails unless every access path is served from cache structures
// (no sequential re-tokenization of the raw file).
func assertWarm(t *testing.T, label string, res *raw.Result) {
	t.Helper()
	paths := pathsOf(res)
	if strings.Contains(paths, "seq(") {
		t.Fatalf("%s: first query re-tokenized the raw file: %s", label, paths)
	}
	if !strings.Contains(paths, "shred:") && !strings.Contains(paths, "viamap") &&
		!strings.Contains(paths, "jsonidx") {
		t.Fatalf("%s: no cache-served access path: %s", label, paths)
	}
}

// vaultDataset writes the narrow dataset to disk once per test.
func vaultDataset(t *testing.T, rows int) (ds *workload.Dataset, schema []raw.Column, csvPath string) {
	t.Helper()
	var err error
	ds, err = workload.Narrow(rows, 7)
	if err != nil {
		t.Fatal(err)
	}
	schema = make([]raw.Column, len(ds.Schema))
	for i, c := range ds.Schema {
		schema[i] = raw.Column{Name: c.Name, Type: c.Type}
	}
	csvPath = filepath.Join(t.TempDir(), "narrow.csv")
	if err := os.WriteFile(csvPath, ds.CSV, 0o644); err != nil {
		t.Fatal(err)
	}
	return ds, schema, csvPath
}

// TestVaultRestartWarmCSV is the headline restart simulation: register a CSV
// file by path, query, exit; a new engine over the same cache directory
// serves its first query entirely from vault-loaded structures with the same
// answer.
func TestVaultRestartWarmCSV(t *testing.T) {
	_, schema, csvPath := vaultDataset(t, 2500)
	dir := t.TempDir()
	q := fmt.Sprintf("SELECT MAX(col11) FROM t WHERE col1 < %d", workload.Threshold(0.4))

	e1 := raw.NewEngine(raw.Config{CacheDir: dir})
	if err := e1.RegisterCSV("t", csvPath, schema); err != nil {
		t.Fatal(err)
	}
	want, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pathsOf(want), "jit:seq") {
		t.Fatalf("first-ever query was not cold: %s", pathsOf(want))
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := raw.NewEngine(raw.Config{CacheDir: dir})
	if err := e2.RegisterCSV("t", csvPath, schema); err != nil {
		t.Fatal(err)
	}
	got, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertWarm(t, "restart", got)
	sameResult(t, "restart-warm vs cold", want, got)
	if got.Stats.ShredHits == 0 {
		t.Fatalf("restart query hit no shreds: %+v", got.Stats)
	}
	e2.Close()
}

// TestVaultRestartWarmJSONIndex pins structural-index persistence in
// isolation: with the shred cache disabled, the restarted engine's first
// query must navigate via the vault-loaded structural index (jit:jsonidx)
// instead of a sequential scan.
func TestVaultRestartWarmJSONIndex(t *testing.T) {
	ds, schema, _ := vaultDataset(t, 2000)
	dir := t.TempDir()
	q := fmt.Sprintf("SELECT MAX(col2) FROM t WHERE col1 < %d", workload.Threshold(0.5))

	mk := func() *raw.Engine {
		e := raw.NewEngine(raw.Config{Strategy: raw.StrategyJIT, DisableShredCache: true, CacheDir: dir})
		if err := e.RegisterJSONData("t", ds.JSONL, schema); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := mk()
	want, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pathsOf(want), "jit:jsonseq") {
		t.Fatalf("first-ever query was not cold: %s", pathsOf(want))
	}
	e1.Close()

	e2 := mk()
	got, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pathsOf(got), "jit:jsonidx") {
		t.Fatalf("restart query did not use the persisted structural index: %s", pathsOf(got))
	}
	sameResult(t, "json restart", want, got)
	e2.Close()
}

// TestVaultRestartWarmPosMapInSitu pins positional-map persistence for the
// NoDB-style baseline: the restarted in-situ engine jumps via the map.
func TestVaultRestartWarmPosMapInSitu(t *testing.T) {
	ds, schema, _ := vaultDataset(t, 2000)
	dir := t.TempDir()
	q := fmt.Sprintf("SELECT MAX(col11) FROM t WHERE col1 < %d", workload.Threshold(0.5))
	mk := func() *raw.Engine {
		e := raw.NewEngine(raw.Config{Strategy: raw.StrategyInSitu, DisableShredCache: true, CacheDir: dir})
		if err := e.RegisterCSVData("t", ds.CSV, schema); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := mk()
	want, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pathsOf(want), "insitu:seq") {
		t.Fatalf("first-ever query was not cold: %s", pathsOf(want))
	}
	e1.Close()

	e2 := mk()
	got, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pathsOf(got), "insitu:viamap") {
		t.Fatalf("restart query did not use the persisted positional map: %s", pathsOf(got))
	}
	sameResult(t, "insitu restart", want, got)
	e2.Close()
}

// TestVaultRestartWarmBinary covers the binary format (shreds only).
func TestVaultRestartWarmBinary(t *testing.T) {
	ds, schema, _ := vaultDataset(t, 2000)
	dir := t.TempDir()
	q := fmt.Sprintf("SELECT MAX(col11) FROM t WHERE col1 < %d", workload.Threshold(0.4))
	mk := func() *raw.Engine {
		e := raw.NewEngine(raw.Config{CacheDir: dir})
		if err := e.RegisterBinaryData("t", ds.Bin, schema); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := mk()
	want, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2 := mk()
	got, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	paths := pathsOf(got)
	if !strings.HasPrefix(paths, "shred:") {
		t.Fatalf("restart query did not serve from shreds: %s", paths)
	}
	sameResult(t, "binary restart", want, got)
	e2.Close()
}

// TestVaultInvalidatesOnFileChange: appending to the raw file between
// "processes" must discard every vault entry — the restarted engine runs
// cold and sees the new rows.
func TestVaultInvalidatesOnFileChange(t *testing.T) {
	_, schema, csvPath := vaultDataset(t, 1500)
	dir := t.TempDir()
	const q = "SELECT COUNT(*) FROM t WHERE col1 >= 0"

	e1 := raw.NewEngine(raw.Config{CacheDir: dir})
	if err := e1.RegisterCSV("t", csvPath, schema); err != nil {
		t.Fatal(err)
	}
	res1, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Int64(0, 0) != 1500 {
		t.Fatalf("count = %d", res1.Int64(0, 0))
	}
	e1.Close()

	// Append one row out of band.
	f, err := os.OpenFile(csvPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var row strings.Builder
	for i := range schema {
		if i > 0 {
			row.WriteByte(',')
		}
		row.WriteByte('1')
	}
	row.WriteByte('\n')
	if _, err := f.WriteString(row.String()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2 := raw.NewEngine(raw.Config{CacheDir: dir})
	if err := e2.RegisterCSV("t", csvPath, schema); err != nil {
		t.Fatal(err)
	}
	res2, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Int64(0, 0) != 1501 {
		t.Fatalf("stale vault served: count = %d, want 1501", res2.Int64(0, 0))
	}
	if !strings.Contains(pathsOf(res2), "seq(") {
		t.Fatalf("changed file did not force a cold scan: %s", pathsOf(res2))
	}
	e2.Close()
}

// TestVaultCorruptCacheDirIsSafe: truncating, scrambling or deleting vault
// files between runs never changes answers — only warmth.
func TestVaultCorruptCacheDirIsSafe(t *testing.T) {
	ds, schema, _ := vaultDataset(t, 1500)
	dir := t.TempDir()
	q := fmt.Sprintf("SELECT MIN(col2), MAX(col11), COUNT(*) FROM t WHERE col1 < %d", workload.Threshold(0.6))
	mk := func() *raw.Engine {
		e := raw.NewEngine(raw.Config{CacheDir: dir})
		if err := e.RegisterCSVData("t", ds.CSV, schema); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := mk()
	want, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	mutations := []struct {
		name   string
		mutate func(path string) error
	}{
		{"truncate", func(p string) error { return os.Truncate(p, 13) }},
		{"scramble", func(p string) error {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for i := range b {
				b[i] ^= 0xa5
			}
			return os.WriteFile(p, b, 0o644)
		}},
		{"delete", os.Remove},
	}
	for _, m := range mutations {
		// Re-populate, then corrupt every entry file.
		ep := mk()
		if _, err := ep.Query(q); err != nil {
			t.Fatal(err)
		}
		ep.Close()
		found := 0
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".rawv") {
				return err
			}
			found++
			return m.mutate(path)
		})
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if found == 0 {
			t.Fatalf("%s: no vault entries on disk to corrupt", m.name)
		}
		e := mk()
		got, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		sameResult(t, m.name, want, got)
		e.Close()
	}
}

// TestVaultUnifiedBudget: with a deliberately tiny unified budget the engine
// keeps total structure bytes under the cap (evicting across posmap /
// jsonidx / shred types) while answers stay identical to an unbudgeted
// engine, cold and warm.
func TestVaultUnifiedBudget(t *testing.T) {
	ds, _, _ := vaultDataset(t, 2000)
	const budget = 4096 // far below one positional map or full-column shred
	queries := []string{
		fmt.Sprintf("SELECT MAX(col11) FROM t WHERE col1 < %d", workload.Threshold(0.5)),
		fmt.Sprintf("SELECT MIN(col2), COUNT(*) FROM t WHERE col1 >= %d", workload.Threshold(0.2)),
		"SELECT col4, COUNT(*) FROM t WHERE col1 >= 0 GROUP BY col4",
	}
	for _, format := range []string{"csv", "json", "bin"} {
		ref := raw.NewEngine(raw.Config{})
		registerFormat(t, ref, ds, format)
		capped := raw.NewEngine(raw.Config{CacheBudget: budget})
		registerFormat(t, capped, ds, format)
		bud := capped.Internal().Budget()
		for round := 0; round < 2; round++ {
			for qi, q := range queries {
				want, err := ref.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := capped.Query(q)
				if err != nil {
					t.Fatalf("%s round %d query %d: %v", format, round, qi, err)
				}
				label := fmt.Sprintf("%s round %d query %d", format, round, qi)
				sameResult(t, label, want, got)
				auditBudget(t, label+" (default budget)", ref)
				auditBudget(t, label, capped)
				if sz := bud.SizeBytes(); sz > budget {
					t.Fatalf("%s round %d query %d: budget exceeded: %d > %d", format, round, qi, sz, budget)
				}
			}
		}
	}
}

// TestVaultBudgetKeepsWorkingSet: a budget comfortably above the working set
// evicts nothing and repeated queries stay shred-served.
func TestVaultBudgetKeepsWorkingSet(t *testing.T) {
	ds, _, _ := vaultDataset(t, 1200)
	e := raw.NewEngine(raw.Config{CacheBudget: 64 << 20})
	registerFormat(t, e, ds, "csv")
	q := fmt.Sprintf("SELECT MAX(col11) FROM t WHERE col1 < %d", workload.Threshold(0.4))
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShredHits == 0 {
		t.Fatalf("warm repeat under a roomy budget hit no shreds: %+v", res.Stats.AccessPaths)
	}
	bud := e.Internal().Budget()
	if bud.Len() == 0 || bud.SizeBytes() == 0 {
		t.Fatal("budget accounted nothing")
	}
}

// TestVaultPersistsUnderBudgetPressure: a budget too small to keep any
// structure in memory must not block persistence — write-back runs before
// accounting, so a restart into the same vault (without the budget) is warm.
func TestVaultPersistsUnderBudgetPressure(t *testing.T) {
	ds, schema, _ := vaultDataset(t, 1500)
	dir := t.TempDir()
	q := fmt.Sprintf("SELECT MAX(col11) FROM t WHERE col1 < %d", workload.Threshold(0.4))

	e1 := raw.NewEngine(raw.Config{CacheDir: dir, CacheBudget: 512})
	if err := e1.RegisterCSVData("t", ds.CSV, schema); err != nil {
		t.Fatal(err)
	}
	want, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2 := raw.NewEngine(raw.Config{CacheDir: dir})
	if err := e2.RegisterCSVData("t", ds.CSV, schema); err != nil {
		t.Fatal(err)
	}
	got, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertWarm(t, "restart after budget-pressured process", got)
	sameResult(t, "budget-pressured vault", want, got)
	e2.Close()
}

// TestVaultConcurrentQueries hammers one vault+budget engine from many
// goroutines over distinct tables: asynchronous write-backs, cross-table
// budget evictions and per-table query locks must all compose race-free,
// and a restart after the storm still loads a consistent vault.
func TestVaultConcurrentQueries(t *testing.T) {
	ds, schema, _ := vaultDataset(t, 800)
	dir := t.TempDir()
	const tables = 4
	mk := func() *raw.Engine {
		// A budget around one table's working set forces cross-table
		// evictions while queries are in flight.
		e := raw.NewEngine(raw.Config{CacheDir: dir, CacheBudget: 64 << 10})
		for i := 0; i < tables; i++ {
			name := fmt.Sprintf("t%d", i)
			var err error
			if i%2 == 0 {
				err = e.RegisterCSVData(name, ds.CSV, schema)
			} else {
				err = e.RegisterJSONData(name, ds.JSONL, schema)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	queries := func(name string) []string {
		return []string{
			fmt.Sprintf("SELECT MAX(col11) FROM %s WHERE col1 < %d", name, workload.Threshold(0.5)),
			fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE col2 >= 0", name),
			fmt.Sprintf("SELECT col4, COUNT(*) FROM %s WHERE col1 >= 0 GROUP BY col4", name),
		}
	}
	e := mk()
	var wg sync.WaitGroup
	errc := make(chan error, tables*2)
	for g := 0; g < tables*2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", g%tables)
			for round := 0; round < 5; round++ {
				for _, q := range queries(name) {
					if _, err := e.Query(q); err != nil {
						errc <- fmt.Errorf("%s: %w", q, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if sz := e.Internal().Budget().SizeBytes(); sz > 64<<10 {
		t.Fatalf("budget exceeded after concurrent storm: %d", sz)
	}
	e.Close()

	// The vault left behind is loadable and answers match a fresh engine.
	e2 := mk()
	ref := raw.NewEngine(raw.Config{})
	if err := ref.RegisterCSVData("t0", ds.CSV, schema); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries("t0") {
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e2.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, q, want, got)
	}
	e2.Close()
}
