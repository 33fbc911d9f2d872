package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rawdb/internal/catalog"
	"rawdb/internal/faults"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

// mappedTable is a generated table (k, v) of fixed-width rows: every value
// has six digits, so two tables of the same row count render to files of the
// same size and layout, and a prefix of whole rows is a file of its own.
type mappedTable [][2]int64

var mappedSchema = []catalog.Column{{Name: "k", Type: vector.Int64}, {Name: "v", Type: vector.Int64}}

const mappedQuery = "SELECT COUNT(*), SUM(v) FROM t WHERE k < 550000"

func newMappedTable(rows int, seed int64) mappedTable {
	rng := rand.New(rand.NewSource(seed))
	m := make(mappedTable, rows)
	for i := range m {
		m[i] = [2]int64{100_000 + rng.Int63n(900_000), 100_000 + rng.Int63n(900_000)}
	}
	return m
}

// render writes the rows as CSV, as JSON lines or as a ROOT-like tree "t"
// (whose size, too, depends on the row count only).
func (m mappedTable) render(format catalog.Format) []byte {
	var b bytes.Buffer
	if format == catalog.Root {
		w := rootfile.NewWriter(&b, rootfile.Options{BasketEntries: 64})
		tw := w.Tree("t")
		k, v := tw.Branch("k", vector.Int64), tw.Branch("v", vector.Int64)
		for _, r := range m {
			k.AppendInt64(r[0])
			v.AppendInt64(r[1])
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		return b.Bytes()
	}
	for _, r := range m {
		if format == catalog.JSON {
			fmt.Fprintf(&b, "{\"k\":%d,\"v\":%d}\n", r[0], r[1])
		} else {
			fmt.Fprintf(&b, "%d,%d\n", r[0], r[1])
		}
	}
	return b.Bytes()
}

// answer is mappedQuery's answer over the rows.
func (m mappedTable) answer() [2]int64 {
	var a [2]int64
	for _, r := range m {
		if r[0] < 550_000 {
			a[0]++
			a[1] += r[1]
		}
	}
	return a
}

// writeDated writes a raw file dated a minute back, so that a rewrite's
// modification time differs from it at any timestamp resolution. A rewrite at
// the same size within one tick of the file's last write is beyond what stat
// can tell (rawfile.Identity).
func writeDated(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-time.Minute)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
}

func registerMapped(e *Engine, name, path string, format catalog.Format) error {
	switch format {
	case catalog.JSON:
		return e.RegisterJSON(name, path, mappedSchema)
	case catalog.Root:
		return e.RegisterRoot(name, path, "t", mappedSchema)
	}
	return e.RegisterCSV(name, path, mappedSchema)
}

// checkQuiescent checks what must hold between queries: the cache budget
// charges exactly what the engine holds, and no table lock is held.
func checkQuiescent(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.AuditBudget(); err != nil {
		t.Fatal(err)
	}
	for _, st := range e.tableStates() {
		if !st.qmu.TryLock() {
			t.Fatalf("table %s: query lock still held", st.tab.Name)
		}
		st.qmu.Unlock()
	}
}

func resultPair(res *Result) [2]int64 {
	return [2]int64{res.Int64(0, 0), res.Int64(0, 1)}
}

// mutateMidQuery runs mappedQuery over a CSV, a JSON and a ROOT path table, serial
// and parallel, cold and warm, while a hook at the execution seam (the serial
// phase; a morsel worker, racing the others) changes the file after planning.
// mutate changes the file and returns the rows it now holds. The query must
// answer for the new file after one rerun — or fail cleanly, never with a
// panic or a torn answer — and leave the engine quiescent, with nothing
// mapped once closed.
func mutateMidQuery(t *testing.T, mutate func(path string, format catalog.Format, orig mappedTable) mappedTable) {
	for _, format := range []catalog.Format{catalog.CSV, catalog.JSON, catalog.Root} {
		for _, workers := range []int{1, 4} {
			for _, warm := range []bool{false, true} {
				name := fmt.Sprintf("%s/workers=%d/warm=%v", format, workers, warm)
				t.Run(name, func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "t."+strings.ToLower(format.String()))
					orig := newMappedTable(4000, 1)
					writeDated(t, path, orig.render(format))
					e := newTestEngine(t, Config{})
					if err := registerMapped(e, "t", path, format); err != nil {
						t.Fatal(err)
					}
					opts := Options{Parallelism: &workers}
					if warm {
						res, err := e.QueryOpt(mappedQuery, opts)
						if err != nil {
							t.Fatal(err)
						}
						if got := resultPair(res); got != orig.answer() {
							t.Fatalf("warm-up answered %v, want %v", got, orig.answer())
						}
					}
					site := faults.SiteExecSerial
					if workers > 1 {
						site = faults.SiteExecMorsel
					}
					var now mappedTable
					faults.Install(faults.NewSchedule(1, faults.Rule{Site: site, Kind: faults.Hook, Times: 1,
						Fn: func() { now = mutate(path, format, orig) }}))
					res, err := e.QueryOpt(mappedQuery, opts)
					faults.Disable()
					if now == nil {
						t.Fatal("the mutation hook never ran")
					}
					switch {
					case err != nil && strings.Contains(err.Error(), "panic"):
						t.Fatalf("a file changed under its mapping surfaced as a panic: %v", err)
					case err != nil && res != nil:
						t.Fatalf("error %v with a result", err)
					case err == nil && resultPair(res) != now.answer():
						t.Fatalf("answered %v, want %v (the new file's)", resultPair(res), now.answer())
					case err != nil:
						t.Logf("clean error: %v", err)
					}
					if got := e.metrics.Snapshot()["query.partition_retries"]; got != 1 {
						t.Errorf("query.partition_retries = %d, want 1", got)
					}
					checkQuiescent(t, e)
					// The next query answers from the new file: nothing stale survived.
					res, err = e.QueryOpt(mappedQuery, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got := resultPair(res); got != now.answer() {
						t.Fatalf("the next query answered %v, want %v", got, now.answer())
					}
					checkQuiescent(t, e)
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					if got := e.mapped.Load(); got != 0 {
						t.Fatalf("%d bytes still mapped after Close", got)
					}
				})
			}
		}
	}
}

// TestMidQueryMappedTruncate truncates the file to its first 1000 rows after
// planning (a ROOT file, whose directory ends it, is rewritten shorter): a
// scan reading past the new end faults on the mapping, and the fault is the
// retryable file-changed error, not a crash.
func TestMidQueryMappedTruncate(t *testing.T) {
	mutateMidQuery(t, func(path string, format catalog.Format, orig mappedTable) mappedTable {
		kept := orig[:1000]
		var err error
		if format == catalog.Root {
			err = os.WriteFile(path, kept.render(format), 0o644)
		} else {
			err = os.Truncate(path, int64(len(kept.render(format))))
		}
		if err != nil {
			t.Error(err)
		}
		return kept
	})
}

// TestMidQueryMappedRewrite rewrites the file in place after planning, at the
// same size: the mapping shows the new bytes under structures built from the
// old ones, and the identity check at publication discards the attempt.
func TestMidQueryMappedRewrite(t *testing.T) {
	mutateMidQuery(t, func(path string, format catalog.Format, orig mappedTable) mappedTable {
		next := newMappedTable(len(orig), 2)
		if err := os.WriteFile(path, next.render(format), 0o644); err != nil {
			t.Error(err)
		}
		return next
	})
}

// TestRootTreeVaultKey: the trees of one ROOT file share the file's
// fingerprint, so the vault keys a ROOT table by its tree too. After a
// restart, a table registered again with the same tree restores what was
// saved; registered under the same name and schema but another tree of the
// same file, it restores nothing and answers for its own tree. By path and by
// image alike.
func TestRootTreeVaultKey(t *testing.T) {
	const rows = 3000
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: 256})
	schema := []catalog.Column{{Name: "x", Type: vector.Int64}}
	want := map[string]int64{}
	for i, tree := range []string{"a", "b"} {
		br := w.Tree(tree).Branch("x", vector.Int64)
		for r := range rows {
			v := int64(r*(i+2) + i)
			br.AppendInt64(v)
			if v > 100 {
				want[tree] += v
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ab.root")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	register := map[string]func(e *Engine, tree string) error{
		"path":  func(e *Engine, tree string) error { return e.RegisterRoot("t", path, tree, schema) },
		"image": func(e *Engine, tree string) error { return e.RegisterRootData("t", buf.Bytes(), tree, schema) },
	}
	for how, reg := range register {
		vaultDir := filepath.Join(dir, how)
		for i, tree := range []string{"a", "a", "b"} {
			e := newTestEngine(t, Config{Strategy: StrategyShreds, CacheDir: vaultDir})
			if err := reg(e, tree); err != nil {
				t.Fatal(err)
			}
			restored := e.Metrics().Snapshot()["vault.restored"]
			if wantRestored := i == 1; (restored > 0) != wantRestored {
				t.Fatalf("%s, run %d over tree %s: %d structures restored", how, i, tree, restored)
			}
			for range 2 {
				res, err := e.Query("SELECT SUM(x) FROM t WHERE x > 100")
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Int64(0, 0); got != want[tree] {
					t.Fatalf("%s, tree %s: SUM(x) = %d, want %d", how, tree, got, want[tree])
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRootPathTableVaultAfterReplace: a ROOT path table is mapped and
// refreshed like the other formats, so a file renamed over it is noticed by
// the engine that reads it, and the old file's structures are not saved
// under the new one's fingerprint: an engine over the same vault after a
// restart answers for the new file too.
func TestRootPathTableVaultAfterReplace(t *testing.T) {
	dir := t.TempDir()
	path, vaultDir := filepath.Join(dir, "t.root"), filepath.Join(dir, "vault")
	query := func(e *Engine) [2]int64 {
		t.Helper()
		res, err := e.Query(mappedQuery)
		if err != nil {
			t.Fatal(err)
		}
		return resultPair(res)
	}
	orig, next := newMappedTable(2000, 1), newMappedTable(2000, 2)
	writeDated(t, path, orig.render(catalog.Root))
	e1 := newTestEngine(t, Config{CacheDir: vaultDir})
	if err := e1.RegisterRoot("t", path, "t", mappedSchema); err != nil {
		t.Fatal(err)
	}
	if got := query(e1); got != orig.answer() {
		t.Fatalf("answered %v, want %v", got, orig.answer())
	}
	if err := os.WriteFile(filepath.Join(dir, "next.tmp"), next.render(catalog.Root), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "next.tmp"), path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := query(e1); got != next.answer() {
			t.Fatalf("after the rename, query %d answered %v, want %v (the new file's)", i, got, next.answer())
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, Config{CacheDir: vaultDir})
	if err := e2.RegisterRoot("t", path, "t", mappedSchema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := query(e2); got != next.answer() {
			t.Fatalf("after a restart, query %d answered %v, want %v (the new file's)", i, got, next.answer())
		}
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMappedImageLifetime races four sessions over a path table and a
// dataset against a goroutine that renames new versions over both files,
// drops and re-registers the table, and finally closes the engine under the
// running queries. Every query answers for some version of the files or fails
// with a file-changed error (or an unknown table while it is dropped); after
// the last query and a final Close nothing is mapped, and results read after
// Close are intact.
func TestMappedImageLifetime(t *testing.T) {
	dir := t.TempDir()
	tpath := filepath.Join(dir, "t.csv")
	dsDir := filepath.Join(dir, "ds")
	if err := os.Mkdir(dsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	const versions = 24
	vers := make([]mappedTable, versions)
	valid := map[[2]int64]int{}
	for i := range vers {
		vers[i] = newMappedTable(300+37*i, int64(10+i))
		valid[vers[i].answer()] = i
	}
	static := newMappedTable(500, 99)
	writeDated(t, tpath, vers[0].render(catalog.CSV))
	writeDated(t, filepath.Join(dsDir, "a.csv"), vers[0].render(catalog.CSV))
	writeDated(t, filepath.Join(dsDir, "b.csv"), static.render(catalog.CSV))

	e := newTestEngine(t, Config{})
	if err := e.RegisterCSV("t", tpath, mappedSchema); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterDataset("d", dsDir, mappedSchema); err != nil {
		t.Fatal(err)
	}

	type kept struct {
		res  *Result
		want [2]int64
	}
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []kept
	)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			workers := 1 + 3*(s%2)
			for i := 0; !stop.Load() || i < 4; i++ {
				table, base := "t", [2]int64{}
				if (s+i)%2 == 1 {
					table, base = "d", static.answer()
				}
				res, err := e.QueryOpt(strings.Replace(mappedQuery, "FROM t", "FROM "+table, 1),
					Options{Parallelism: &workers})
				if err != nil {
					var pl *partLostError
					if !errors.As(err, &pl) && !strings.Contains(err.Error(), "unknown table") {
						t.Errorf("session %d: %s: %v", s, table, err)
					}
					continue
				}
				got := resultPair(res)
				if _, ok := valid[[2]int64{got[0] - base[0], got[1] - base[1]}]; !ok {
					t.Errorf("session %d: %s answered %v, no version's answer", s, table, got)
					continue
				}
				mu.Lock()
				results = append(results, kept{res, got})
				mu.Unlock()
			}
		}(s)
	}

	replace := func(path string, data []byte) {
		tmp := filepath.Join(dir, "next.tmp")
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			t.Error(err)
			return
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Error(err)
		}
	}
	for i := 1; i < versions; i++ {
		replace(tpath, vers[i].render(catalog.CSV))
		replace(filepath.Join(dsDir, "a.csv"), vers[i].render(catalog.CSV))
		if i%8 == 0 {
			if err := e.DropTable("t"); err != nil {
				t.Error(err)
			}
			if err := e.RegisterCSV("t", tpath, mappedSchema); err != nil {
				t.Error(err)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := e.Close(); err != nil { // under the running queries
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.metrics.Snapshot()["raw.mapped_bytes"]; got != 0 {
		t.Fatalf("raw.mapped_bytes = %d after the last query and Close", got)
	}
	checkQuiescent(t, e)
	if len(results) == 0 {
		t.Fatal("no query answered")
	}
	for _, k := range results {
		if got := resultPair(k.res); got != k.want {
			t.Fatalf("a result read after Close changed: %v, was %v", got, k.want)
		}
	}
}
