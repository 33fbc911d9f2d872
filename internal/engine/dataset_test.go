package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/vector"
)

// renderRowsCSV renders vals[lo:hi] as CSV (all-int64 schemas).
func renderRowsCSV(vals [][]int64, lo, hi int) []byte {
	var b strings.Builder
	for r := lo; r < hi; r++ {
		for c, v := range vals[r] {
			if c > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(v, 10))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// renderRowsJSONL renders vals[lo:hi] as flat JSONL under the schema names.
func renderRowsJSONL(vals [][]int64, lo, hi int, schema []catalog.Column) []byte {
	var b strings.Builder
	for r := lo; r < hi; r++ {
		b.WriteByte('{')
		for c, v := range vals[r] {
			if c > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%q:%d", schema[c].Name, v)
		}
		b.WriteString("}\n")
	}
	return []byte(b.String())
}

// renderRowsBin renders vals[lo:hi] in the fixed-width binary format.
func renderRowsBin(t *testing.T, vals [][]int64, lo, hi int, ncols int) []byte {
	t.Helper()
	types := make([]vector.Type, ncols)
	for i := range types {
		types[i] = vector.Int64
	}
	var buf bytes.Buffer
	w, err := binfile.NewWriter(&buf, types, int64(hi-lo))
	if err != nil {
		t.Fatal(err)
	}
	for r := lo; r < hi; r++ {
		if err := w.WriteRow(vals[r], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeDatasetDir splits vals across len(formats) partition files in a fresh
// directory, one format per partition, and returns the directory.
func writeDatasetDir(t *testing.T, vals [][]int64, schema []catalog.Column, formats []catalog.Format) string {
	t.Helper()
	dir := t.TempDir()
	n := len(formats)
	for i, f := range formats {
		lo, hi := len(vals)*i/n, len(vals)*(i+1)/n
		var name string
		var data []byte
		switch f {
		case catalog.CSV:
			name = fmt.Sprintf("part-%04d.csv", i)
			data = renderRowsCSV(vals, lo, hi)
		case catalog.JSON:
			name = fmt.Sprintf("part-%04d.jsonl", i)
			data = renderRowsJSONL(vals, lo, hi, schema)
		case catalog.Binary:
			name = fmt.Sprintf("part-%04d.bin", i)
			data = renderRowsBin(t, vals, lo, hi, len(schema))
		default:
			t.Fatalf("unsupported partition format %s", f)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDatasetAllStrategiesAgree: a mixed CSV/JSONL/binary dataset answers
// every strategy's queries exactly like the single-file table holding the
// same rows, cold, warm and morsel-parallel.
func TestDatasetAllStrategiesAgree(t *testing.T) {
	csvData, _, schema, vals := testData(t, 900, 6, 7)
	dir := writeDatasetDir(t, vals, schema,
		[]catalog.Format{catalog.CSV, catalog.JSON, catalog.Binary, catalog.CSV})

	queries := []string{
		"SELECT MAX(col5) FROM t WHERE col1 < 400000000",
		"SELECT COUNT(*) FROM t",
		"SELECT col2, col3 FROM t WHERE col1 < 100000000",
		"SELECT SUM(col4), COUNT(col2) FROM t WHERE col2 >= 500000000",
	}
	for _, strat := range allStrategies {
		if strat == StrategyExternal {
			continue // external supports CSV only; mixed datasets cannot
		}
		t.Run(strat.String(), func(t *testing.T) {
			ref := newTestEngine(t, Config{Strategy: strat})
			if err := ref.RegisterCSVData("t", csvData, schema); err != nil {
				t.Fatal(err)
			}
			ds := newTestEngine(t, Config{Strategy: strat})
			if err := ds.RegisterDataset("t", dir, schema); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ { // cold, then warm
				for _, q := range queries {
					for _, workers := range []int{1, 4} {
						w := workers
						want, err := ref.QueryOpt(q, Options{Parallelism: &w})
						if err != nil {
							t.Fatalf("ref %q: %v", q, err)
						}
						got, err := ds.QueryOpt(q, Options{Parallelism: &w})
						if err != nil {
							t.Fatalf("dataset %q: %v", q, err)
						}
						assertSameResult(t, fmt.Sprintf("round %d workers %d %q", round, workers, q), want, got)
					}
				}
			}
		})
	}
}

// assertSameResult compares two results cell by cell (int64 columns).
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.NumRows() != want.NumRows() || len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: shape %dx%d, want %dx%d",
			label, got.NumRows(), len(got.Columns), want.NumRows(), len(want.Columns))
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := range want.Columns {
			if gv, wv := got.Value(r, c), want.Value(r, c); gv != wv {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", label, r, c, gv, wv)
			}
		}
	}
}

// TestDatasetIncrementalDiscovery: files arriving in, changing under and
// vanishing from the directory are reflected at the next query, and a
// rewritten file only invalidates its own partition's caches.
func TestDatasetIncrementalDiscovery(t *testing.T) {
	dir := t.TempDir()
	schema := []catalog.Column{
		{Name: "col1", Type: vector.Int64}, {Name: "col2", Type: vector.Int64}}
	write := func(name, data string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.csv", "1,10\n2,20\n")
	write("b.csv", "3,30\n")

	e := newTestEngine(t, Config{})
	if err := e.RegisterDataset("t", dir, schema); err != nil {
		t.Fatal(err)
	}
	count := func() int64 {
		t.Helper()
		res, err := e.Query("SELECT COUNT(*), SUM(col2) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return res.Int64(0, 0)
	}
	if got := count(); got != 3 {
		t.Fatalf("initial count = %d", got)
	}
	st := e.tables["t"]
	if len(st.ds.parts) != 2 {
		t.Fatalf("%d partitions", len(st.ds.parts))
	}
	pmA := st.ds.parts[0].positions().pm
	if pmA == nil {
		t.Fatal("partition a has no positional map after a scan")
	}

	// A new file arrives mid-session: picked up without re-registration.
	write("c.jsonl", "{\"col1\":4,\"col2\":40}\n{\"col1\":5,\"col2\":50}\n")
	if got := count(); got != 5 {
		t.Fatalf("count after arrival = %d", got)
	}

	// Rewriting b invalidates b's partition alone: a keeps its positional
	// map (pointer identity), b starts cold with the new bytes.
	write("b.csv", "6,60\n7,70\n8,80\n")
	if got := count(); got != 7 {
		t.Fatalf("count after rewrite = %d", got)
	}
	st = e.tables["t"]
	if got := st.ds.parts[0].positions().pm; got != pmA {
		t.Fatal("untouched partition lost its positional map on a sibling's rewrite")
	}

	// Removal drops the partition.
	if err := os.Remove(filepath.Join(dir, "c.jsonl")); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != 5 {
		t.Fatalf("count after removal = %d", got)
	}
}

// TestDatasetExplainDuringRefresh: Explain serialises with queries on the
// same dataset (it plans against state that refreshDataset swaps under the
// table lock); under -race this pins the locking.
func TestDatasetExplainDuringRefresh(t *testing.T) {
	dir := t.TempDir()
	schema := []catalog.Column{{Name: "col1", Type: vector.Int64}}
	if err := os.WriteFile(filepath.Join(dir, "a.csv"), []byte("1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{})
	if err := e.RegisterDataset("t", dir, schema); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("f%02d.csv", i)
			if err := os.WriteFile(filepath.Join(dir, name), []byte("3\n"), 0o644); err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Query("SELECT COUNT(*) FROM t"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			if _, err := e.Explain("SELECT COUNT(*) FROM t WHERE col1 > 0", Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sortedVals builds rows whose col1 ascends over the whole dataset, so a
// split across partitions gives each one a disjoint col1 range.
func sortedVals(rows, ncols int) ([][]int64, []catalog.Column) {
	vals := make([][]int64, rows)
	schema := make([]catalog.Column, ncols)
	for c := 0; c < ncols; c++ {
		schema[c] = catalog.Column{Name: fmt.Sprintf("col%d", c+1), Type: vector.Int64}
	}
	for r := range vals {
		row := make([]int64, ncols)
		row[0] = int64(r) * 1000
		for c := 1; c < ncols; c++ {
			row[c] = int64(r*c) % 777
		}
		vals[r] = row
	}
	return vals, schema
}

// TestDatasetPartitionPruning: on a 16-partition sorted-key split, a
// selective query's second run consults the per-partition synopses built by
// the first and opens only the qualifying partitions.
func TestDatasetPartitionPruning(t *testing.T) {
	vals, schema := sortedVals(800, 4)
	formats := make([]catalog.Format, 16)
	for i := range formats {
		formats[i] = catalog.CSV
	}
	dir := writeDatasetDir(t, vals, schema, formats)
	e := newTestEngine(t, Config{SynopsisBlockRows: 32})
	if err := e.RegisterDataset("t", dir, schema); err != nil {
		t.Fatal(err)
	}
	q := "SELECT SUM(col2) FROM t WHERE col1 < 90000" // first partition only
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PartitionsSkipped != 0 || res.Stats.PartitionsScanned != 16 {
		t.Fatalf("cold stats: %d scanned, %d skipped",
			res.Stats.PartitionsScanned, res.Stats.PartitionsSkipped)
	}
	want := res.Int64(0, 0)

	warm, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Int64(0, 0); got != want {
		t.Fatalf("warm result %d, want %d", got, want)
	}
	if warm.Stats.PartitionsSkipped != 14 {
		t.Fatalf("warm skipped %d partitions, want 14 (paths %v)",
			warm.Stats.PartitionsSkipped, warm.Stats.AccessPaths)
	}

	// Explain surfaces the pruning decision without executing.
	plan, err := e.Explain(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "partitions: 2 scanned, 14 pruned") {
		t.Fatalf("explain lacks the partitions line:\n%s", plan)
	}

	// Zone maps off: no pruning, same answer.
	off := false
	full, err := e.QueryOpt(q, Options{ZoneMaps: &off})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.PartitionsSkipped != 0 || full.Int64(0, 0) != want {
		t.Fatalf("nozonemaps: skipped %d, result %d", full.Stats.PartitionsSkipped, full.Int64(0, 0))
	}
}

// TestDatasetVaultRestartPruning: after a restart served from manifest.rawv
// and the per-partition vault namespaces, a selective query prunes via the
// restored synopses and never opens the excluded files — their bytes are
// never read into memory.
func TestDatasetVaultRestartPruning(t *testing.T) {
	vals, schema := sortedVals(800, 4)
	formats := make([]catalog.Format, 16)
	for i := range formats {
		formats[i] = catalog.CSV
	}
	dir := writeDatasetDir(t, vals, schema, formats)
	vaultDir := t.TempDir()
	q := "SELECT SUM(col2) FROM t WHERE col1 < 90000"

	e1 := newTestEngine(t, Config{SynopsisBlockRows: 32, CacheDir: vaultDir})
	if err := e1.RegisterDataset("t", dir, schema); err != nil {
		t.Fatal(err)
	}
	res, err := e1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Int64(0, 0)
	e1.Close()

	// "Restart": a fresh engine over the same vault. The manifest must carry
	// the row counts, and partition synopses must load without the raw bytes.
	e2 := newTestEngine(t, Config{SynopsisBlockRows: 32, CacheDir: vaultDir})
	if err := e2.RegisterDataset("t", dir, schema); err != nil {
		t.Fatal(err)
	}
	st := e2.tables["t"]
	for i, p := range st.ds.manifest.Parts {
		if p.Rows != 50 {
			t.Fatalf("manifest partition %d rows = %d after restart", i, p.Rows)
		}
	}
	res2, err := e2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Int64(0, 0); got != want {
		t.Fatalf("restart result %d, want %d", got, want)
	}
	if res2.Stats.PartitionsSkipped != 14 {
		t.Fatalf("restart skipped %d partitions, want 14 (paths %v)",
			res2.Stats.PartitionsSkipped, res2.Stats.AccessPaths)
	}
	// The pruned files were never opened: their raw bytes are absent. Only
	// partitions 0 and 1 hold rows with col1 < 90000.
	loaded := 0
	for i, ps := range st.ds.parts {
		if ps.src.image() != nil {
			loaded++
			if i > 1 {
				t.Fatalf("pruned partition %d was opened", i)
			}
		}
	}
	if loaded != 2 {
		t.Fatalf("%d partitions opened, want 2", loaded)
	}
	e2.Close()
}

// TestDatasetVaultRestartRenameOver: a file renamed over a partition while
// the engine is down, at the same size and with the old file's mtime, is a
// changed partition to the first query after the restart, even where it
// differs from the old file only outside the windows the partition's vault
// fingerprint samples: the query answers for the new file.
func TestDatasetVaultRestartRenameOver(t *testing.T) {
	vals, schema := sortedVals(40000, 4)
	dir := writeDatasetDir(t, vals, schema, []catalog.Format{catalog.CSV, catalog.CSV})
	vaultDir := t.TempDir()
	const q = "SELECT SUM(col2), SUM(col3) FROM t"
	sums := func(e *Engine) [2]int64 {
		t.Helper()
		if err := e.RegisterDataset("t", dir, schema); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AuditBudget(); err != nil {
			t.Fatal(err)
		}
		return [2]int64{res.Int64(0, 0), res.Int64(0, 1)}
	}
	e1 := newTestEngine(t, Config{CacheDir: vaultDir})
	old := sums(e1)
	e1.Close()

	// The new file swaps the digits 3 and 4 in the middle of the partition,
	// between the fingerprint's interior windows.
	part := filepath.Join(dir, "part-0000.csv")
	data, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(part)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= 4*64<<10 {
		t.Fatalf("partition of %d bytes is hashed whole", len(data))
	}
	for i := len(data)/2 - 2000; i < len(data)/2+2000; i++ {
		switch data[i] {
		case '3':
			data[i] = '4'
		case '4':
			data[i] = '3'
		}
	}
	renamed := filepath.Join(t.TempDir(), "new.csv")
	if err := os.WriteFile(renamed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(renamed, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(renamed, part); err != nil {
		t.Fatal(err)
	}

	fresh := newTestEngine(t, Config{})
	want := sums(fresh)
	fresh.Close()
	if want == old {
		t.Fatal("the new file answers like the old one")
	}
	e2 := newTestEngine(t, Config{CacheDir: vaultDir})
	defer e2.Close()
	if got := sums(e2); got != want {
		t.Fatalf("after the restart the query answered %v, want the new file's %v (the old file's: %v)", got, want, old)
	}
}

// TestDatasetBudgetRelease is the leak audit: everything a dataset (or a
// plain table) accounts to the cache budget — positional maps, structural
// indexes, synopses and column shreds, across partitions — is released by
// DropTable and by per-partition invalidation, leaving zero bytes behind.
func TestDatasetBudgetRelease(t *testing.T) {
	csvData, _, schema, vals := testData(t, 400, 5, 11)
	dir := writeDatasetDir(t, vals, schema,
		[]catalog.Format{catalog.CSV, catalog.JSON, catalog.CSV})

	e := newTestEngine(t, Config{CacheBudget: 64 << 20})
	if err := e.RegisterDataset("ds", dir, schema); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterCSVData("plain", csvData, schema); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT MAX(col3) FROM ds WHERE col1 < 500000000",
		"SELECT COUNT(*) FROM ds",
		"SELECT MAX(col3) FROM plain WHERE col1 < 500000000",
	} {
		if _, err := e.Query(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if err := e.AuditBudget(); err != nil {
			t.Fatalf("after %q: %v", q, err)
		}
	}
	if e.Budget().SizeBytes() == 0 {
		t.Fatal("budget accounted nothing; the audit would be vacuous")
	}

	// Rewriting one partition must release the old partition's accounting
	// (the replacement re-accounts fresh structures, never double-counts).
	part0 := filepath.Join(dir, "part-0000.csv")
	if err := os.WriteFile(part0, renderRowsCSV(vals, 0, 50), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT COUNT(*) FROM ds"); err != nil {
		t.Fatal(err)
	}
	if err := e.AuditBudget(); err != nil {
		t.Fatalf("after a partition rewrite: %v", err)
	}
	for _, k := range e.Budget().Keys() {
		if n := strings.Count(k, "part-0000.csv"); n > 1 {
			t.Fatalf("duplicate accounting key %q", k)
		}
	}

	if err := e.DropTable("ds"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropTable("plain"); err != nil {
		t.Fatal(err)
	}
	if got := e.Budget().SizeBytes(); got != 0 {
		t.Fatalf("budget retains %d bytes after dropping every table (keys %v)",
			got, e.Budget().Keys())
	}
	if got := e.Budget().Len(); got != 0 {
		t.Fatalf("budget retains %d entries after dropping every table (keys %v)",
			got, e.Budget().Keys())
	}
	if got := e.ShredPool().Len(); got != 0 {
		t.Fatalf("shred pool retains %d shreds after dropping every table", got)
	}
}

// TestDatasetParallelInterleave: a dataset of files individually too small
// to split still runs morsel-parallel — one morsel per partition interleaved
// on the pool — with results identical to serial.
func TestDatasetParallelInterleave(t *testing.T) {
	_, _, schema, vals := testData(t, 600, 5, 23)
	formats := make([]catalog.Format, 6)
	for i := range formats {
		formats[i] = catalog.CSV
	}
	dir := writeDatasetDir(t, vals, schema, formats)
	e := newTestEngine(t, Config{DisableShredCache: true})
	if err := e.RegisterDataset("t", dir, schema); err != nil {
		t.Fatal(err)
	}
	q := "SELECT SUM(col2), COUNT(*) FROM t WHERE col1 < 700000000"
	serialW := 1
	serial, err := e.QueryOpt(q, Options{Parallelism: &serialW})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		w := workers
		par, err := e.QueryOpt(q, Options{Parallelism: &w})
		if err != nil {
			t.Fatalf("workers %d: %v", w, err)
		}
		assertSameResult(t, fmt.Sprintf("workers %d", w), serial, par)
		found := false
		for _, p := range par.Stats.AccessPaths {
			if strings.HasPrefix(p, "par[") {
				found = true
			}
		}
		if !found {
			t.Fatalf("workers %d never went parallel: %v", w, par.Stats.AccessPaths)
		}
	}
}

// TestDatasetJoin: a dataset joins against an ordinary table like the
// single-file twin does.
func TestDatasetJoin(t *testing.T) {
	csvData, _, schema, vals := testData(t, 300, 4, 31)
	dir := writeDatasetDir(t, vals, schema, []catalog.Format{catalog.CSV, catalog.JSON})

	ref := newTestEngine(t, Config{})
	ds := newTestEngine(t, Config{})
	if err := ref.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	if err := ds.RegisterDataset("t", dir, schema); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{ref, ds} {
		if err := e.RegisterCSVData("r", csvData, schema); err != nil {
			t.Fatal(err)
		}
	}
	q := "SELECT COUNT(*), MAX(t.col2) FROM t, r WHERE t.col1 = r.col1 AND r.col3 < 800000000"
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "join", want, got)
}

// TestDatasetEmptyAndGrowing: an empty directory is a valid, empty dataset;
// the first file to arrive populates it.
func TestDatasetEmptyAndGrowing(t *testing.T) {
	dir := t.TempDir()
	schema := []catalog.Column{{Name: "col1", Type: vector.Int64}}
	e := newTestEngine(t, Config{})
	if err := e.RegisterDataset("t", dir, schema); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Int64(0, 0) != 0 {
		t.Fatalf("empty dataset count = %d", res.Int64(0, 0))
	}
	res, err = e.Query("SELECT col1 FROM t WHERE col1 > 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 0 {
		t.Fatalf("empty dataset returned %d rows", res.NumRows())
	}
	if err := os.WriteFile(filepath.Join(dir, "x.csv"), []byte("5\n6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Int64(0, 0) != 2 {
		t.Fatalf("count after first arrival = %d", res.Int64(0, 0))
	}
}

// TestDatasetGroupByOrder: group keys keep first-encounter order across
// partition boundaries (manifest order = file order of the single-file
// twin), serial and parallel.
func TestDatasetGroupByOrder(t *testing.T) {
	rows := 500
	vals := make([][]int64, rows)
	for r := range vals {
		vals[r] = []int64{int64((r*7 + r/3) % 5), int64(r)}
	}
	schema := []catalog.Column{
		{Name: "col1", Type: vector.Int64}, {Name: "col2", Type: vector.Int64}}
	dir := writeDatasetDir(t, vals, schema,
		[]catalog.Format{catalog.CSV, catalog.JSON, catalog.CSV, catalog.JSON})

	ref := newTestEngine(t, Config{})
	if err := ref.RegisterCSVData("t", renderRowsCSV(vals, 0, rows), schema); err != nil {
		t.Fatal(err)
	}
	ds := newTestEngine(t, Config{})
	if err := ds.RegisterDataset("t", dir, schema); err != nil {
		t.Fatal(err)
	}
	q := "SELECT col1, COUNT(*), SUM(col2) FROM t GROUP BY col1"
	for _, workers := range []int{1, 4} {
		w := workers
		want, err := ref.QueryOpt(q, Options{Parallelism: &w})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.QueryOpt(q, Options{Parallelism: &w})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("groupby workers %d", w), want, got)
	}
}
