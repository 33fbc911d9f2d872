package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/obs"
	"rawdb/internal/posmap"
	"rawdb/internal/shred"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

func posmapPolicy(k int) posmap.Policy { return posmap.Policy{EveryK: k} }

// TestRandomizedStrategyEquivalence is the engine's central property test:
// for randomly generated tables and randomly generated queries, every access
// strategy and planner option must return the same answer as a naive
// in-memory evaluation.
func TestRandomizedStrategyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ops := []string{"<", "<=", ">", ">=", "=", "<>"}
	aggs := []string{"MIN", "MAX", "SUM", "COUNT"}

	for trial := 0; trial < 25; trial++ {
		rows := 50 + rng.Intn(300)
		ncols := 3 + rng.Intn(8)
		csvData, _, schema, vals := testData(t, rows, ncols, int64(1000+trial))

		// Random query: agg over a random column, 0-2 predicates.
		aggCol := rng.Intn(ncols)
		agg := aggs[rng.Intn(len(aggs))]
		var preds []string
		type pred struct {
			col int
			op  string
			lit int64
		}
		var bound []pred
		for k := rng.Intn(3); k > 0; k-- {
			p := pred{col: rng.Intn(ncols), op: ops[rng.Intn(len(ops))],
				lit: rng.Int63n(1_000_000_000)}
			bound = append(bound, p)
			preds = append(preds, fmt.Sprintf("col%d %s %d", p.col+1, p.op, p.lit))
		}
		q := fmt.Sprintf("SELECT %s(col%d), COUNT(*) FROM t", agg, aggCol+1)
		if len(preds) > 0 {
			q += " WHERE " + preds[0]
			for _, p := range preds[1:] {
				q += " AND " + p
			}
		}

		// Naive reference.
		match := func(v, lit int64, op string) bool {
			switch op {
			case "<":
				return v < lit
			case "<=":
				return v <= lit
			case ">":
				return v > lit
			case ">=":
				return v >= lit
			case "=":
				return v == lit
			default:
				return v != lit
			}
		}
		var wantN, wantMin, wantMax, wantSum int64
		wantMin = 1<<63 - 1
		for _, row := range vals {
			ok := true
			for _, p := range bound {
				if !match(row[p.col], p.lit, p.op) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			wantN++
			wantSum += row[aggCol]
			if row[aggCol] < wantMin {
				wantMin = row[aggCol]
			}
			if row[aggCol] > wantMax {
				wantMax = row[aggCol]
			}
		}
		if wantN == 0 {
			wantMin, wantMax = 0, 0
		}
		var want int64
		switch agg {
		case "MIN":
			want = wantMin
		case "MAX":
			want = wantMax
		case "SUM":
			want = wantSum
		case "COUNT":
			want = wantN
		}

		for _, strat := range allStrategies {
			for _, multi := range []bool{false, true} {
				e := newTestEngine(t, Config{Strategy: strat, MultiColumnShreds: multi})
				if err := e.RegisterCSVData("t", csvData, schema); err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					res, err := e.Query(q)
					if err != nil {
						t.Fatalf("trial %d %s multi=%v pass %d: %q: %v",
							trial, strat, multi, pass, q, err)
					}
					if got := res.Int64(0, 0); got != want || res.Int64(0, 1) != wantN {
						t.Fatalf("trial %d %s multi=%v pass %d: %q = %d/%d, want %d/%d",
							trial, strat, multi, pass, q, got, res.Int64(0, 1), want, wantN)
					}
				}
			}
		}
	}
}

// TestConcurrentQueries exercises the per-table query locks: many goroutines
// querying overlapping tables on a shared engine must produce correct
// answers with no races (run under -race in CI).
func TestConcurrentQueries(t *testing.T) {
	csvA, _, schema, valsA := testData(t, 500, 6, 200)
	csvB, _, _, valsB := testData(t, 500, 6, 201)
	e := newTestEngine(t, Config{Strategy: StrategyShreds})
	if err := e.RegisterCSVData("a", csvA, schema); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterCSVData("b", csvB, schema); err != nil {
		t.Fatal(err)
	}
	wantA, _ := refMaxWhere(valsA, 2, 0, 700_000_000)
	wantB, _ := refMaxWhere(valsB, 2, 0, 700_000_000)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		table, want := "a", wantA
		if g%2 == 1 {
			table, want = "b", wantB
		}
		go func(table string, want int64) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := e.Query(fmt.Sprintf(
					"SELECT MAX(col3) FROM %s WHERE col1 < 700000000", table))
				if err != nil {
					errs <- err
					return
				}
				if res.Int64(0, 0) != want {
					errs <- fmt.Errorf("table %s: got %d, want %d", table, res.Int64(0, 0), want)
					return
				}
			}
		}(table, want)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	// Values: group g appears g times (g in 1..5).
	var b []byte
	for g := 1; g <= 5; g++ {
		for k := 0; k < g; k++ {
			b = append(b, []byte(fmt.Sprintf("%d,%d\n", g, g*10+k))...)
		}
	}
	schema := []catalog.Column{{Name: "g", Type: vector.Int64}, {Name: "v", Type: vector.Int64}}
	for _, strat := range []Strategy{StrategyDBMS, StrategyJIT, StrategyShreds} {
		e := newTestEngine(t, Config{Strategy: strat})
		if err := e.RegisterCSVData("t", b, schema); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query("SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) >= 3")
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.NumRows() != 3 { // groups 3, 4, 5
			t.Fatalf("%s: %d groups, want 3", strat, res.NumRows())
		}
		for i := 0; i < res.NumRows(); i++ {
			g := res.Int64(i, 0)
			if g < 3 || res.Int64(i, 1) != g {
				t.Fatalf("%s: group %d count %d", strat, g, res.Int64(i, 1))
			}
		}
	}
}

func TestHavingWithHiddenAggregate(t *testing.T) {
	// The HAVING aggregate (MAX) is not in the SELECT list: a hidden spec.
	csvData, _, schema, vals := testData(t, 300, 3, 202)
	e := newTestEngine(t, Config{Strategy: StrategyJIT})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT COUNT(*) FROM t HAVING MAX(col2) >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Int64(0, 0) != int64(len(vals)) {
		t.Fatalf("count = %d", res.Int64(0, 0))
	}
	// A HAVING that excludes the single global group yields zero rows.
	res2, err := e.Query("SELECT COUNT(*) FROM t HAVING MIN(col2) < 0")
	if err != nil {
		t.Fatal(err)
	}
	if res2.NumRows() != 0 {
		t.Fatalf("expected empty result, got %d rows", res2.NumRows())
	}
}

func TestMemoryTables(t *testing.T) {
	csvData, _, schema, _ := testData(t, 200, 3, 203)
	e := newTestEngine(t, Config{Strategy: StrategyShreds})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT col1, COUNT(*) FROM t GROUP BY col1")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterResult("agg", res, []string{"k", "n"}); err != nil {
		t.Fatal(err)
	}
	// Memory tables join against raw tables.
	res2, err := e.Query("SELECT COUNT(*) FROM t, agg WHERE t.col1 = agg.k")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Int64(0, 0) != 200 {
		t.Fatalf("join count = %d, want 200", res2.Int64(0, 0))
	}
	// Validation paths.
	if err := e.RegisterResult("bad", res, []string{"onlyone"}); err == nil {
		t.Fatal("expected arity error")
	}
	if err := e.RegisterMemory("m", []catalog.Column{{Name: "a", Type: vector.Int64}},
		[]*vector.Vector{vector.New(vector.Float64, 0)}); err == nil {
		t.Fatal("expected type mismatch error")
	}
	// DropCaches must not destroy memory tables.
	e.DropCaches()
	if _, err := e.Query("SELECT COUNT(*) FROM agg"); err != nil {
		t.Fatalf("memory table lost after DropCaches: %v", err)
	}
}

// TestPartialShredCompletesFromRaw: late columns whose only shreds are
// partial and lack rows a query needs are completed from the raw file in the
// same late scan, over CSV, JSONL and binary, with the multi-column late
// option on and off. The rows equal a cache-less engine's, nothing replans,
// the filter is served from its full shred, the pool keeps exactly the old
// partial shreds, each looked up once, and a query the shreds subsume reads
// no raw row.
func TestPartialShredCompletesFromRaw(t *testing.T) {
	g := goldenTable(t, 3000, 0)
	formats := []struct {
		name     string
		register func(e *Engine) error
	}{
		{"csv", func(e *Engine) error { return e.RegisterCSVData("t", g.csv, g.schema) }},
		{"jsonl", func(e *Engine) error { return e.RegisterJSONData("t", g.json, g.schema) }},
		{"bin", func(e *Engine) error { return e.RegisterBinaryData("t", g.bin, g.schema) }},
	}
	// col1 is the row number. The first warm-up caches it whole (and builds
	// the positional structure), the second caches col3 and col4 for the
	// first 400 rows only; wide needs 2500.
	const (
		narrow = "SELECT SUM(col3), MAX(col4) FROM t WHERE col1 < 400"
		wide   = "SELECT SUM(col3), MAX(col4), COUNT(*) FROM t WHERE col1 < 2500"
		lacked = 2 * (2500 - 400)
	)
	for _, f := range formats {
		for _, multi := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/multi=%v", f.name, multi), func(t *testing.T) {
				e := newTestEngine(t, Config{Strategy: StrategyShreds, MultiColumnShreds: multi})
				plain := newTestEngine(t, Config{Strategy: StrategyShreds, DisableShredCache: true})
				for _, eng := range []*Engine{e, plain} {
					if err := f.register(eng); err != nil {
						t.Fatal(err)
					}
				}
				for _, q := range []string{"SELECT COUNT(*) FROM t WHERE col1 < 1000", narrow} {
					if _, err := e.Query(q); err != nil {
						t.Fatal(err)
					}
				}
				partials := func() []*shred.Shred {
					var out []*shred.Shred
					for _, s := range e.shreds.ShredsOf("t") {
						if c := s.Key().Col; c == 2 || c == 3 {
							out = append(out, s)
						}
					}
					return out
				}
				before := partials()
				if len(before) != 2 || before[0].Full() || before[1].Full() {
					t.Fatalf("warm-up left col3/col4 shreds %v, want two partial ones", before)
				}
				fill := e.metrics.Counter("shred.fill.rows")
				hits, misses := e.shreds.Stats()
				filled := fill.Load()
				tr := obs.NewTrace()
				res, err := e.QueryOpt(wide, Options{Trace: tr})
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.Query(wide)
				if err != nil {
					t.Fatal(err)
				}
				for c := range want.Columns {
					if res.Value(0, c) != want.Value(0, c) {
						t.Fatalf("column %d = %v, the cache-less engine says %v", c, res.Value(0, c), want.Value(0, c))
					}
				}
				if n := planSpans(tr); n != 1 {
					t.Fatalf("the trace holds %d plan phases, want one: the query replanned", n)
				}
				wantPaths := "shred:scan(t) push[1](t) zmap(t) shred:late(t.cols2,) shred:late(t.cols3,)"
				if multi {
					wantPaths = "shred:scan(t) push[1](t) zmap(t) shred:late(t.cols2,3,)"
				}
				if paths := strings.Join(res.Stats.AccessPaths, " "); paths != wantPaths {
					t.Fatalf("paths %q, want %q", paths, wantPaths)
				}
				if after := partials(); !slices.Equal(after, before) {
					t.Fatalf("the pool's col3/col4 shreds went %v -> %v", before, after)
				}
				if h, m := e.shreds.Stats(); h-hits != 3 || m != misses {
					t.Fatalf("lookups: %d hits, %d misses; want 3 and 0", h-hits, m-misses)
				}
				if got := fill.Load() - filled; got != lacked {
					t.Fatalf("shred.fill.rows grew by %d, want %d", got, lacked)
				}
				var spanFilled int64
				for _, s := range tr.Spans() {
					for _, a := range s.Attrs() {
						if a.Key == "filled" {
							n, _ := strconv.ParseInt(a.Val, 10, 64)
							spanFilled += n
						}
					}
				}
				if spanFilled != lacked {
					t.Fatalf("late-scan spans say filled=%d, want %d", spanFilled, lacked)
				}
				// A query the partial shreds subsume reads no raw row.
				filled = fill.Load()
				if _, err := e.Query(narrow); err != nil {
					t.Fatal(err)
				}
				if got := fill.Load() - filled; got != 0 {
					t.Fatalf("a subsumed query filled %d rows from the raw file", got)
				}
			})
		}
	}
}

// planSpans counts the plan phases in a query's trace: a query that planned
// again after its first plan failed would hold two.
func planSpans(tr *obs.Trace) int {
	n := 0
	for _, s := range tr.Spans() {
		if s.Name() == "plan" {
			n++
		}
	}
	return n
}

// partialShredWarmup is the cache state under which a wide filter over table
// tab late-scans a partial col3 shred that lacks some of its rows: the first
// query builds the positional map (a cold scan captures whole columns), so
// the narrow second one late-scans col3 and caches it for the rows with
// col1 < 10% only.
func partialShredWarmup(tab string) []string {
	return []string{
		"SELECT MAX(col2) FROM " + tab + " WHERE col1 < 500000000",
		"SELECT MAX(col3) FROM " + tab + " WHERE col1 < 100000000",
	}
}

// TestZeroRowCaptureStaysPartial is the regression test for a capture bug
// the dataset differential harness surfaced: a late scan under a filter that
// matched NO rows used to publish its (empty) capture with nil row ids —
// the pool's encoding for a full column — so the next query of that column
// was served an empty "full" shred and silently lost every row.
func TestZeroRowCaptureStaysPartial(t *testing.T) {
	csvData, _, schema, vals := testData(t, 300, 6, 208)
	e := newTestEngine(t, Config{Strategy: StrategyShreds})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	// Warm the positional map and col1's shred so the next query late-scans.
	if _, err := e.Query("SELECT MAX(col2) FROM t WHERE col1 < 500000000"); err != nil {
		t.Fatal(err)
	}
	// No row has col1 = -1: the late scan of col5 captures zero rows.
	if res, err := e.Query("SELECT MAX(col5) FROM t WHERE col1 = -1"); err != nil {
		t.Fatal(err)
	} else if res.Stats.RowsOut != 1 {
		t.Fatalf("unexpected shape %d", res.Stats.RowsOut)
	}
	// col5 must still read in full — an unfiltered aggregate serves the
	// column from the pool whenever a "full" shred exists, with no runtime
	// subsumption check to catch an impostor.
	want, _ := refMaxWhere(vals, 4, 0, 1_000_000_000)
	res, err := e.Query("SELECT MAX(col5) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Int64(0, 0); got != want {
		t.Fatalf("MAX(col5) after zero-row capture = %d, want %d", got, want)
	}
}

// TestPosMapPolicyAffectsAccessPaths pins the paper's direct vs nearby
// distinction: with EveryK=10 column 11 (index 10) is tracked and read
// directly; with EveryK=7 it needs incremental parsing from column 8.
func TestPosMapPolicyAffectsAccessPaths(t *testing.T) {
	csvData, _, schema, vals := testData(t, 300, 12, 205)
	want, _ := refMaxWhere(vals, 10, 0, 500_000_000)
	for _, k := range []int{10, 7} {
		e := New(Config{Strategy: StrategyJIT, PosMapPolicy: posmapPolicy(k), DisableShredCache: true})
		if err := e.RegisterCSVData("t", csvData, schema); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query("SELECT MAX(col1) FROM t WHERE col1 < 500000000"); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query("SELECT MAX(col11) FROM t WHERE col1 < 500000000")
		if err != nil {
			t.Fatal(err)
		}
		if res.Int64(0, 0) != want {
			t.Fatalf("everyK=%d: got %d, want %d", k, res.Int64(0, 0), want)
		}
		if len(res.Stats.AccessPaths) == 0 || res.Stats.AccessPaths[0] != "jit:viamap(t)" {
			t.Fatalf("everyK=%d: access paths %v", k, res.Stats.AccessPaths)
		}
	}
}

func TestEmptyAndSingleRowTables(t *testing.T) {
	schema := []catalog.Column{{Name: "a", Type: vector.Int64}}
	for _, strat := range allStrategies {
		e := newTestEngine(t, Config{Strategy: strat})
		if err := e.RegisterCSVData("empty", nil, schema); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterCSVData("one", []byte("42\n"), schema); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query("SELECT COUNT(*) FROM empty")
		if err != nil {
			t.Fatalf("%s empty: %v", strat, err)
		}
		if res.Int64(0, 0) != 0 {
			t.Fatalf("%s: empty count = %d", strat, res.Int64(0, 0))
		}
		res, err = e.Query("SELECT MAX(a) FROM one WHERE a < 100")
		if err != nil {
			t.Fatalf("%s one: %v", strat, err)
		}
		if res.Int64(0, 0) != 42 {
			t.Fatalf("%s: got %d", strat, res.Int64(0, 0))
		}
	}
}

// aggOverJoinAllSides pins aggregate-over-join correctness once more with a
// reference nested loop, covering the exec/join/planner integration.
func TestAggOverJoinAgainstNestedLoop(t *testing.T) {
	csv1, _, schema, vals1 := testData(t, 150, 4, 206)
	csv2, _, _, vals2 := testData(t, 150, 4, 207)
	// Reduce key cardinality so the join fans out.
	mod := func(data []byte, vals [][]int64) ([]byte, [][]int64) {
		for _, row := range vals {
			row[0] %= 20
		}
		var out []byte
		for _, row := range vals {
			out = append(out, []byte(fmt.Sprintf("%d,%d,%d,%d\n", row[0], row[1], row[2], row[3]))...)
		}
		return out, vals
	}
	csv1, vals1 = mod(csv1, vals1)
	csv2, vals2 = mod(csv2, vals2)

	var want int64
	for _, r1 := range vals1 {
		for _, r2 := range vals2 {
			if r1[0] == r2[0] && r2[1] < 500_000_000 {
				want += r1[2] + r2[3]
			}
		}
	}
	for _, strat := range []Strategy{StrategyDBMS, StrategyJIT, StrategyShreds} {
		e := newTestEngine(t, Config{Strategy: strat})
		if err := e.RegisterCSVData("t1", csv1, schema); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterCSVData("t2", csv2, schema); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(
			"SELECT SUM(t1.col3), SUM(t2.col4) FROM t1, t2 WHERE t1.col1 = t2.col1 AND t2.col2 < 500000000")
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if got := res.Int64(0, 0) + res.Int64(0, 1); got != want {
			t.Fatalf("%s: got %d, want %d", strat, got, want)
		}
	}
}

// exec.Operator conformance for the planner's scans is implicitly covered
// above; this silences unused-import drift if test sections move.
var _ exec.Operator = (*exec.MemScan)(nil)

// TestRootZoneMapPruning verifies that the first query over a ROOT table
// builds the engine's zone maps, that the next one skips blocks by them, and
// that pruned plans return the same answers as the DBMS baseline.
func TestRootZoneMapPruning(t *testing.T) {
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: 64})
	tw := w.Tree("t")
	vb := tw.Branch("v", vector.Int64)
	xb := tw.Branch("x", vector.Int64)
	const n = 2000
	var want int64
	for i := 0; i < n; i++ {
		vb.AppendInt64(int64(i)) // sorted: zone maps are selective
		xb.AppendInt64(int64(i * 7 % 1000))
		if i < 100 && int64(i*7%1000) > want {
			want = int64(i * 7 % 1000)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	schema := []catalog.Column{{Name: "v", Type: vector.Int64}, {Name: "x", Type: vector.Int64}}
	for _, strat := range []Strategy{StrategyJIT, StrategyShreds, StrategyDBMS} {
		e := newTestEngine(t, Config{Strategy: strat, SynopsisBlockRows: 256})
		if err := e.RegisterRootData("t", buf.Bytes(), "t", schema); err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			res, err := e.Query("SELECT MAX(x) FROM t WHERE v < 100")
			if err != nil {
				t.Fatalf("%s: %v", strat, err)
			}
			if res.Int64(0, 0) != want {
				t.Fatalf("%s: got %d, want %d", strat, res.Int64(0, 0), want)
			}
			if run == 0 || strat == StrategyDBMS {
				continue
			}
			if !slices.Contains(res.Stats.AccessPaths, "zmap(t)") || res.Stats.BlocksSkipped == 0 {
				t.Fatalf("%s: warm query should skip blocks by the zone map: paths %v, %d blocks skipped",
					strat, res.Stats.AccessPaths, res.Stats.BlocksSkipped)
			}
		}
	}
}

// TestRootNaNNotPruned: a NaN among a ROOT float column's values satisfies
// "<>", so no zone map may exclude its block: over [5, NaN, 5] the count is 1
// under every strategy that reads ROOT, serial and parallel, cold and warm.
func TestRootNaNNotPruned(t *testing.T) {
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: 4})
	fb := w.Tree("t").Branch("f", vector.Float64)
	for _, v := range []float64{5, math.NaN(), 5} {
		fb.AppendFloat64(v)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	schema := []catalog.Column{{Name: "f", Type: vector.Float64}}
	for _, cfg := range []Config{{}, {SynopsisBlockRows: 1, BatchSize: 1}} {
		for _, strat := range []Strategy{StrategyDBMS, StrategyInSitu, StrategyJIT, StrategyShreds} {
			for _, workers := range []int{1, 4} {
				cfg.Strategy = strat
				e := newTestEngine(t, cfg)
				if err := e.RegisterRootData("t", buf.Bytes(), "t", schema); err != nil {
					t.Fatal(err)
				}
				for run := 0; run < 2; run++ {
					if got := queryAt(t, e, "SELECT COUNT(*) FROM t WHERE f <> 5", workers).Int64(0, 0); got != 1 {
						t.Fatalf("%s, workers %d, batch %d, run %d: COUNT(*) = %d, want 1",
							strat, workers, cfg.BatchSize, run, got)
					}
				}
			}
		}
	}
}

// TestTwoStageExtremesWithNaN: a float MIN or MAX answers the same at
// Parallelism 1 and 4, cold and warm, when NaN opens a group in a later
// morsel than the group's first row. Group 1 holds 5 in the first morsel,
// then NaN and -1 in the second; the other rows (group 0) hold 10. NaN sorts
// above every number: MIN(f) is -1, MAX(f) NaN. A partial that kept a NaN
// opening its part lost the -1, so the cut plan answered MIN 5.
func TestTwoStageExtremesWithNaN(t *testing.T) {
	const rows = 800
	g, f := make([]int64, rows), make([]float64, rows)
	for r := range f {
		f[r] = 10
	}
	g[0], f[0] = 1, 5
	g[rows/8], f[rows/8] = 1, math.NaN()
	g[rows/8+1], f[rows/8+1] = 1, -1
	var bin, root bytes.Buffer
	bw, err := binfile.NewWriter(&bin, []vector.Type{vector.Int64, vector.Float64}, rows)
	if err != nil {
		t.Fatal(err)
	}
	w := rootfile.NewWriter(&root, rootfile.Options{BasketEntries: 64, Compress: true})
	tw := w.Tree("t")
	gb, fb := tw.Branch("g", vector.Int64), tw.Branch("f", vector.Float64)
	for r := range rows {
		if err := bw.WriteRow(g[r:r+1], f[r:r+1]); err != nil {
			t.Fatal(err)
		}
		gb.AppendInt64(g[r])
		fb.AppendFloat64(f[r])
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	schema := []catalog.Column{{Name: "g", Type: vector.Int64}, {Name: "f", Type: vector.Float64}}
	register := map[string]func(e *Engine) error{
		"binary": func(e *Engine) error { return e.RegisterBinaryData("t", bin.Bytes(), schema) },
		"root":   func(e *Engine) error { return e.RegisterRootData("t", root.Bytes(), "t", schema) },
	}
	queries := []string{
		"SELECT g, MIN(f), MAX(f) FROM t GROUP BY g",
		"SELECT MIN(f), MAX(f) FROM t",
		"SELECT MIN(f) FROM t WHERE g = 1",
	}
	for format, reg := range register {
		for _, strat := range []Strategy{StrategyDBMS, StrategyInSitu, StrategyJIT, StrategyShreds} {
			serial, cut := newTestEngine(t, Config{Strategy: strat}), newTestEngine(t, Config{Strategy: strat})
			if err := reg(serial); err != nil {
				t.Fatal(err)
			}
			if err := reg(cut); err != nil {
				t.Fatal(err)
			}
			for run := range 2 {
				for _, q := range queries {
					want := queryAt(t, serial, q, 1)
					if m := want.Float64(0, len(want.Columns)-1); q != queries[2] && !math.IsNaN(m) {
						t.Fatalf("%s %s: %q: MAX(f) = %v, want NaN", format, strat, q, m)
					}
					got := queryAt(t, cut, q, 4)
					if got.Stats.ParallelFallback != "" {
						t.Fatalf("%s %s: %q ran serially at 4 workers: %s", format, strat, q, got.Stats.ParallelFallbackDetail)
					}
					sameResult(t, fmt.Sprintf("%s %s run %d %q", format, strat, run, q), got, want)
				}
			}
		}
	}
}

// TestRootImageBacksNoPartition: a dataset partition names no tree, so a ROOT
// image backs none, not even one whose only tree has the empty name.
func TestRootImageBacksNoPartition(t *testing.T) {
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{})
	w.Tree("").Branch("x", vector.Int64).AppendInt64(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{})
	err := e.RegisterDatasetParts("d", []DataPart{{Format: catalog.Root, Data: buf.Bytes()}},
		[]catalog.Column{{Name: "x", Type: vector.Int64}})
	if err == nil || !strings.Contains(err.Error(), "cannot back a partition") {
		t.Fatalf("a ROOT partition registered: %v", err)
	}
}
