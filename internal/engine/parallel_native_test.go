package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/obs"
	"rawdb/internal/sql"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

// floatData builds a CSV image with one low-cardinality BIGINT group column
// followed by DOUBLE columns filled with adversarial magnitudes: random
// signs and exponents spread over ~24 binades, so a naively re-associated
// sum rounds differently from the serial left-to-right sum with high
// probability. Any worker-count-dependent rounding shows up as a bit
// mismatch.
func floatData(t *testing.T, rows int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	types := []vector.Type{vector.Int64, vector.Float64, vector.Float64}
	var buf bytes.Buffer
	w := csvfile.NewWriter(&buf, types)
	for r := 0; r < rows; r++ {
		f1 := rng.NormFloat64() * math.Pow(2, float64(rng.Intn(24)-12))
		f2 := rng.NormFloat64() * math.Pow(2, float64(rng.Intn(24)-12))
		if err := w.WriteRow([]int64{rng.Int63n(5)}, []float64{f1, f2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var floatSchema = []catalog.Column{
	{Name: "g", Type: vector.Int64},
	{Name: "a", Type: vector.Float64},
	{Name: "b", Type: vector.Float64},
}

// queryAt runs src at the given worker count and fails the test on error.
func queryAt(t *testing.T, e *Engine, src string, workers int) *Result {
	t.Helper()
	res, err := e.QueryOpt(src, Options{Parallelism: &workers})
	if err != nil {
		t.Fatalf("workers %d: %q: %v", workers, src, err)
	}
	return res
}

// sameResult asserts two results agree cell for cell, floats by bit pattern.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.NumRows() != want.NumRows() || len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: shape %dx%d vs %dx%d",
			label, got.NumRows(), len(got.Columns), want.NumRows(), len(want.Columns))
	}
	for r := 0; r < want.NumRows(); r++ {
		for c := range want.Columns {
			if want.Types[c] == vector.Float64 {
				g, w := got.Float64(r, c), want.Float64(r, c)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: cell (%d,%d) = %v (bits %x) vs %v (bits %x)",
						label, r, c, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			} else if g, w := got.Int64(r, c), want.Int64(r, c); g != w {
				t.Fatalf("%s: cell (%d,%d) = %d vs %d", label, r, c, g, w)
			}
		}
	}
}

// TestCountColumnPicksFixedWidth pins the COUNT(*) column choice: the
// batches only pace the count, so the planner must pick the first
// fixed-width numeric column and never drag a variable-width column through
// the scan just because it is column 0.
func TestCountColumnPicksFixedWidth(t *testing.T) {
	cases := []struct {
		types []vector.Type
		want  int
	}{
		{[]vector.Type{vector.Int64, vector.Int64}, 0},
		{[]vector.Type{vector.Bytes, vector.Int64}, 1},
		{[]vector.Type{vector.Bytes, vector.Bool, vector.Float64}, 2},
		{[]vector.Type{vector.Bool, vector.Bytes}, 0}, // no numeric column: fall back to 0
	}
	for i, c := range cases {
		tab := &catalog.Table{Name: "t"}
		for j, typ := range c.types {
			tab.Schema = append(tab.Schema, catalog.Column{Name: fmt.Sprintf("c%d", j), Type: typ})
		}
		if got := countColumn(tab); got != c.want {
			t.Errorf("case %d (%v): countColumn = %d, want %d", i, c.types, got, c.want)
		}
	}
}

// TestCountStarSkipsWideColumn runs an unfiltered COUNT(*) over a memory
// table whose column 0 is a wide VARCHAR payload: the planner must pace the
// count on the BIGINT column (countColumn), serially and in parallel, and
// the parallel plan must not fall back.
func TestCountStarSkipsWideColumn(t *testing.T) {
	const nrows = 4000
	payload := bytes.Repeat([]byte("x"), 512)
	wide := vector.New(vector.Bytes, nrows)
	keys := vector.New(vector.Int64, nrows)
	for i := 0; i < nrows; i++ {
		wide.AppendBytes(payload)
		keys.AppendInt64(int64(i))
	}
	e := newTestEngine(t, Config{BatchSize: 256})
	schema := []catalog.Column{
		{Name: "blob", Type: vector.Bytes},
		{Name: "k", Type: vector.Int64},
	}
	if err := e.RegisterMemory("m", schema, []*vector.Vector{wide, keys}); err != nil {
		t.Fatal(err)
	}
	st, err := e.state("m")
	if err != nil {
		t.Fatal(err)
	}
	if got := countColumn(st.tab); got != 1 {
		t.Fatalf("countColumn = %d, want 1 (skip the VARCHAR payload)", got)
	}
	for _, w := range []int{1, 8} {
		res := queryAt(t, e, "SELECT COUNT(*) FROM m", w)
		if res.Int64(0, 0) != nrows {
			t.Fatalf("workers %d: COUNT(*) = %d, want %d", w, res.Int64(0, 0), nrows)
		}
		if w > 1 && res.Stats.ParallelFallback != "" {
			t.Fatalf("workers %d: unexpected fallback %q (%s)",
				w, res.Stats.ParallelFallback, res.Stats.ParallelFallbackDetail)
		}
	}
}

// BenchmarkCountStarWideBytes measures the unfiltered COUNT(*) the
// cheapest-column choice protects: a memory table with a 512-byte VARCHAR
// column 0 and a BIGINT column 1. The planner paces the count on the BIGINT
// column; the wide payload is never projected into a scan.
func BenchmarkCountStarWideBytes(b *testing.B) {
	const nrows = 20000
	payload := bytes.Repeat([]byte("x"), 512)
	wide := vector.New(vector.Bytes, nrows)
	keys := vector.New(vector.Int64, nrows)
	for i := 0; i < nrows; i++ {
		wide.AppendBytes(payload)
		keys.AppendInt64(int64(i))
	}
	e := New(Config{})
	schema := []catalog.Column{
		{Name: "blob", Type: vector.Bytes},
		{Name: "k", Type: vector.Int64},
	}
	if err := e.RegisterMemory("m", schema, []*vector.Vector{wide, keys}); err != nil {
		b.Fatal(err)
	}
	w := 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.QueryOpt("SELECT COUNT(*) FROM m", Options{Parallelism: &w})
		if err != nil {
			b.Fatal(err)
		}
		if res.Int64(0, 0) != nrows {
			b.Fatalf("COUNT(*) = %d, want %d", res.Int64(0, 0), nrows)
		}
	}
}

// TestParallelDuplicateColumnSlot regresses the planParallel column-slot
// build: a column referenced by both the select list and a filter (and
// repeated in the select list) must occupy one scan slot, and the parallel
// answer must match the serial one.
func TestParallelDuplicateColumnSlot(t *testing.T) {
	csvData, _, schema, _ := testData(t, 400, 6, 99)
	e := newTestEngine(t, Config{})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT col3, col3 FROM t WHERE col3 < 500000000",
		"SELECT col3, col1, col3 FROM t WHERE col3 >= 250000000 AND col1 < 750000000",
		"SELECT SUM(col2), MIN(col2), COUNT(col2) FROM t WHERE col2 <> 0",
	}
	for _, src := range queries {
		want := queryAt(t, e, src, 1)
		got := queryAt(t, e, src, 4)
		if got.Stats.ParallelFallback != "" {
			t.Fatalf("%q: unexpected fallback %q (%s)",
				src, got.Stats.ParallelFallback, got.Stats.ParallelFallbackDetail)
		}
		sameResult(t, src, got, want)
	}
}

// TestParallelFloatAggBitExact drives float SUM and AVG — ungrouped,
// filtered and grouped — through worker counts 1/2/8 over
// cancellation-prone data. Every worker count must produce the exact bits
// of the serial answer: the parallel plan ships exact partial sums (hi/lo
// expansion transport) and rounds once at the top, like the serial
// aggregate.
func TestParallelFloatAggBitExact(t *testing.T) {
	csvData := floatData(t, 5000, 42)
	e := newTestEngine(t, Config{})
	if err := e.RegisterCSVData("t", csvData, floatSchema); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT SUM(a) FROM t",
		"SELECT AVG(a), SUM(b) FROM t",
		"SELECT SUM(a), AVG(b), COUNT(*) FROM t WHERE a > 0",
		"SELECT g, SUM(a), AVG(b) FROM t GROUP BY g",
		"SELECT g, AVG(a) FROM t GROUP BY g HAVING COUNT(*) > 900",
	}
	for _, src := range queries {
		want := queryAt(t, e, src, 1)
		for _, w := range []int{2, 8} {
			got := queryAt(t, e, src, w)
			if got.Stats.ParallelFallback != "" {
				t.Fatalf("%q workers %d: unexpected fallback %q (%s)",
					src, w, got.Stats.ParallelFallback, got.Stats.ParallelFallbackDetail)
			}
			sameResult(t, fmt.Sprintf("%q workers %d", src, w), got, want)
		}
	}
}

// TestParallelJoinHavingNative pins the tentpole plan shapes: equi-joins,
// HAVING above a grouped aggregate and bare GROUP BY all run the parallel
// plan (no fallback) and reproduce the serial answers.
func TestParallelJoinHavingNative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mkCSV := func(rows, ncols int, keyCol int) []byte {
		types := make([]vector.Type, ncols)
		for i := range types {
			types[i] = vector.Int64
		}
		var buf bytes.Buffer
		w := csvfile.NewWriter(&buf, types)
		row := make([]int64, ncols)
		for r := 0; r < rows; r++ {
			for c := range row {
				if c == keyCol {
					row[c] = rng.Int63n(7)
				} else {
					row[c] = rng.Int63n(1000)
				}
			}
			if err := w.WriteRow(row, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	mkSchema := func(ncols int) []catalog.Column {
		var s []catalog.Column
		for i := 0; i < ncols; i++ {
			s = append(s, catalog.Column{Name: fmt.Sprintf("col%d", i+1), Type: vector.Int64})
		}
		return s
	}
	e := newTestEngine(t, Config{})
	if err := e.RegisterCSVData("t", mkCSV(300, 4, 1), mkSchema(4)); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterCSVData("u", mkCSV(60, 3, 0), mkSchema(3)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT COUNT(*) FROM t, u WHERE t.col2 = u.col1",
		"SELECT t.col1, u.col2 FROM t, u WHERE t.col2 = u.col1 AND t.col3 < 500",
		"SELECT SUM(t.col3), MAX(u.col2) FROM t, u WHERE t.col2 = u.col1",
		"SELECT col2, COUNT(*) FROM t GROUP BY col2 HAVING COUNT(*) > 40",
		"SELECT col2, SUM(col3) FROM t GROUP BY col2 HAVING SUM(col3) >= 10000",
		"SELECT col2 FROM t GROUP BY col2",
	}
	for _, src := range queries {
		want := queryAt(t, e, src, 1)
		got := queryAt(t, e, src, 4)
		if got.Stats.ParallelFallback != "" {
			t.Fatalf("%q: unexpected fallback %q (%s)",
				src, got.Stats.ParallelFallback, got.Stats.ParallelFallbackDetail)
		}
		sameResult(t, src, got, want)
	}
	// The join's access path names the parallel hash join explicitly.
	res := queryAt(t, e, "SELECT COUNT(*) FROM t, u WHERE t.col2 = u.col1", 4)
	found := false
	for _, ap := range res.Stats.AccessPaths {
		if ap == "par:hashjoin(t,u)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected par:hashjoin(t,u) access path, got %v", res.Stats.AccessPaths)
	}
}

// TestParallelFallbackReporting pins the structured fallback surface: the
// only remaining serial fallback (sub-2-morsel files) must name itself in
// Stats, in Explain and in the lifecycle event log; a ROOT table, read by
// entry id like a binary one, is cut into morsels and names none.
func TestParallelFallbackReporting(t *testing.T) {
	t.Run("root-table", func(t *testing.T) {
		var buf bytes.Buffer
		w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: 64})
		tw := w.Tree("t")
		vb := tw.Branch("v", vector.Int64)
		for i := 0; i < 500; i++ {
			vb.AppendInt64(int64(i))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		schema := []catalog.Column{{Name: "v", Type: vector.Int64}}
		e := newTestEngine(t, Config{})
		if err := e.RegisterRootData("t", buf.Bytes(), "t", schema); err != nil {
			t.Fatal(err)
		}
		w8 := 8
		plan, err := e.Explain("SELECT COUNT(*) FROM t", Options{Parallelism: &w8})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "parallel fallback") || !strings.Contains(plan, "par[16]:jit:root(t)") {
			t.Fatalf("Explain should cut the root table into 16 morsels:\n%s", plan)
		}
		res := queryAt(t, e, "SELECT COUNT(*) FROM t", 8)
		if res.Int64(0, 0) != 500 {
			t.Fatalf("COUNT(*) = %d, want 500", res.Int64(0, 0))
		}
		if s := res.Stats; s.ParallelFallback != "" || s.ParallelFallbackDetail != "" {
			t.Fatalf("fallback = %q (%s), want none", s.ParallelFallback, s.ParallelFallbackDetail)
		}
		for _, ev := range e.RecentEvents() {
			if ev.Kind == obs.EventFallback {
				t.Fatalf("fallback lifecycle event %+v", ev)
			}
		}
	})
	t.Run("root-join-built-once", func(t *testing.T) {
		// A ROOT probe side is cut like the CSV build side: the plan that
		// runs is the only one built, one scan per table.
		big, dim := goldenTable(t, 3000, 0), goldenTable(t, 50, 0)
		e := newTestEngine(t, Config{Strategy: StrategyJIT})
		if err := e.RegisterRootData("t", big.root, "t", big.schema); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterCSVData("u", dim.csv, dim.schema); err != nil {
			t.Fatal(err)
		}
		res := queryAt(t, e, "SELECT MAX(t.col4), COUNT(*) FROM t, u WHERE t.col2 = u.col1", 4)
		if res.Int64(0, 1) != 3000 {
			t.Fatalf("COUNT(*) = %d, want 3000", res.Int64(0, 1))
		}
		want := []string{"par[8]:jit:seq(u)", "par[8]:jit:root(t)", "par:hashjoin(t,u)"}
		if s := res.Stats; s.ParallelFallback != "" || !reflect.DeepEqual(s.AccessPaths, want) {
			t.Fatalf("fallback %q, access paths %v; want none and %v", s.ParallelFallback, s.AccessPaths, want)
		}
	})
	t.Run("small-file", func(t *testing.T) {
		// One row = one record-aligned morsel: below the 2-morsel floor.
		csvData, _, schema, _ := testData(t, 1, 3, 11)
		e := newTestEngine(t, Config{})
		if err := e.RegisterCSVData("tiny", csvData, schema); err != nil {
			t.Fatal(err)
		}
		// Cold, then twice warm: once every column is a cached shred the
		// decline comes from the shred-backed morsel builder, which must name
		// its reason like the raw-file one does.
		for run := 0; run < 3; run++ {
			res := queryAt(t, e, "SELECT COUNT(*) FROM tiny", 8)
			if res.Int64(0, 0) != 1 {
				t.Fatalf("run %d: COUNT(*) = %d, want 1", run, res.Int64(0, 0))
			}
			if res.Stats.ParallelFallback != fallbackSmallFile {
				t.Fatalf("run %d: fallback = %q (%s), want %q", run,
					res.Stats.ParallelFallback, res.Stats.ParallelFallbackDetail, fallbackSmallFile)
			}
		}
	})
	t.Run("none-when-parallel", func(t *testing.T) {
		csvData, _, schema, _ := testData(t, 500, 4, 12)
		e := newTestEngine(t, Config{})
		if err := e.RegisterCSVData("t", csvData, schema); err != nil {
			t.Fatal(err)
		}
		res := queryAt(t, e, "SELECT SUM(col2) FROM t WHERE col1 > 0", 8)
		if res.Stats.ParallelFallback != "" {
			t.Fatalf("unexpected fallback %q (%s)",
				res.Stats.ParallelFallback, res.Stats.ParallelFallbackDetail)
		}
		for _, ev := range e.RecentEvents() {
			if ev.Kind == obs.EventFallback {
				t.Fatalf("unexpected fallback event %v", ev)
			}
		}
	})
}

// TestCutDecides drives decide alone over the decline taxonomy and one
// splittable case per source of spans: the span counts, the exact reason and
// detail strings (plans.golden pins them end to end), and that deciding builds
// nothing — no template, stat, hook, heat or span.
func TestCutDecides(t *testing.T) {
	big, tiny, dim := goldenTable(t, 3000, 0), goldenTable(t, 1, 0), goldenTable(t, 50, 0)
	third := []*goldenData{goldenTable(t, 1000, 0), goldenTable(t, 1000, 1000), goldenTable(t, 1000, 2000)}
	csv := func(g *goldenData) func(*Engine) error {
		return func(e *Engine) error { return e.RegisterCSVData("t", g.csv, g.schema) }
	}
	root := func(e *Engine) error {
		return e.RegisterRootData("t", big.root, "t", big.schema)
	}
	dataset := func(parts ...DataPart) func(*Engine) error {
		return func(e *Engine) error { return e.RegisterDatasetParts("t", parts, big.schema) }
	}
	const q = "SELECT MAX(col2) FROM t WHERE col1 < 600"
	const join = "SELECT COUNT(*) FROM t, u WHERE t.col2 = u.col1"
	cases := []struct {
		name     string
		strategy Strategy
		register func(*Engine) error
		warm     string // run serially first: caches its shreds and zone maps
		sql      string
		reason   string
		detail   string
		spans    [][]int // per table, per unit; 0: pruned
		loaded   int
		shreds   bool
	}{
		{name: "one-row csv", strategy: StrategyJIT, register: csv(tiny), sql: q, reason: fallbackSmallFile,
			detail: "t splits into 1 morsels (need 2)", spans: [][]int{{1}}},
		{name: "one-row memory", strategy: StrategyJIT, sql: q, reason: fallbackSmallFile,
			register: func(e *Engine) error { return e.RegisterMemory("t", tiny.schema, tiny.cols) },
			detail:   "memory table t yields fewer than 2 morsels", spans: [][]int{{1}}},
		{name: "one-row dbms", strategy: StrategyDBMS, register: csv(tiny), sql: q, reason: fallbackSmallFile,
			detail: "loaded table t yields fewer than 2 morsels", spans: [][]int{{1}}, loaded: 1},
		{name: "one-row shreds", strategy: StrategyJIT, register: csv(tiny), warm: q, sql: q, reason: fallbackSmallFile,
			detail: "cached columns of t yield fewer than 2 morsels", spans: [][]int{{1}}},
		{name: "dataset all pruned", strategy: StrategyJIT, warm: q, sql: "SELECT MAX(col2) FROM t WHERE col1 < -5",
			register: dataset(DataPart{Format: catalog.CSV, Data: third[0].csv}, DataPart{Format: catalog.Binary, Data: third[1].bin}),
			reason:   fallbackSmallFile, detail: "every partition of t pruned", spans: [][]int{{0, 0}}},
		{name: "dataset one tiny partition", strategy: StrategyJIT, sql: q, reason: fallbackSmallFile,
			register: dataset(DataPart{Format: catalog.CSV, Data: tiny.csv}),
			detail:   "t yields 1 morsels across its partitions (need 2)", spans: [][]int{{1}}},

		{name: "csv", strategy: StrategyJIT, register: csv(big), sql: q, spans: [][]int{{8}}},
		{name: "json", strategy: StrategyJIT, sql: q, spans: [][]int{{8}},
			register: func(e *Engine) error { return e.RegisterJSONData("t", big.json, big.schema) }},
		{name: "root", strategy: StrategyJIT, register: root, sql: q, spans: [][]int{{8}}},
		{name: "join with a root side", strategy: StrategyJIT, sql: join, spans: [][]int{{8}, {8}},
			register: func(e *Engine) error {
				if err := root(e); err != nil {
					return err
				}
				return e.RegisterCSVData("u", dim.csv, dim.schema)
			}},
		{name: "binary", strategy: StrategyInSitu, sql: q, spans: [][]int{{8}},
			register: func(e *Engine) error { return e.RegisterBinaryData("t", big.bin, big.schema) }},
		{name: "memory", strategy: StrategyShreds, sql: q, spans: [][]int{{8}},
			register: func(e *Engine) error { return e.RegisterMemory("t", big.schema, big.cols) }},
		{name: "dbms", strategy: StrategyDBMS, register: csv(big), sql: q, spans: [][]int{{8}}, loaded: 1},
		{name: "shreds", strategy: StrategyJIT, register: csv(big), warm: q, sql: q, spans: [][]int{{8}}, shreds: true},
		{name: "three partitions", strategy: StrategyJIT, sql: q, spans: [][]int{{1, 3, 2}},
			register: dataset(DataPart{Format: catalog.CSV, Data: third[0].csv},
				DataPart{Format: catalog.JSON, Data: third[1].json}, DataPart{Format: catalog.Binary, Data: third[2].bin})},
		{name: "join, one-span build side", strategy: StrategyJIT, sql: join, spans: [][]int{{8}, {1}},
			register: func(e *Engine) error {
				if err := csv(big)(e); err != nil {
					return err
				}
				return e.RegisterBinaryData("u", tiny.bin, tiny.schema)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, Config{Strategy: tc.strategy, SynopsisBlockRows: 256})
			if err := tc.register(e); err != nil {
				t.Fatal(err)
			}
			if tc.warm != "" {
				queryAt(t, e, tc.warm, 1)
			}
			parsed, err := sql.Parse(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.analyze(parsed)
			if err != nil {
				t.Fatal(err)
			}
			workers := 4
			rec := e.newRecord(Options{Parallelism: &workers, Trace: obs.NewTrace()})
			pc := rec.newPlanCtx(context.Background())
			c, err := pc.decide(r)
			if err != nil {
				t.Fatal(err)
			}
			if c.reason != tc.reason || c.detail != tc.detail || c.par != (tc.reason == "") {
				t.Fatalf("reason %q (%s) par=%v, want %q (%s)", c.reason, c.detail, c.par, tc.reason, tc.detail)
			}
			var got [][]int
			for _, tab := range c.tables {
				var units []int
				for _, u := range tab.units {
					units = append(units, len(u.spans))
					if u.spans != nil && u.whole() != !c.par {
						t.Fatalf("unit %s: spans %v in a plan with par=%v", u.bt.st.tab.Name, u.spans, c.par)
					}
					if (u.shreds != nil) != tc.shreds {
						t.Fatalf("unit %s: shreds %v, want set=%v", u.bt.st.tab.Name, u.shreds, tc.shreds)
					}
				}
				got = append(got, units)
			}
			if !reflect.DeepEqual(got, tc.spans) {
				t.Fatalf("span counts %v, want %v", got, tc.spans)
			}
			if len(c.loaded) != tc.loaded {
				t.Fatalf("loaded %v, want %d table(s)", c.loaded, tc.loaded)
			}
			if !reflect.DeepEqual(rec.stats, Stats{}) {
				t.Fatalf("stats touched: %+v", rec.stats)
			}
			if len(pc.onMerge)+len(pc.tees)+len(rec.probes)+len(rec.scans) != 0 || rec.heat != nil {
				t.Fatalf("hooks registered: merge %d tees %d probes %d scans %d heat %v",
					len(pc.onMerge), len(pc.tees), len(rec.probes), len(rec.scans), rec.heat)
			}
			if spans := rec.trace.Spans(); len(spans) != 0 {
				t.Fatalf("trace holds %d spans", len(spans))
			}
		})
	}
}
