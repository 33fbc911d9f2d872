// Benchmarks regenerating the paper's evaluation, one family per table or
// figure (see DESIGN.md for the index). Dataset sizes are laptop-scale; use
// cmd/rawbench for the full sweeps and EXPERIMENTS.md for the shape
// comparison against the published numbers.
//
// Warm benchmarks run the paper's protocol (first query builds positional
// maps) outside the timer and disable the shred cache so every iteration
// measures the same raw-data access work rather than a cache hit; the
// shred-cache effect itself is benchmarked by BenchmarkShredCacheWarm and
// the Higgs family.
package raw_test

import (
	"fmt"
	"sync"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/engine"
	"rawdb/internal/higgs"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/workload"
)

const (
	benchNarrowRows = 20_000
	benchWideRows   = 5_000
	benchJoinRows   = 10_000
	benchHiggsRows  = 10_000
)

var (
	narrowOnce sync.Once
	narrowDS   *workload.Dataset
	wideOnce   sync.Once
	wideDS     *workload.Dataset
	joinOnce   sync.Once
	joinF1     *workload.Dataset
	joinF2     *workload.Dataset
	higgsOnce  sync.Once
	higgsData  *higgs.Data
	eventsOnce sync.Once
	eventsData *workload.Dataset
)

func narrow(b *testing.B) *workload.Dataset {
	b.Helper()
	narrowOnce.Do(func() {
		var err error
		narrowDS, err = workload.Narrow(benchNarrowRows, 1)
		if err != nil {
			panic(err)
		}
	})
	return narrowDS
}

func wide(b *testing.B) *workload.Dataset {
	b.Helper()
	wideOnce.Do(func() {
		var err error
		wideDS, err = workload.Wide(benchWideRows, 2)
		if err != nil {
			panic(err)
		}
	})
	return wideDS
}

func joinPair(b *testing.B) (*workload.Dataset, *workload.Dataset) {
	b.Helper()
	joinOnce.Do(func() {
		var err error
		joinF1, joinF2, err = workload.NarrowShuffledPair(benchJoinRows, 3)
		if err != nil {
			panic(err)
		}
	})
	return joinF1, joinF2
}

func eventsDS(b *testing.B) *workload.Dataset {
	b.Helper()
	eventsOnce.Do(func() {
		var err error
		eventsData, err = workload.Events(benchNarrowRows, 4)
		if err != nil {
			panic(err)
		}
	})
	return eventsData
}

func higgsDS(b *testing.B) *higgs.Data {
	b.Helper()
	higgsOnce.Do(func() {
		var err error
		higgsData, err = higgs.Generate(higgs.Params{Events: benchHiggsRows, Runs: 100, Compress: true, Seed: 7})
		if err != nil {
			panic(err)
		}
	})
	return higgsData
}

func benchEngine(b *testing.B, ds *workload.Dataset, format string, strat engine.Strategy,
	everyK int) *engine.Engine {
	b.Helper()
	e := engine.New(engine.Config{
		Strategy:          strat,
		PosMapPolicy:      posmap.Policy{EveryK: everyK},
		DisableShredCache: true,
	})
	var err error
	switch format {
	case "csv":
		err = e.RegisterCSVData("t", ds.CSV, ds.Schema)
	case "json":
		err = e.RegisterJSONData("t", ds.JSONL, ds.Schema)
	default:
		err = e.RegisterBinaryData("t", ds.Bin, ds.Schema)
	}
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func mustQuery(b *testing.B, e *engine.Engine, q string) {
	b.Helper()
	if _, err := e.Query(q); err != nil {
		b.Fatal(err)
	}
}

func q1For(sel float64) string {
	return fmt.Sprintf("SELECT MAX(col1) FROM t WHERE col1 < %d", workload.Threshold(sel))
}

func q2For(sel float64) string {
	return fmt.Sprintf("SELECT MAX(col11) FROM t WHERE col1 < %d", workload.Threshold(sel))
}

// --- Figure 1a: cold first query over CSV ---------------------------------

func benchFig1aCold(b *testing.B, strat engine.Strategy) {
	ds := narrow(b)
	b.SetBytes(int64(len(ds.CSV)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := benchEngine(b, ds, "csv", strat, 10)
		mustQuery(b, e, q1For(0.5))
	}
}

func BenchmarkFig1a_DBMS(b *testing.B)     { benchFig1aCold(b, engine.StrategyDBMS) }
func BenchmarkFig1a_External(b *testing.B) { benchFig1aCold(b, engine.StrategyExternal) }
func BenchmarkFig1a_InSitu(b *testing.B)   { benchFig1aCold(b, engine.StrategyInSitu) }
func BenchmarkFig1a_JIT(b *testing.B)      { benchFig1aCold(b, engine.StrategyJIT) }

// --- Figure 1b: warm second query over CSV --------------------------------

func benchFig1bWarm(b *testing.B, strat engine.Strategy, everyK int) {
	ds := narrow(b)
	e := benchEngine(b, ds, "csv", strat, everyK)
	mustQuery(b, e, q1For(0.4))
	q := q2For(0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustQuery(b, e, q)
	}
}

func BenchmarkFig1b_DBMS(b *testing.B)       { benchFig1bWarm(b, engine.StrategyDBMS, 10) }
func BenchmarkFig1b_InSitu(b *testing.B)     { benchFig1bWarm(b, engine.StrategyInSitu, 10) }
func BenchmarkFig1b_JIT(b *testing.B)        { benchFig1bWarm(b, engine.StrategyJIT, 10) }
func BenchmarkFig1b_InSituCol7(b *testing.B) { benchFig1bWarm(b, engine.StrategyInSitu, 7) }
func BenchmarkFig1b_JITCol7(b *testing.B)    { benchFig1bWarm(b, engine.StrategyJIT, 7) }

// --- Figure 2: warm second query over binary ------------------------------

func benchFig2(b *testing.B, strat engine.Strategy) {
	ds := narrow(b)
	e := benchEngine(b, ds, "bin", strat, 10)
	mustQuery(b, e, q1For(0.4))
	q := q2For(0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustQuery(b, e, q)
	}
}

func BenchmarkFig2_InSitu(b *testing.B) { benchFig2(b, engine.StrategyInSitu) }
func BenchmarkFig2_JIT(b *testing.B)    { benchFig2(b, engine.StrategyJIT) }
func BenchmarkFig2_DBMS(b *testing.B)   { benchFig2(b, engine.StrategyDBMS) }

// --- Figures 5/6: full vs shredded columns --------------------------------

func benchFullVsShreds(b *testing.B, format string, strat engine.Strategy, sel float64) {
	ds := narrow(b)
	e := benchEngine(b, ds, format, strat, 10)
	mustQuery(b, e, q1For(sel))
	q := q2For(sel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustQuery(b, e, q)
	}
}

func BenchmarkFig5_CSV_Full_Sel10(b *testing.B) {
	benchFullVsShreds(b, "csv", engine.StrategyJIT, 0.1)
}
func BenchmarkFig5_CSV_Shreds_Sel10(b *testing.B) {
	benchFullVsShreds(b, "csv", engine.StrategyShreds, 0.1)
}
func BenchmarkFig5_CSV_Full_Sel90(b *testing.B) {
	benchFullVsShreds(b, "csv", engine.StrategyJIT, 0.9)
}
func BenchmarkFig5_CSV_Shreds_Sel90(b *testing.B) {
	benchFullVsShreds(b, "csv", engine.StrategyShreds, 0.9)
}
func BenchmarkFig6_Bin_Full_Sel10(b *testing.B) {
	benchFullVsShreds(b, "bin", engine.StrategyJIT, 0.1)
}
func BenchmarkFig6_Bin_Shreds_Sel10(b *testing.B) {
	benchFullVsShreds(b, "bin", engine.StrategyShreds, 0.1)
}

// --- Table 2 / Figures 7-8: wide table ------------------------------------

func benchTable2(b *testing.B, format string, strat engine.Strategy) {
	ds := wide(b)
	q := fmt.Sprintf("SELECT MAX(col1) FROM t WHERE col1 < %d", workload.Threshold(0.5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := benchEngine(b, ds, format, strat, 10)
		mustQuery(b, e, q)
	}
}

func BenchmarkTable2_CSV_DBMS(b *testing.B)   { benchTable2(b, "csv", engine.StrategyDBMS) }
func BenchmarkTable2_CSV_Full(b *testing.B)   { benchTable2(b, "csv", engine.StrategyJIT) }
func BenchmarkTable2_CSV_Shreds(b *testing.B) { benchTable2(b, "csv", engine.StrategyShreds) }
func BenchmarkTable2_Bin_DBMS(b *testing.B)   { benchTable2(b, "bin", engine.StrategyDBMS) }
func BenchmarkTable2_Bin_Full(b *testing.B)   { benchTable2(b, "bin", engine.StrategyJIT) }
func BenchmarkTable2_Bin_Shreds(b *testing.B) { benchTable2(b, "bin", engine.StrategyShreds) }

func benchWideQ2(b *testing.B, format string, strat engine.Strategy) {
	ds := wide(b)
	e := benchEngine(b, ds, format, strat, 10)
	mustQuery(b, e, fmt.Sprintf("SELECT MAX(col1) FROM t WHERE col1 < %d", workload.Threshold(0.2)))
	q := fmt.Sprintf("SELECT MAX(col12) FROM t WHERE col1 < %d", workload.Threshold(0.2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustQuery(b, e, q)
	}
}

func BenchmarkFig7_CSV_DBMS(b *testing.B)   { benchWideQ2(b, "csv", engine.StrategyDBMS) }
func BenchmarkFig7_CSV_Full(b *testing.B)   { benchWideQ2(b, "csv", engine.StrategyJIT) }
func BenchmarkFig7_CSV_Shreds(b *testing.B) { benchWideQ2(b, "csv", engine.StrategyShreds) }
func BenchmarkFig8_Bin_DBMS(b *testing.B)   { benchWideQ2(b, "bin", engine.StrategyDBMS) }
func BenchmarkFig8_Bin_Full(b *testing.B)   { benchWideQ2(b, "bin", engine.StrategyJIT) }
func BenchmarkFig8_Bin_Shreds(b *testing.B) { benchWideQ2(b, "bin", engine.StrategyShreds) }

// --- Figure 9: multi-column shreds -----------------------------------------

func benchFig9(b *testing.B, strat engine.Strategy, multi bool) {
	ds := narrow(b)
	e := engine.New(engine.Config{
		Strategy:          strat,
		PosMapPolicy:      posmap.Policy{Extra: []int{0, 9}},
		MultiColumnShreds: multi,
		DisableShredCache: true,
	})
	if err := e.RegisterCSVData("t", ds.CSV, ds.Schema); err != nil {
		b.Fatal(err)
	}
	mustQuery(b, e, q1For(0.4))
	x := workload.Threshold(0.4)
	q := fmt.Sprintf("SELECT MAX(col6) FROM t WHERE col1 < %d AND col5 < %d", x, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustQuery(b, e, q)
	}
}

func BenchmarkFig9_Full(b *testing.B)        { benchFig9(b, engine.StrategyJIT, false) }
func BenchmarkFig9_Shreds(b *testing.B)      { benchFig9(b, engine.StrategyShreds, false) }
func BenchmarkFig9_MultiShreds(b *testing.B) { benchFig9(b, engine.StrategyShreds, true) }

// --- Figures 11/12: join placements ----------------------------------------

func benchJoin(b *testing.B, aggSide int, place engine.JoinPlacement) {
	f1, f2 := joinPair(b)
	e := engine.New(engine.Config{
		Strategy:          engine.StrategyShreds,
		PosMapPolicy:      posmap.Policy{EveryK: 10},
		JoinPlacement:     place,
		DisableShredCache: true,
	})
	if err := e.RegisterCSVData("file1", f1.CSV, f1.Schema); err != nil {
		b.Fatal(err)
	}
	if err := e.RegisterCSVData("file2", f2.CSV, f2.Schema); err != nil {
		b.Fatal(err)
	}
	mustQuery(b, e, "SELECT MAX(col1) FROM file1 WHERE col1 >= 0")
	mustQuery(b, e, "SELECT MAX(col1) FROM file2 WHERE col2 >= 0")
	alias := []string{"f1", "f2"}[aggSide]
	q := fmt.Sprintf(
		"SELECT MAX(%s.col11) FROM file1 f1, file2 f2 WHERE f1.col1 = f2.col1 AND f2.col2 < %d",
		alias, workload.Threshold(0.4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustQuery(b, e, q)
	}
}

func BenchmarkFig11_Pipelined_Early(b *testing.B) { benchJoin(b, 0, engine.PlaceEarly) }
func BenchmarkFig11_Pipelined_Late(b *testing.B)  { benchJoin(b, 0, engine.PlaceLate) }
func BenchmarkFig12_Breaking_Early(b *testing.B)  { benchJoin(b, 1, engine.PlaceEarly) }
func BenchmarkFig12_Breaking_Intermediate(b *testing.B) {
	benchJoin(b, 1, engine.PlaceIntermediate)
}
func BenchmarkFig12_Breaking_Late(b *testing.B) { benchJoin(b, 1, engine.PlaceLate) }

// --- Table 3: Higgs ---------------------------------------------------------

func BenchmarkTable3_Handwritten_Cold(b *testing.B) {
	d := higgsDS(b)
	f, err := rootfile.Parse(d.RootImage)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		f.DropCaches()
		if _, err := higgs.Handwritten(f, d.GoodRuns); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_Handwritten_Warm(b *testing.B) {
	d := higgsDS(b)
	f, err := rootfile.Parse(d.RootImage)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := higgs.Handwritten(f, d.GoodRuns); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := higgs.Handwritten(f, d.GoodRuns); err != nil {
			b.Fatal(err)
		}
	}
}

func higgsEngine(b *testing.B, d *higgs.Data) *engine.Engine {
	b.Helper()
	e := engine.New(engine.Config{Strategy: engine.StrategyShreds, PosMapPolicy: posmap.Policy{EveryK: 1}})
	if _, err := higgs.Register(e, d); err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkTable3_RAW_Cold(b *testing.B) {
	d := higgsDS(b)
	e := higgsEngine(b, d)
	for i := 0; i < b.N; i++ {
		e.DropCaches()
		if _, err := higgs.RunRAW(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_RAW_Warm(b *testing.B) {
	d := higgsDS(b)
	e := higgsEngine(b, d)
	if _, err := higgs.RunRAW(e); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := higgs.RunRAW(e); err != nil {
			b.Fatal(err)
		}
	}
}

// --- JSON adapter: cold vs warm scans against CSV on identical rows --------
//
// The narrow dataset is serialised as both CSV and flat JSONL, so each pair
// of benchmarks measures the same logical work through different raw
// formats. Cold runs a fresh engine per iteration (sequential scan, index
// construction); Warm runs the paper's protocol (first query outside the
// timer builds the positional map / structural index, shred cache disabled)
// so every iteration measures index-navigated raw access; ShredHot keeps
// the shred cache on, the fully adapted steady state.

func benchJSONCold(b *testing.B, format string) {
	ds := narrow(b)
	raw := ds.CSV
	if format == "json" {
		raw = ds.JSONL
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := benchEngine(b, ds, format, engine.StrategyShreds, 10)
		mustQuery(b, e, q1For(0.5))
	}
}

func BenchmarkJSONAdapter_Cold_CSV(b *testing.B)  { benchJSONCold(b, "csv") }
func BenchmarkJSONAdapter_Cold_JSON(b *testing.B) { benchJSONCold(b, "json") }

func benchJSONWarm(b *testing.B, format string) {
	ds := narrow(b)
	e := benchEngine(b, ds, format, engine.StrategyShreds, 10)
	mustQuery(b, e, q1For(0.4))
	q := q2For(0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustQuery(b, e, q)
	}
}

func BenchmarkJSONAdapter_Warm_CSV(b *testing.B)  { benchJSONWarm(b, "csv") }
func BenchmarkJSONAdapter_Warm_JSON(b *testing.B) { benchJSONWarm(b, "json") }

func BenchmarkJSONAdapter_ShredHot_JSON(b *testing.B) {
	ds := narrow(b)
	e := engine.New(engine.Config{Strategy: engine.StrategyShreds})
	if err := e.RegisterJSONData("t", ds.JSONL, ds.Schema); err != nil {
		b.Fatal(err)
	}
	q := q2For(0.4)
	mustQuery(b, e, q1For(0.4))
	mustQuery(b, e, q) // populate shreds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustQuery(b, e, q)
	}
}

// BenchmarkJSONAdapter_Nested_* isolate the cost of nested-path navigation:
// the events table reads one flat and one payload-nested column.

func BenchmarkJSONAdapter_Nested_Cold(b *testing.B) {
	ds := eventsDS(b)
	b.SetBytes(int64(len(ds.JSONL)))
	q := "SELECT MAX(payload.energy) FROM t WHERE id < 5000"
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.Config{Strategy: engine.StrategyShreds, DisableShredCache: true})
		if err := e.RegisterJSONData("t", ds.JSONL, ds.Schema); err != nil {
			b.Fatal(err)
		}
		mustQuery(b, e, q)
	}
}

func BenchmarkJSONAdapter_Nested_Warm(b *testing.B) {
	ds := eventsDS(b)
	e := engine.New(engine.Config{Strategy: engine.StrategyShreds, DisableShredCache: true})
	if err := e.RegisterJSONData("t", ds.JSONL, ds.Schema); err != nil {
		b.Fatal(err)
	}
	mustQuery(b, e, "SELECT MAX(payload.energy) FROM t WHERE id < 5000")
	// Filtering on payload.eta routes it through the base via-index scan,
	// which records its offsets adaptively; the timed query then reads the
	// nested column straight from recorded offsets.
	mustQuery(b, e, "SELECT COUNT(*) FROM t WHERE payload.eta >= -1000000.0")
	q := "SELECT MAX(payload.eta) FROM t WHERE id < 5000"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustQuery(b, e, q)
	}
}

// --- Morsel-driven parallel scans -------------------------------------------
//
// Cold aggregate scans over the narrow table with the worker count swept:
// each iteration builds a fresh engine (no positional map, no shreds), so
// the measurement covers the tokenize/parse/convert work the morsel workers
// split. Speedup over workers=1 tracks available cores (near-linear on
// multicore hosts; ~1x when GOMAXPROCS=1).

func benchParallelScan(b *testing.B, format string, workers int) {
	ds := narrow(b)
	rawBytes := ds.CSV
	if format == "json" {
		rawBytes = ds.JSONL
	}
	q := "SELECT MIN(col1), MAX(col1), COUNT(*) FROM t WHERE col1 >= 0"
	b.SetBytes(int64(len(rawBytes)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.Config{
			Strategy:          engine.StrategyJIT,
			PosMapPolicy:      posmap.Policy{EveryK: 10},
			Parallelism:       workers,
			DisableShredCache: true,
		})
		var err error
		if format == "csv" {
			err = e.RegisterCSVData("t", ds.CSV, ds.Schema)
		} else {
			err = e.RegisterJSONData("t", ds.JSONL, ds.Schema)
		}
		if err != nil {
			b.Fatal(err)
		}
		mustQuery(b, e, q)
	}
}

func BenchmarkParallelScanCSV(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchParallelScan(b, "csv", w) })
	}
}

func BenchmarkParallelScanJSON(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchParallelScan(b, "json", w) })
	}
}

// --- Partitioned datasets: one logical table over N raw files -------------
//
// Cold aggregate scans over the same rows split across 1/4/16 partitions
// (fresh engine per iteration), serial and at 4 workers — the worker case
// exercises the cross-partition morsel interleave, and any per-partition
// planning overhead shows up as the gap against parts=1.

func benchPartitionedScan(b *testing.B, format string, parts, workers int) {
	ds := narrow(b)
	rawBytes := ds.CSV
	if format == "json" {
		rawBytes = ds.JSONL
	}
	pf := catalog.CSV
	if format == "json" {
		pf = catalog.JSON
	}
	chunks := workload.SplitRows(rawBytes, parts)
	dparts := make([]engine.DataPart, len(chunks))
	for i, c := range chunks {
		dparts[i] = engine.DataPart{Format: pf, Data: c}
	}
	q := "SELECT MIN(col1), MAX(col1), COUNT(*) FROM t WHERE col1 >= 0"
	b.SetBytes(int64(len(rawBytes)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.Config{
			Strategy:          engine.StrategyJIT,
			PosMapPolicy:      posmap.Policy{EveryK: 10},
			Parallelism:       workers,
			DisableShredCache: true,
		})
		if err := e.RegisterDatasetParts("t", dparts, ds.Schema); err != nil {
			b.Fatal(err)
		}
		mustQuery(b, e, q)
	}
}

func BenchmarkPartitionedScanCSV(b *testing.B) {
	for _, parts := range []int{1, 4, 16} {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("parts=%d/workers=%d", parts, w),
				func(b *testing.B) { benchPartitionedScan(b, "csv", parts, w) })
		}
	}
}

func BenchmarkPartitionedScanJSON(b *testing.B) {
	for _, parts := range []int{1, 4, 16} {
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("parts=%d/workers=%d", parts, w),
				func(b *testing.B) { benchPartitionedScan(b, "json", parts, w) })
		}
	}
}

// --- Predicate pushdown: selective cold scans, absorbed vs Filter-above ----
//
// Each iteration builds a fresh engine (shred cache off: capture and in-scan
// pruning are mutually exclusive, and these benchmarks measure the pruning
// side) and runs a 1%-selectivity query reading eight output columns, so a
// failing inlined predicate short-circuits real conversion work. The off/on
// sub-benchmarks differ only in DisablePushdown/DisableZoneMaps.

func benchPushdown(b *testing.B, format string, disable bool) {
	ds := narrow(b)
	rawBytes := ds.CSV
	switch format {
	case "json":
		rawBytes = ds.JSONL
	case "bin":
		rawBytes = ds.Bin
	}
	q := fmt.Sprintf("SELECT MAX(col11), MAX(col12), MAX(col13), MAX(col14), "+
		"MAX(col15), MAX(col16), MAX(col17), MAX(col18) FROM t WHERE col1 < %d",
		workload.Threshold(0.01))
	b.SetBytes(int64(len(rawBytes)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := engine.New(engine.Config{
			Strategy:          engine.StrategyJIT,
			PosMapPolicy:      posmap.Policy{EveryK: 10},
			DisableShredCache: true,
			DisablePushdown:   disable,
			DisableZoneMaps:   disable,
		})
		var err error
		switch format {
		case "csv":
			err = e.RegisterCSVData("t", ds.CSV, ds.Schema)
		case "json":
			err = e.RegisterJSONData("t", ds.JSONL, ds.Schema)
		default:
			err = e.RegisterBinaryData("t", ds.Bin, ds.Schema)
		}
		if err != nil {
			b.Fatal(err)
		}
		mustQuery(b, e, q)
	}
}

func BenchmarkPushdownCSV(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchPushdown(b, "csv", true) })
	b.Run("on", func(b *testing.B) { benchPushdown(b, "csv", false) })
}

func BenchmarkPushdownJSON(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchPushdown(b, "json", true) })
	b.Run("on", func(b *testing.B) { benchPushdown(b, "json", false) })
}

func BenchmarkPushdownBin(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchPushdown(b, "bin", true) })
	b.Run("on", func(b *testing.B) { benchPushdown(b, "bin", false) })
}

// --- Shred cache: warm repeated query (the RAW warm-path effect) -----------

func BenchmarkShredCacheWarm(b *testing.B) {
	ds := narrow(b)
	e := engine.New(engine.Config{Strategy: engine.StrategyShreds, PosMapPolicy: posmap.Policy{EveryK: 10}})
	if err := e.RegisterCSVData("t", ds.CSV, ds.Schema); err != nil {
		b.Fatal(err)
	}
	q := q2For(0.4)
	mustQuery(b, e, q1For(0.4))
	mustQuery(b, e, q) // populate shreds
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustQuery(b, e, q)
	}
}
