// Observability integration tests: span trees and chrome export over real
// queries, serial-vs-parallel pruning-stat parity, the parallel fallback
// (no phantom spans or counters), lifecycle events through the
// facade, and the trace-overhead benchmark backing the zero-cost-when-off
// contract.
package raw_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"rawdb"
)

// obsSortedCSV renders rows of a three-column CSV whose col1 ascends 0..n-1,
// so zone maps over col1 are maximally effective.
func obsSortedCSV(rows int) []byte {
	var b strings.Builder
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", i, i*2, i%7)
	}
	return []byte(b.String())
}

var obsSchema = []raw.Column{
	{Name: "col1", Type: raw.Int64},
	{Name: "col2", Type: raw.Int64},
	{Name: "col3", Type: raw.Int64},
}

// TestObsStatsSerialParallelParity checks that the serial and morsel-parallel
// plans of the same warm selective query agree on results while reporting
// their prune counters at the documented granularity: the serial plan never
// skips morsels (MorselsSkipped is the parallel planner's counter), the
// serial RowsPruned accounts for every non-matching row (rows inside
// zone-map-skipped blocks included), and the parallel plan reports strictly
// fewer pruned rows/blocks because whole skipped morsels never reach a scan.
func TestObsStatsSerialParallelParity(t *testing.T) {
	const rows = 200000
	data := obsSortedCSV(rows)
	const q = "SELECT COUNT(*) FROM t WHERE col1 < 2000"

	type outcome struct {
		count any
		stats raw.Stats
	}
	run := func(workers int) outcome {
		t.Helper()
		e := raw.NewEngine(raw.Config{
			Strategy:          raw.StrategyJIT,
			Parallelism:       workers,
			DisableShredCache: true,
		})
		if err := e.RegisterCSVData("t", data, obsSchema); err != nil {
			t.Fatal(err)
		}
		// Warm-up builds the positional map and the per-block synopsis.
		if _, err := e.Query("SELECT COUNT(*) FROM t WHERE col1 >= 0"); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{count: res.Value(0, 0), stats: res.Stats}
	}

	serial := run(1)
	parallel := run(8)

	if serial.count != parallel.count || serial.count != any(int64(2000)) {
		t.Fatalf("result mismatch: serial=%v parallel=%v want 2000", serial.count, parallel.count)
	}
	if serial.stats.MorselsSkipped != 0 {
		t.Fatalf("serial plan reported MorselsSkipped=%d, want 0", serial.stats.MorselsSkipped)
	}
	if got, want := serial.stats.RowsPruned, int64(rows-2000); got != want {
		t.Fatalf("serial RowsPruned=%d, want full accounting %d", got, want)
	}
	if serial.stats.BlocksSkipped == 0 {
		t.Fatalf("serial plan skipped no blocks over a sorted key")
	}
	if parallel.stats.MorselsSkipped == 0 {
		t.Fatalf("parallel plan skipped no morsels over a sorted key (stats: %+v)", parallel.stats)
	}
	if parallel.stats.RowsPruned >= serial.stats.RowsPruned {
		t.Fatalf("parallel RowsPruned=%d not below serial %d: skipped-morsel rows must not be recounted",
			parallel.stats.RowsPruned, serial.stats.RowsPruned)
	}
	if parallel.stats.BlocksSkipped >= serial.stats.BlocksSkipped {
		t.Fatalf("parallel BlocksSkipped=%d not below serial %d: only surviving morsels skip blocks",
			parallel.stats.BlocksSkipped, serial.stats.BlocksSkipped)
	}
}

// TestObsParallelFallbackNoPhantoms runs queries the planner cannot cut (one
// tiny partition; a one-row file) at a high worker count. The plan that runs
// must be the only one that leaves a mark: partition/prune counters reflect
// the one-part plan only, the trace holds no morsel or exchange spans, the
// cumulative registry never sees a morsel skip, and what deciding the cut
// loaded is reported by the query that loaded it.
func TestObsParallelFallbackNoPhantoms(t *testing.T) {
	data := obsSortedCSV(1)
	for _, tc := range []struct {
		name     string
		strategy raw.Strategy
		dataset  bool
	}{
		// A single one-row partition yields exactly one morsel, and a dataset
		// needs two across its partitions.
		{"jit-dataset", raw.StrategyJIT, true},
		// The DBMS baseline loads the table to count its rows before it can
		// decline: the first query must still own up to the load.
		{"dbms-csv", raw.StrategyDBMS, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := raw.NewEngine(raw.Config{Strategy: tc.strategy, Parallelism: 4})
			var err error
			if tc.dataset {
				err = e.RegisterDatasetParts("t", []raw.DatasetPart{{Format: raw.FormatCSV, Data: data}}, obsSchema)
			} else {
				err = e.RegisterCSVData("t", data, obsSchema)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ { // twice: phantom counts would accumulate
				tr := raw.NewTrace()
				res, err := e.QueryOpt("SELECT SUM(col2) FROM t WHERE col1 < 100", raw.Options{Trace: tr})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Value(0, 0); got != any(int64(0)) {
					t.Fatalf("run %d: SUM=%v, want 0", i, got)
				}
				s := res.Stats
				if s.ParallelFallback != "small-file" {
					t.Fatalf("run %d: fallback %q, want small-file", i, s.ParallelFallback)
				}
				wantParts := 0
				if tc.dataset {
					wantParts = 1
				}
				if s.PartitionsScanned != wantParts || s.PartitionsSkipped != 0 {
					t.Fatalf("run %d: partitions scanned=%d skipped=%d, want %d/0 (phantom attempt counts?)",
						i, s.PartitionsScanned, s.PartitionsSkipped, wantParts)
				}
				if s.MorselsSkipped != 0 {
					t.Fatalf("run %d: MorselsSkipped=%d on a one-part plan", i, s.MorselsSkipped)
				}
				wantLoaded := 0
				if tc.strategy == raw.StrategyDBMS && i == 0 {
					wantLoaded = 1
				}
				if len(s.LoadedTables) != wantLoaded {
					t.Fatalf("run %d: LoadedTables=%v, want %d table(s)", i, s.LoadedTables, wantLoaded)
				}
				render := tr.Render()
				if strings.Contains(render, "morsel[") || strings.Contains(render, "exchange[") {
					t.Fatalf("run %d: trace holds spans of a plan that did not run:\n%s", i, render)
				}
				if tc.dataset && !strings.Contains(render, "partition(") {
					t.Fatalf("run %d: trace lost the partition span:\n%s", i, render)
				}
			}
			if got := e.Metrics().Snapshot()["prune.morsels"]; got != 0 {
				t.Fatalf("registry prune.morsels=%d after one-part plans, want 0", got)
			}
		})
	}
}

// TestObsTraceAndEvents drives a traced query end to end through the facade:
// the span tree must report the executed operators with row counts, the
// chrome export must be a valid JSON event array, and the engine must emit
// captured lifecycle events (relayed to the OnEvent callback and retained in
// RecentEvents).
func TestObsTraceAndEvents(t *testing.T) {
	data := obsSortedCSV(5000)
	var cbEvents []raw.Event
	e := raw.NewEngine(raw.Config{OnEvent: func(ev raw.Event) { cbEvents = append(cbEvents, ev) }})
	if err := e.RegisterCSVData("t", data, obsSchema); err != nil {
		t.Fatal(err)
	}
	tr := raw.NewTrace()
	res, err := e.QueryOpt("SELECT MAX(col2) FROM t WHERE col1 < 1000", raw.Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value(0, 0); got != any(int64(1998)) {
		t.Fatalf("MAX=%v, want 1998", got)
	}

	render := tr.Render()
	for _, want := range []string{"parse", "plan", "execute", "aggregate", "rows=1"} {
		if !strings.Contains(render, want) {
			t.Fatalf("trace render missing %q:\n%s", want, render)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome export is not a JSON event array: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("chrome export is empty")
	}

	if len(cbEvents) == 0 {
		t.Fatal("OnEvent callback saw no lifecycle events")
	}
	recent := e.RecentEvents()
	if len(recent) != len(cbEvents) {
		t.Fatalf("RecentEvents len=%d, callback len=%d", len(recent), len(cbEvents))
	}
	sawCapture := false
	for _, ev := range recent {
		if ev.Kind == raw.EventCaptured && ev.Table == "t" {
			sawCapture = true
		}
	}
	if !sawCapture {
		t.Fatalf("no captured event for table t in %v", recent)
	}

	// An untraced query on the same engine stays on the nil-trace path.
	if _, err := e.Query("SELECT MAX(col2) FROM t WHERE col1 < 1000"); err != nil {
		t.Fatal(err)
	}
}

// TestObsMetricsRegistry checks the registry's query-level counters through
// the facade: query.count advances per query, prune counters accumulate, and
// the Prometheus exposition carries them.
func TestObsMetricsRegistry(t *testing.T) {
	e := raw.NewEngine(raw.Config{Strategy: raw.StrategyJIT, DisableShredCache: true})
	if err := e.RegisterCSVData("t", obsSortedCSV(5000), obsSchema); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Query("SELECT COUNT(*) FROM t WHERE col1 < 100"); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Metrics().Snapshot()
	if got := snap["query.count"]; got != 3 {
		t.Fatalf("query.count=%d, want 3", got)
	}
	if snap["prune.rows"] == 0 {
		t.Fatal("prune.rows stayed 0 across pushed-down selective scans")
	}
	if snap["query.ns.count"] != 3 || snap["query.ns.p50"] <= 0 {
		t.Fatalf("query.ns histogram not populated: count=%d p50=%d",
			snap["query.ns.count"], snap["query.ns.p50"])
	}
	var text strings.Builder
	if err := raw.WritePrometheus(&text, e.Metrics()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "\nrawdb_query_count 3\n") {
		t.Fatalf("exposition missing query.count:\n%s", text.String())
	}
	// An engine configured without a cache budget still runs under the
	// default one, and exposes it with HELP text.
	if snap["budget.capacity"] != 256<<20 || snap["budget.bytes"] == 0 {
		t.Fatalf("budget.capacity=%d budget.bytes=%d, want the 256 MiB default charging the positional map",
			snap["budget.capacity"], snap["budget.bytes"])
	}
	for _, help := range []string{"# HELP rawdb_budget_bytes bytes charged", "# HELP rawdb_budget_capacity the cache",
		"# HELP rawdb_budget_entries structures charged"} {
		if !strings.Contains(text.String(), help) {
			t.Fatalf("exposition missing %q:\n%s", help, text.String())
		}
	}
}

// BenchmarkTraceOverhead measures the same warm selective aggregate with
// tracing disabled and enabled. The disabled case is the contract the engine
// must keep: WithSpan(op, nil) returns the operator unchanged, so disabled
// tracing adds no per-batch work at all — the two variants here quantify the
// worst-case enabled cost (a clock read and a handful of field updates per
// batch) for the CI smoke run.
func BenchmarkTraceOverhead(b *testing.B) {
	data := obsSortedCSV(100000)
	mk := func() *raw.Engine {
		e := raw.NewEngine(raw.Config{Strategy: raw.StrategyJIT, DisableShredCache: true})
		if err := e.RegisterCSVData("t", data, obsSchema); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Query("SELECT COUNT(*) FROM t WHERE col1 >= 0"); err != nil {
			b.Fatal(err)
		}
		return e
	}
	const q = "SELECT MAX(col2), COUNT(*) FROM t WHERE col1 < 50000"
	b.Run("disabled", func(b *testing.B) {
		e := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		e := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.QueryOpt(q, raw.Options{Trace: raw.NewTrace()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The full observability plane as a production server would run it:
	// structured query log (discarded writer isolates record-building cost
	// from disk) plus the always-on heat profiler and in-flight registry.
	// The ISSUE budget for this variant over "disabled" is <= 2%.
	b.Run("qlog+heat", func(b *testing.B) {
		data := obsSortedCSV(100000)
		e := raw.NewEngine(raw.Config{Strategy: raw.StrategyJIT, DisableShredCache: true,
			QueryLog: raw.NewQueryLog(io.Discard)})
		if err := e.RegisterCSVData("t", data, obsSchema); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Query("SELECT COUNT(*) FROM t WHERE col1 >= 0"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
