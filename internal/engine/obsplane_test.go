package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rawdb/internal/catalog"
	"rawdb/internal/faults"
	"rawdb/internal/obs"
	"rawdb/internal/vector"
)

// Tests for the production observability plane: the structured query log,
// query-ID threading, the in-flight registry with cancellation, fault and
// retry lifecycle events, and the workload-heat profiler.

func TestQueryLogRecords(t *testing.T) {
	csvData, _, schema, _ := testData(t, 500, 3, 7)
	var buf bytes.Buffer
	e := newTestEngine(t, Config{QueryLog: obs.NewQueryLog(&buf)})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	q := "SELECT MAX(col2) FROM t WHERE col1 < 500000000"
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT FROM nonsense ("); err == nil {
		t.Fatal("bad SQL succeeded")
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("query log lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	var recs []obs.QueryRecord
	for i, line := range lines {
		var rec obs.QueryRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		recs = append(recs, rec)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].ID <= recs[i-1].ID {
			t.Fatalf("query IDs not increasing: %d then %d", recs[i-1].ID, recs[i].ID)
		}
	}
	first := recs[0]
	if first.ID != res.Stats.QueryID {
		t.Fatalf("log ID %d != Stats.QueryID %d", first.ID, res.Stats.QueryID)
	}
	if first.SQLHash != obs.HashSQL(q) || first.SQL != q {
		t.Fatalf("sql identity wrong: %+v", first)
	}
	if len(first.Tables) != 1 || first.Tables[0] != "t" {
		t.Fatalf("tables = %v", first.Tables)
	}
	if first.Rows != 1 { // single-row aggregate
		t.Fatalf("rows = %d, want 1", first.Rows)
	}
	if first.ElapsedNS <= 0 {
		t.Fatal("elapsed missing")
	}
	for _, phase := range []string{"parse", "analyze", "plan", "exec", "publish"} {
		if _, ok := first.PhaseNS[phase]; !ok {
			t.Fatalf("phase %q missing from %v", phase, first.PhaseNS)
		}
	}
	if len(first.AccessPaths) == 0 {
		t.Fatalf("access paths missing: %+v", first)
	}
	if first.Error != "" {
		t.Fatalf("unexpected error on success record: %q", first.Error)
	}
	bad := recs[2]
	if bad.Error == "" {
		t.Fatal("parse-error record carries no error")
	}
	if len(bad.Tables) != 0 || bad.Rows != 0 || len(bad.PhaseNS) != 1 {
		t.Fatalf("parse-error record = %+v", bad)
	}
	if ts, err := time.Parse(time.RFC3339Nano, first.Time); err != nil || ts.IsZero() {
		t.Fatalf("record time %q: %v", first.Time, err)
	}
}

func TestQueryIDInTraceAndEvents(t *testing.T) {
	csvData, _, schema, _ := testData(t, 500, 3, 8)
	e := newTestEngine(t, Config{})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	res, err := e.QueryOpt("SELECT MAX(col2) FROM t WHERE col1 < 500000000", Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.QueryID <= 0 {
		t.Fatalf("QueryID = %d", res.Stats.QueryID)
	}
	if want := fmt.Sprintf("query=%d", res.Stats.QueryID); !strings.Contains(tr.Render(), want) {
		t.Fatalf("trace render missing %q:\n%s", want, tr.Render())
	}
	var captured bool
	for _, ev := range e.RecentEvents() {
		if ev.Kind == obs.EventCaptured {
			captured = true
			if ev.Query != res.Stats.QueryID {
				t.Fatalf("captured event query=%d, want %d", ev.Query, res.Stats.QueryID)
			}
			if !strings.Contains(ev.String(), "query=") {
				t.Fatalf("event string lacks query id: %s", ev.String())
			}
		}
	}
	if !captured {
		t.Fatal("no captured event to check")
	}

	// A query the planner keeps on one part raises its fallback event from
	// run: it carries the query's ID too.
	if err := e.RegisterCSVData("one", []byte("1,2,3\n"), catalogColumns3()); err != nil {
		t.Fatal(err)
	}
	workers := 4
	res, err = e.QueryOpt("SELECT MAX(col2) FROM one", Options{Parallelism: &workers})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ParallelFallback == "" {
		t.Fatalf("a 1-row table ran %d workers without a fallback", workers)
	}
	var fallback bool
	for _, ev := range e.RecentEvents() {
		if ev.Kind == obs.EventFallback {
			fallback = true
			if ev.Query != res.Stats.QueryID {
				t.Fatalf("fallback event query=%d, want %d", ev.Query, res.Stats.QueryID)
			}
		}
	}
	if !fallback {
		t.Fatal("no fallback event to check")
	}
}

// TestQueryLogFailedQueryKeepsWork checks the log line of a query that fails
// mid-scan: it is derived from the same record as a success's, so it carries
// the phases the query went through and the access paths it planned.
func TestQueryLogFailedQueryKeepsWork(t *testing.T) {
	for _, strat := range []Strategy{StrategyInSitu, StrategyJIT} {
		t.Run(strat.String(), func(t *testing.T) {
			var buf bytes.Buffer
			e := newTestEngine(t, Config{Strategy: strat, QueryLog: obs.NewQueryLog(&buf)})
			if err := e.RegisterCSVData("t", badMidCSV(50), catalogColumns3()); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Query("SELECT MAX(col2) FROM t WHERE col1 < 1000000"); err == nil {
				t.Fatal("query over a corrupt file succeeded")
			}
			var rec obs.QueryRecord
			if err := json.Unmarshal(bytes.TrimRight(buf.Bytes(), "\n"), &rec); err != nil {
				t.Fatalf("bad record: %v\n%s", err, buf.String())
			}
			if rec.Error == "" {
				t.Fatalf("failed query logged no error: %+v", rec)
			}
			for _, phase := range []string{"parse", "analyze", "plan", "exec"} {
				if _, ok := rec.PhaseNS[phase]; !ok {
					t.Fatalf("phase %q missing from the failed query's %v", phase, rec.PhaseNS)
				}
			}
			if len(rec.AccessPaths) == 0 || len(rec.Tables) != 1 || rec.Tables[0] != "t" {
				t.Fatalf("failed query's record lost what it did: %+v", rec)
			}
		})
	}
}

// TestQueryLogViewsAgree runs one sequence of queries with a query log
// attached — cold, warm, pushdown-pruned, zone-skipped, morsel-skipped, a
// serial all-cached scan zone-skipping with pushdown on and off, a
// 3-partition dataset with pruned partitions, a mid-scan failure and a
// partial shred completed from the raw file — and checks that the views of
// the query record agree:
// the registry deltas are the sums over the log, every line's phases sum to
// at most its elapsed time and equal the query's Stats, every single-file
// table's heat accounts for each scan's bytes as read or avoided, and the
// all-cached scan's rows are emitted or pruned, with skipped blocks counted.
func TestQueryLogViewsAgree(t *testing.T) {
	var buf bytes.Buffer
	e := newTestEngine(t, Config{Strategy: StrategyJIT, SynopsisBlockRows: 256,
		QueryLog: obs.NewQueryLog(&buf)})
	g := goldenTable(t, 3000, 0)
	var parts []DataPart
	for i := int64(0); i < 3; i++ {
		parts = append(parts, DataPart{Format: catalog.CSV, Data: goldenTable(t, 1000, 1000*i).csv})
	}
	csvData, _, schema, vals := testData(t, 400, 6, 204)
	for _, err := range []error{
		e.RegisterCSVData("t", g.csv, g.schema),
		e.RegisterDatasetParts("d", parts, g.schema),
		e.RegisterCSVData("bad", badMidCSV(50), catalogColumns3()),
		e.RegisterCSVData("s", csvData, schema),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}

	noCapture, one, four, shreds, noPush := true, 1, 4, StrategyShreds, false
	completed := obs.NewTrace()
	// The serial all-cached scan, pushdown on and off: its zone map skips
	// the ranges col1 < 600 rules out.
	resident := []*obs.Trace{obs.NewTrace(), obs.NewTrace()}
	type step struct {
		sql  string
		opts Options
	}
	steps := []step{
		{"SELECT MAX(col2) FROM t WHERE col1 < 600", Options{}}, // cold
		{"SELECT MAX(col2) FROM t WHERE col1 < 600", Options{}}, // warm, pruned over shreds
		{"SELECT MAX(col2) FROM t WHERE col1 < 600", Options{Parallelism: &one, Trace: resident[0]}},
		{"SELECT MAX(col2) FROM t WHERE col1 < 600", Options{Parallelism: &one, Pushdown: &noPush, Trace: resident[1]}},
		{"SELECT MIN(col5) FROM t WHERE col1 < 600", Options{NoCapture: &noCapture, Parallelism: &one}},
		{"SELECT MIN(col5) FROM t WHERE col1 < 600", Options{NoCapture: &noCapture, Parallelism: &four}},
		{"SELECT MAX(col2) FROM d WHERE col1 < 600", Options{}},
		{"SELECT MAX(col2) FROM d WHERE col1 < 600", Options{}}, // zone maps prune two partitions
		// Fails at the garbage row, after the pushed predicate pruned rows.
		{"SELECT MAX(col2) FROM bad WHERE col1 < 10", Options{NoCapture: &noCapture}},
	}
	for _, q := range partialShredWarmup("s") {
		steps = append(steps, step{q, Options{Strategy: &shreds}})
	}
	steps = append(steps, step{"SELECT MAX(col3) FROM s WHERE col1 < 900000000",
		Options{Strategy: &shreds, Trace: completed}})
	before := e.Metrics().Snapshot()
	var last map[string]int64
	stats := make(map[int64]Stats)
	for i, st := range steps {
		if i == len(steps)-1 {
			last = e.Metrics().Snapshot()
		}
		res, err := e.QueryOpt(st.sql, st.opts)
		if (err != nil) != strings.Contains(st.sql, "bad") {
			t.Fatalf("%s: %v", st.sql, err)
		}
		if res != nil {
			stats[res.Stats.QueryID] = res.Stats
		}
	}
	if completed.Find("replan: shred miss") != nil {
		t.Fatal("the partial-shred query replanned")
	}
	// Every row of the resident scan is accounted for: emitted, or pruned by
	// the predicates or inside a skipped range.
	for i, tr := range resident {
		sp := tr.Find("shred:scan(t)")
		if sp == nil {
			t.Fatalf("resident scan %d: no shred:scan(t) span in\n%s", i, tr.Render())
		}
		attrs := make(map[string]string)
		for _, a := range sp.Attrs() {
			attrs[a.Key] = a.Val
		}
		if got := fmt.Sprint(3000 - sp.Rows()); attrs["rows_pruned"] != got ||
			attrs["blocks_skipped"] == "" || attrs["blocks_skipped"] == "0" {
			t.Fatalf("resident scan %d: %d rows out, attributes %v; want rows_pruned=%s and blocks skipped",
				i, sp.Rows(), sp.Attrs(), got)
		}
	}
	after := e.Metrics().Snapshot()
	// The completed query folded the registry once, as a success, and counts
	// the rows its partial col3 shred lacked.
	_, held := refMaxWhere(vals, 2, 0, 100_000_000)
	_, needed := refMaxWhere(vals, 2, 0, 900_000_000)
	for name, want := range map[string]int64{"query.count": 1, "query.errors": 0,
		"shred.fill.rows": int64(needed - held)} {
		if got := after[name] - last[name]; got != want {
			t.Fatalf("the partial-shred query moved %s by %d, want %d", name, got, want)
		}
	}

	sums := make(map[string]int64)
	partName := regexp.MustCompile(`\w+#part\d+`)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(steps) {
		t.Fatalf("%d log lines for %d queries", len(lines), len(steps))
	}
	for _, line := range lines {
		var rec obs.QueryRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Error != "" {
			sums["query.errors"]++
		} else {
			sums["query.count"]++
		}
		sums["push.preds"] += int64(rec.PredsPushed)
		sums["prune.rows"] += rec.RowsPruned
		sums["prune.blocks"] += rec.BlocksSkip
		sums["prune.morsels"] += rec.MorselsSkip
		sums["prune.partitions"] += int64(rec.PartsSkip)
		scanned := make(map[string]bool)
		for _, ap := range rec.AccessPaths {
			for _, p := range partName.FindAllString(ap, -1) {
				scanned[p] = true
			}
		}
		sums["scan.partitions"] += int64(len(scanned))

		var phases int64
		for _, ns := range rec.PhaseNS {
			phases += ns
		}
		if phases > rec.ElapsedNS {
			t.Fatalf("query %d: phases sum to %d ns, elapsed %d ns", rec.ID, phases, rec.ElapsedNS)
		}
		s, ok := stats[rec.ID]
		if !ok {
			continue
		}
		for name, d := range map[string]time.Duration{"parse": s.PhaseParse, "analyze": s.PhaseAnalyze,
			"plan": s.PhasePlan, "exec": s.PhaseExec, "publish": s.PhasePublish} {
			if ns, ok := rec.PhaseNS[name]; !ok || ns != d.Nanoseconds() {
				t.Fatalf("query %d: Stats %s = %d ns, log %v", rec.ID, name, d.Nanoseconds(), rec.PhaseNS)
			}
		}
	}
	for name, sum := range sums {
		if got := after[name] - before[name]; got != sum {
			t.Fatalf("registry %s grew by %d, the log sums to %d", name, got, sum)
		}
	}
	for _, name := range []string{"query.errors", "push.preds", "prune.rows", "prune.blocks",
		"prune.morsels", "prune.partitions", "scan.partitions"} {
		if sums[name] == 0 {
			t.Fatalf("the sequence exercised no %s: %v", name, sums)
		}
	}

	for _, th := range e.Heat().Snapshot().Tables {
		if th.Table == "d" {
			continue // pruned partitions are avoided without a scan
		}
		st, err := e.state(th.Table)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := st.src.stat()
		if th.Scans == 0 || th.BytesRead+th.BytesAvoided != th.Scans*raw {
			t.Fatalf("table %s: read %d + avoided %d over %d scans of %d bytes",
				th.Table, th.BytesRead, th.BytesAvoided, th.Scans, raw)
		}
	}
}

func TestSlowQueryEmbedsTrace(t *testing.T) {
	csvData, _, schema, _ := testData(t, 200, 3, 9)
	var buf bytes.Buffer
	e := newTestEngine(t, Config{QueryLog: obs.NewQueryLog(&buf), SlowQueryMillis: 1})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	faults.Install(faults.NewSchedule(1, faults.Rule{
		Site: faults.SiteExecSerial, Kind: faults.Latency, Latency: 20 * time.Millisecond}))
	defer faults.Disable()
	if _, err := e.Query("SELECT MAX(col2) FROM t"); err != nil {
		t.Fatal(err)
	}
	var rec obs.QueryRecord
	if err := json.Unmarshal(bytes.TrimRight(buf.Bytes(), "\n"), &rec); err != nil {
		t.Fatalf("bad record: %v\n%s", err, buf.String())
	}
	if rec.SlowTrace == "" {
		t.Fatalf("slow query carries no trace: %+v", rec)
	}
	if !strings.Contains(rec.SlowTrace, "query=") || !strings.Contains(rec.SlowTrace, "execute") {
		t.Fatalf("slow trace incomplete:\n%s", rec.SlowTrace)
	}
}

func TestFaultAndRetryEventSequence(t *testing.T) {
	csvData, _, schema, _ := testData(t, 300, 3, 10)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, csvData, 0o644); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{})
	if err := e.RegisterCSV("t", path, schema); err != nil {
		t.Fatal(err)
	}
	// The first two load attempts fail with an injected error; the retry
	// ladder absorbs both and the third succeeds.
	sched := faults.NewSchedule(1, faults.Rule{
		Site: faults.SiteCSVLoad, Kind: faults.Err, Times: 2})
	faults.Install(sched)
	defer faults.Disable()
	if _, err := e.Query("SELECT MAX(col2) FROM t"); err != nil {
		t.Fatalf("query did not survive transient faults: %v", err)
	}
	if fires := sched.Fires(); fires[0] != 2 {
		t.Fatalf("rule fired %d times, want 2", fires[0])
	}

	var kinds []obs.EventKind
	for _, ev := range e.RecentEvents() {
		switch ev.Kind {
		case obs.EventFault:
			if ev.Table != faults.SiteCSVLoad || ev.Structure != "err" {
				t.Fatalf("fault event = %+v", ev)
			}
			kinds = append(kinds, ev.Kind)
		case obs.EventRetry:
			if ev.Structure != "raw" || ev.Table != "t" {
				t.Fatalf("retry event = %+v", ev)
			}
			if !strings.Contains(ev.Reason, "injected fault") {
				t.Fatalf("retry reason = %q", ev.Reason)
			}
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []obs.EventKind{obs.EventFault, obs.EventRetry, obs.EventFault, obs.EventRetry}
	if len(kinds) != len(want) {
		t.Fatalf("fault/retry sequence = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("fault/retry sequence = %v, want %v", kinds, want)
		}
	}
	snap := e.Metrics().Snapshot()
	if snap["faults.fired"] != 2 || snap["load.retries"] != 2 {
		t.Fatalf("faults.fired=%d load.retries=%d, want 2/2",
			snap["faults.fired"], snap["load.retries"])
	}
}

func TestInflightRegistryAndCancel(t *testing.T) {
	csvData, _, schema, _ := testData(t, 300, 3, 11)
	e := newTestEngine(t, Config{})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	if got := e.Inflight(); len(got) != 0 {
		t.Fatalf("idle engine reports in-flight queries: %v", got)
	}
	// Hold the query inside the execute phase long enough to observe and
	// cancel it.
	faults.Install(faults.NewSchedule(1, faults.Rule{
		Site: faults.SiteExecSerial, Kind: faults.Latency, Latency: 2 * time.Second}))
	defer faults.Disable()

	q := "SELECT MAX(col2) FROM t"
	errc := make(chan error, 1)
	go func() {
		_, err := e.Query(q)
		errc <- err
	}()

	var inf InflightQuery
	deadline := time.Now().Add(5 * time.Second)
	for {
		if qs := e.Inflight(); len(qs) == 1 && qs[0].Phase == "execute" {
			inf = qs[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never appeared in-flight: %v", e.Inflight())
		}
		time.Sleep(time.Millisecond)
	}
	if inf.SQL != q || inf.ID <= 0 {
		t.Fatalf("inflight = %+v", inf)
	}
	if inf.Start.IsZero() {
		t.Fatal("inflight start time missing")
	}
	if !e.CancelQuery(inf.ID) {
		t.Fatal("CancelQuery did not find the running query")
	}
	select {
	case err := <-errc:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query did not return")
	}
	if len(e.Inflight()) != 0 {
		t.Fatal("finished query still registered")
	}
	if e.CancelQuery(inf.ID) {
		t.Fatal("CancelQuery found a finished query")
	}
	if e.CancelQuery(99999) {
		t.Fatal("CancelQuery found a made-up ID")
	}
}

func TestHeatProfiler(t *testing.T) {
	csvData, _, schema, _ := testData(t, 1000, 3, 12)
	e := newTestEngine(t, Config{})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	q := "SELECT MAX(col2) FROM t WHERE col1 < 500000000"
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	snap := e.Heat().Snapshot()
	if len(snap.Tables) != 1 || snap.Tables[0].Table != "t" {
		t.Fatalf("heat tables = %+v", snap.Tables)
	}
	tab := snap.Tables[0]
	if tab.Scans != 1 {
		t.Fatalf("scans = %d, want 1", tab.Scans)
	}
	if tab.BytesRead <= 0 {
		t.Fatalf("bytes read = %d", tab.BytesRead)
	}
	var builds int64
	for _, st := range tab.Structures {
		builds += st.Builds
	}
	if builds == 0 {
		t.Fatalf("cold query built no structures: %+v", tab.Structures)
	}
	var col1, col2 bool
	for _, c := range tab.Columns {
		if c.Name == "col1" && c.Filters >= 1 {
			col1 = true
		}
		if c.Name == "col2" && c.Reads >= 1 {
			col2 = true
		}
	}
	if !col1 || !col2 {
		t.Fatalf("column heat incomplete: %+v", tab.Columns)
	}

	// The second identical query serves from cache: structure hits appear
	// and the raw file is not scanned again under the shreds strategy.
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	tab = e.Heat().Snapshot().Tables[0]
	var hits int64
	for _, st := range tab.Structures {
		hits += st.Hits
	}
	if hits == 0 {
		t.Fatalf("warm query hit no structures: %+v", tab.Structures)
	}
	if got := tab.Columns[0].Filters + tab.Columns[1].Reads; got < 2 {
		t.Fatalf("column heat did not accumulate: %+v", tab.Columns)
	}

	// A binary file registered by path is read whole into the reader: its
	// scan reads those bytes, though no in-memory image was ever registered.
	_, binData, _, _ := testData(t, 1000, 3, 12)
	path := filepath.Join(t.TempDir(), "b.bin")
	if err := os.WriteFile(path, binData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterBinary("b", path, schema); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT MAX(col2) FROM b WHERE col1 < 500000000"); err != nil {
		t.Fatal(err)
	}
	var read int64
	for _, tab := range e.Heat().Snapshot().Tables {
		if tab.Table == "b" {
			read = tab.BytesRead
		}
	}
	if read != int64(len(binData)) {
		t.Fatalf("path-registered binary: bytes read = %d, want %d", read, len(binData))
	}
}

func TestHeatProfilerDatasetPruning(t *testing.T) {
	// Two partitions with disjoint col1 ranges; a predicate excluding one
	// partition records its manifest size as avoided bytes once zone maps
	// exist (second query).
	var p1, p2 bytes.Buffer
	for i := 0; i < 200; i++ {
		p1.WriteString("1,10\n")
		p2.WriteString("1000000,20\n")
	}
	e := newTestEngine(t, Config{})
	err := e.RegisterDatasetParts("d", []DataPart{
		{Format: catalog.CSV, Data: p1.Bytes()},
		{Format: catalog.CSV, Data: p2.Bytes()},
	}, []catalog.Column{
		{Name: "col1", Type: vector.Int64},
		{Name: "col2", Type: vector.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT MAX(col2) FROM d WHERE col1 < 100"
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(q) // zone maps from query 1 prune partition 2 now
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PartitionsSkipped == 0 {
		t.Skip("partition pruning did not engage; heat-avoided check not applicable")
	}
	snap := e.Heat().Snapshot()
	if len(snap.Tables) != 1 || snap.Tables[0].Table != "d" {
		t.Fatalf("heat tables = %+v", snap.Tables)
	}
	if snap.Tables[0].BytesAvoided <= 0 {
		t.Fatalf("partition pruning recorded no avoided bytes: %+v", snap.Tables[0])
	}
}
