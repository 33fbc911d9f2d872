package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/obs"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

// Regression tests for the engine's query lifecycle: the error path must
// publish nothing but still fold runtime counters; Explain must resolve
// options exactly like QueryOpt; Close and FlushVault must be safe against
// in-flight queries; and a cancelled query must release its table locks and
// claim no budget bytes.

// badMidCSV returns a CSV image whose first `good` rows parse and whose next
// row has a non-numeric field, so a sequential scan dies mid-file after
// having already appended rows to the positional map it is building.
func badMidCSV(good int) []byte {
	var b bytes.Buffer
	for i := 0; i < good; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", i, i*2, i*3)
	}
	b.WriteString("1,garbage,3\n")
	for i := 0; i < good; i++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", i, i, i)
	}
	return b.Bytes()
}

func TestMidScanErrorPublishesNothing(t *testing.T) {
	for _, strat := range []Strategy{StrategyInSitu, StrategyJIT} {
		t.Run(strat.String(), func(t *testing.T) {
			e := newTestEngine(t, Config{Strategy: strat})
			if err := e.RegisterCSVData("t", badMidCSV(50), catalogColumns3()); err != nil {
				t.Fatal(err)
			}
			_, err := e.Query("SELECT MAX(col2) FROM t WHERE col1 < 1000000")
			if err == nil {
				t.Fatal("query over a corrupt file succeeded")
			}
			st, serr := e.state("t")
			if serr != nil {
				t.Fatal(serr)
			}
			if pm := st.positions().pm; pm != nil {
				t.Fatalf("partial positional map published after mid-scan error (%d rows)", pm.NRows())
			}
			for _, ev := range e.RecentEvents() {
				if ev.Kind == obs.EventCaptured {
					t.Fatalf("captured event emitted on the error path: %+v", ev)
				}
			}
			snap := e.Metrics().Snapshot()
			if snap["query.errors"] != 1 {
				t.Fatalf("query.errors = %d, want 1", snap["query.errors"])
			}
			if snap["query.count"] != 0 {
				t.Fatalf("query.count = %d, want 0 (success-only series)", snap["query.count"])
			}
		})
	}
}

// catalogColumns3 is the 3-int64-column schema of badMidCSV rows.
func catalogColumns3() []catalog.Column {
	return []catalog.Column{
		{Name: "col1", Type: vector.Int64},
		{Name: "col2", Type: vector.Int64},
		{Name: "col3", Type: vector.Int64},
	}
}

func TestMidScanErrorDoesNotPoisonTheEngine(t *testing.T) {
	// After a failed query, the same engine must still answer queries over a
	// healthy table — the locks were released and no half-built structure is
	// consulted.
	e := newTestEngine(t, Config{Strategy: StrategyInSitu})
	if err := e.RegisterCSVData("bad", badMidCSV(50), catalogColumns3()); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterCSVData("good", []byte("1,2,3\n4,5,6\n"), catalogColumns3()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT MAX(col2) FROM bad"); err == nil {
		t.Fatal("expected error")
	}
	res, err := e.Query("SELECT MAX(col2) FROM good")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Int64(0, 0); got != 5 {
		t.Fatalf("MAX(col2) = %d, want 5", got)
	}
}

func TestExplainResolvesOptionsLikeQueryOpt(t *testing.T) {
	csvData, _, schema, _ := testData(t, 500, 4, 7)
	e := newTestEngine(t, Config{Strategy: StrategyShreds})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	q := "SELECT MAX(col2) FROM t WHERE col1 < 500000000"
	insitu := StrategyInSitu
	// Explain must honour opts.Trace (it used to drop it) ...
	tr := obs.NewTrace()
	out, err := e.Explain(q, Options{Strategy: &insitu, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strategy: "+insitu.String()) {
		t.Fatalf("explain ignored the strategy override:\n%s", out)
	}
	if tr.Find("plan") == nil {
		t.Fatal("explain ignored opts.Trace: no plan span recorded")
	}
	// ... and describe the same access paths the executed query takes.
	res, err := e.QueryOpt(q, Options{Strategy: &insitu})
	if err != nil {
		t.Fatal(err)
	}
	for _, ap := range res.Stats.AccessPaths {
		if !strings.Contains(out, ap) {
			t.Fatalf("executed access path %q missing from explain output:\n%s", ap, out)
		}
	}
}

func TestCloseAndFlushVaultRaceConcurrentQueries(t *testing.T) {
	csvData, _, schema, _ := testData(t, 2000, 4, 11)
	e := newTestEngine(t, Config{Strategy: StrategyShreds, CacheDir: t.TempDir()})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := fmt.Sprintf("SELECT MAX(col%d) FROM t WHERE col1 < %d", 1+(w+i)%4, 100_000_000*(i+1))
				if _, err := e.QueryCtx(context.Background(), q); err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	// FlushVault repeatedly while queries schedule async write-backs: the
	// vault I/O tracker must tolerate arrivals during a wait.
	for i := 0; i < 6; i++ {
		e.FlushVault()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCancelledQueryReleasesLocksAndBudget(t *testing.T) {
	csvData, _, schema, vals := testData(t, 5000, 4, 13)
	e := newTestEngine(t, Config{Strategy: StrategyInSitu, CacheBudget: 1 << 26})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := "SELECT MAX(col2) FROM t WHERE col1 < 900000000"
	_, err := e.QueryCtx(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "query abandoned") {
		t.Fatalf("err = %v, want a query-abandoned wrap", err)
	}
	st, serr := e.state("t")
	if serr != nil {
		t.Fatal(serr)
	}
	if pm := st.positions().pm; pm != nil {
		t.Fatal("cancelled query published a positional map")
	}
	if got := e.Metrics().Snapshot()["budget.bytes"]; got != 0 {
		t.Fatalf("cancelled query left %d budget bytes claimed", got)
	}
	// Locks released: the same table answers immediately on a live context.
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refMaxWhere(vals, 1, 0, 900_000_000)
	if got := res.Int64(0, 0); got != want {
		t.Fatalf("follow-up query = %d, want %d", got, want)
	}
}

func TestQueryCtxDeadlineExceeded(t *testing.T) {
	csvData, _, schema, _ := testData(t, 1000, 4, 17)
	e := newTestEngine(t, Config{Strategy: StrategyInSitu})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	_, err := e.QueryCtx(ctx, "SELECT COUNT(*) FROM t")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRootTreesOfOneFileConcurrent: the trees of one compressed ROOT-like
// image are separate tables with separate query locks over the same bytes.
// Queries over both trees — and several over the same tree — execute unlocked
// side by side, shreds off, so that every one inflates the baskets it reads
// for itself.
func TestRootTreesOfOneFileConcurrent(t *testing.T) {
	const rows = 1000
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: 16, Compress: true})
	schema := []catalog.Column{{Name: "x", Type: vector.Int64}}
	want := map[string]int64{}
	for i, tree := range []string{"a", "b"} {
		br := w.Tree(tree).Branch("x", vector.Int64)
		for r := 0; r < rows; r++ {
			v := int64(r*(i+2) + i)
			br.AppendInt64(v)
			want[tree] += v
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Config{DisableShredCache: true})
	for _, tree := range []string{"a", "b"} {
		if err := e.RegisterRootData(tree, buf.Bytes(), tree, schema); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	run := func(trees ...string) {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tree := trees[i%len(trees)]
			res, err := e.Query("SELECT SUM(x) FROM " + tree)
			if err != nil {
				t.Errorf("%s: %v", tree, err)
				return
			}
			if got := res.Int64(0, 0); got != want[tree] {
				t.Errorf("SUM(x) over %s = %d, want %d", tree, got, want[tree])
				return
			}
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go run([]string{"a", "b"}[g%2], []string{"a", "b"}[1-g%2])
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go run("a")
	}
	wg.Wait()
}
