package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

// testData builds a CSV image, its binary twin and reference values for an
// all-int64 table.
func testData(t *testing.T, rows, ncols int, seed int64) (csvData, binData []byte, schema []catalog.Column, vals [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	types := make([]vector.Type, ncols)
	schema = make([]catalog.Column, ncols)
	for c := 0; c < ncols; c++ {
		types[c] = vector.Int64
		schema[c] = catalog.Column{Name: fmt.Sprintf("col%d", c+1), Type: vector.Int64}
	}
	var cbuf, bbuf bytes.Buffer
	cw := csvfile.NewWriter(&cbuf, types)
	bw, err := binfile.NewWriter(&bbuf, types, int64(rows))
	if err != nil {
		t.Fatal(err)
	}
	vals = make([][]int64, rows)
	row := make([]int64, ncols)
	for r := 0; r < rows; r++ {
		for c := range row {
			row[c] = rng.Int63n(1_000_000_000)
		}
		vals[r] = append([]int64(nil), row...)
		if err := cw.WriteRow(row, nil); err != nil {
			t.Fatal(err)
		}
		if err := bw.WriteRow(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return cbuf.Bytes(), bbuf.Bytes(), schema, vals
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.PosMapPolicy.EveryK == 0 && cfg.PosMapPolicy.Extra == nil {
		cfg.PosMapPolicy = posmap.Policy{EveryK: 5}
	}
	return New(cfg)
}

// refMaxWhere computes MAX(vals[agg]) over rows where vals[fcol] < x.
func refMaxWhere(vals [][]int64, aggCol, fcol int, x int64) (max int64, n int) {
	for _, row := range vals {
		if row[fcol] < x {
			n++
			if row[aggCol] > max {
				max = row[aggCol]
			}
		}
	}
	return max, n
}

var allStrategies = []Strategy{StrategyDBMS, StrategyExternal, StrategyInSitu, StrategyJIT, StrategyShreds}

// TestAllStrategiesAgreeCSV is the core invariant: every strategy returns the
// same answer for the paper's Q1/Q2 sequence over a CSV file, cold and warm.
func TestAllStrategiesAgreeCSV(t *testing.T) {
	csvData, _, schema, vals := testData(t, 1000, 12, 100)
	const x = 400_000_000
	wantMax, _ := refMaxWhere(vals, 10, 0, x)
	wantMax1, _ := refMaxWhere(vals, 0, 0, x)

	for _, strat := range allStrategies {
		t.Run(strat.String(), func(t *testing.T) {
			e := newTestEngine(t, Config{Strategy: strat})
			if err := e.RegisterCSVData("t", csvData, schema); err != nil {
				t.Fatal(err)
			}
			q1 := fmt.Sprintf("SELECT MAX(col1) FROM t WHERE col1 < %d", x)
			res1, err := e.Query(q1)
			if err != nil {
				t.Fatalf("Q1: %v", err)
			}
			if got := res1.Int64(0, 0); got != wantMax1 {
				t.Fatalf("Q1 = %d, want %d", got, wantMax1)
			}
			q2 := fmt.Sprintf("SELECT MAX(col11) FROM t WHERE col1 < %d", x)
			res2, err := e.Query(q2)
			if err != nil {
				t.Fatalf("Q2: %v", err)
			}
			if got := res2.Int64(0, 0); got != wantMax {
				t.Fatalf("Q2 = %d, want %d", got, wantMax)
			}
			// Re-running Q2 (fully warm) must agree too.
			res3, err := e.Query(q2)
			if err != nil {
				t.Fatalf("Q2 warm: %v", err)
			}
			if got := res3.Int64(0, 0); got != wantMax {
				t.Fatalf("Q2 warm = %d, want %d", got, wantMax)
			}
		})
	}
}

func TestAllStrategiesAgreeBinary(t *testing.T) {
	_, binData, schema, vals := testData(t, 800, 8, 101)
	const x = 250_000_000
	want, _ := refMaxWhere(vals, 6, 0, x)
	for _, strat := range allStrategies {
		if strat == StrategyExternal {
			continue // external tables are CSV-only by design
		}
		t.Run(strat.String(), func(t *testing.T) {
			e := newTestEngine(t, Config{Strategy: strat})
			if err := e.RegisterBinaryData("t", binData, schema); err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				res, err := e.Query(fmt.Sprintf("SELECT MAX(col7) FROM t WHERE col1 < %d", x))
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if got := res.Int64(0, 0); got != want {
					t.Fatalf("pass %d = %d, want %d", pass, got, want)
				}
			}
		})
	}
}

func TestAggregatesAndProjection(t *testing.T) {
	csvData, _, schema, vals := testData(t, 500, 4, 102)
	e := newTestEngine(t, Config{Strategy: StrategyJIT})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT COUNT(*), MIN(col2), SUM(col3), AVG(col4) FROM t WHERE col1 >= 0")
	if err != nil {
		t.Fatal(err)
	}
	var minV, sum int64
	minV = 1 << 62
	var fsum float64
	for _, row := range vals {
		if row[1] < minV {
			minV = row[1]
		}
		sum += row[2]
		fsum += float64(row[3])
	}
	if res.Int64(0, 0) != int64(len(vals)) {
		t.Fatalf("count = %d", res.Int64(0, 0))
	}
	if res.Int64(0, 1) != minV || res.Int64(0, 2) != sum {
		t.Fatalf("min/sum = %d/%d, want %d/%d", res.Int64(0, 1), res.Int64(0, 2), minV, sum)
	}
	wantAvg := fsum / float64(len(vals))
	if got := res.Float64(0, 3); got < wantAvg-1e-6 || got > wantAvg+1e-6 {
		t.Fatalf("avg = %v, want %v", got, wantAvg)
	}
	if res.Columns[0] != "COUNT(*)" || res.Columns[3] != "AVG(col4)" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestPlainProjection(t *testing.T) {
	csvData, _, schema, vals := testData(t, 50, 3, 103)
	e := newTestEngine(t, Config{Strategy: StrategyJIT})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT col3, col1 FROM t WHERE col2 < 500000000")
	if err != nil {
		t.Fatal(err)
	}
	var want [][2]int64
	for _, row := range vals {
		if row[1] < 500000000 {
			want = append(want, [2]int64{row[2], row[0]})
		}
	}
	if res.NumRows() != len(want) {
		t.Fatalf("rows = %d, want %d", res.NumRows(), len(want))
	}
	for i, w := range want {
		if res.Int64(i, 0) != w[0] || res.Int64(i, 1) != w[1] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestGroupBy(t *testing.T) {
	// Build a small CSV with a low-cardinality group column.
	var buf bytes.Buffer
	cw := csvfile.NewWriter(&buf, []vector.Type{vector.Int64, vector.Int64})
	want := map[int64]int64{}
	cnt := map[int64]int64{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		g := rng.Int63n(5)
		v := rng.Int63n(1000)
		want[g] += v
		cnt[g]++
		if err := cw.WriteRow([]int64{g, v}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	schema := []catalog.Column{{Name: "g", Type: vector.Int64}, {Name: "v", Type: vector.Int64}}
	for _, strat := range []Strategy{StrategyDBMS, StrategyJIT, StrategyShreds} {
		e := newTestEngine(t, Config{Strategy: strat})
		if err := e.RegisterCSVData("t", buf.Bytes(), schema); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query("SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g")
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.NumRows() != len(want) {
			t.Fatalf("%s: %d groups, want %d", strat, res.NumRows(), len(want))
		}
		for i := 0; i < res.NumRows(); i++ {
			g := res.Int64(i, 0)
			if res.Int64(i, 1) != want[g] || res.Int64(i, 2) != cnt[g] {
				t.Fatalf("%s: group %d = %d/%d, want %d/%d",
					strat, g, res.Int64(i, 1), res.Int64(i, 2), want[g], cnt[g])
			}
		}
	}
}

func refJoinMax(vals1, vals2 [][]int64, aggSide, aggCol int, x int64) int64 {
	// file2 filtered on col2 < x; join on col1; MAX over aggCol of aggSide.
	byKey := map[int64][]int{}
	for i, row := range vals2 {
		if row[1] < x {
			byKey[row[0]] = append(byKey[row[0]], i)
		}
	}
	var max int64
	for i, row := range vals1 {
		for _, j := range byKey[row[0]] {
			var v int64
			if aggSide == 0 {
				v = vals1[i][aggCol]
			} else {
				v = vals2[j][aggCol]
			}
			if v > max {
				max = v
			}
		}
	}
	return max
}

// shuffledCopy returns CSV/bin images of vals in a shuffled row order.
func shuffledCopy(t *testing.T, vals [][]int64, seed int64) ([]byte, [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shuffled := append([][]int64(nil), vals...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	types := make([]vector.Type, len(vals[0]))
	for i := range types {
		types[i] = vector.Int64
	}
	var buf bytes.Buffer
	cw := csvfile.NewWriter(&buf, types)
	for _, row := range shuffled {
		if err := cw.WriteRow(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), shuffled
}

// TestJoinAllPlacementsAgree verifies the paper's join experiment setup:
// projected column from the pipelined (left) or breaking (right) side, with
// early/intermediate/late creation, all returning identical answers across
// strategies.
func TestJoinAllPlacementsAgree(t *testing.T) {
	csv1, _, schema, vals1 := testData(t, 600, 12, 104)
	// file2: same rows shuffled, col1 is a key with unique values? Not
	// unique — keys repeat; the reference handles duplicates.
	csv2, vals2 := shuffledCopy(t, vals1, 105)
	const x = 300_000_000

	for _, aggSide := range []int{0, 1} {
		alias := []string{"f1", "f2"}[aggSide]
		want := refJoinMax(vals1, vals2, aggSide, 10, x)
		query := fmt.Sprintf(
			"SELECT MAX(%s.col11) FROM file1 f1, file2 f2 WHERE f1.col1 = f2.col1 AND f2.col2 < %d",
			alias, x)
		for _, strat := range []Strategy{StrategyDBMS, StrategyJIT, StrategyShreds} {
			for _, place := range []JoinPlacement{PlaceEarly, PlaceIntermediate, PlaceLate} {
				name := fmt.Sprintf("side%d/%s/%s", aggSide, strat, place)
				t.Run(name, func(t *testing.T) {
					e := newTestEngine(t, Config{Strategy: strat, JoinPlacement: place})
					if err := e.RegisterCSVData("file1", csv1, schema); err != nil {
						t.Fatal(err)
					}
					if err := e.RegisterCSVData("file2", csv2, schema); err != nil {
						t.Fatal(err)
					}
					// Warm the positional maps so shreds/late paths engage.
					if _, err := e.Query("SELECT MAX(col1) FROM file1 WHERE col1 < 0"); err != nil {
						t.Fatal(err)
					}
					if _, err := e.Query("SELECT MAX(col1) FROM file2 WHERE col1 < 0"); err != nil {
						t.Fatal(err)
					}
					res, err := e.Query(query)
					if err != nil {
						t.Fatal(err)
					}
					if got := res.Int64(0, 0); got != want {
						t.Fatalf("got %d, want %d", got, want)
					}
					_ = vals2
				})
			}
		}
	}
}

func TestMultiColumnShredsAgree(t *testing.T) {
	csvData, _, schema, vals := testData(t, 700, 10, 106)
	const x = 600_000_000
	var want int64
	for _, row := range vals {
		if row[0] < x && row[4] < x && row[5] > want {
			want = row[5]
		}
	}
	query := fmt.Sprintf("SELECT MAX(col6) FROM t WHERE col1 < %d AND col5 < %d", x, x)
	for _, multi := range []bool{false, true} {
		e := newTestEngine(t, Config{Strategy: StrategyShreds, MultiColumnShreds: multi})
		if err := e.RegisterCSVData("t", csvData, schema); err != nil {
			t.Fatal(err)
		}
		// First query builds the positional map.
		if _, err := e.Query("SELECT MAX(col1) FROM t WHERE col1 < 0"); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(query)
		if err != nil {
			t.Fatalf("multi=%v: %v", multi, err)
		}
		if got := res.Int64(0, 0); got != want {
			t.Fatalf("multi=%v: got %d, want %d", multi, got, want)
		}
	}
}

func TestShredCacheServesWarmQueries(t *testing.T) {
	csvData, _, schema, _ := testData(t, 400, 6, 107)
	e := newTestEngine(t, Config{Strategy: StrategyJIT})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	res1, err := e.Query("SELECT MAX(col2) FROM t WHERE col1 < 500000000")
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.ShredHits != 0 {
		t.Fatalf("cold query had %d shred hits", res1.Stats.ShredHits)
	}
	// Same columns again: both served from the pool, no raw access.
	res2, err := e.Query("SELECT MAX(col2) FROM t WHERE col1 < 100000000")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.ShredHits != 2 {
		t.Fatalf("warm query shred hits = %d, want 2", res2.Stats.ShredHits)
	}
	found := false
	for _, ap := range res2.Stats.AccessPaths {
		if strings.HasPrefix(ap, "shred:scan") {
			found = true
		}
	}
	if !found {
		t.Fatalf("warm query access paths = %v", res2.Stats.AccessPaths)
	}
}

func TestDropCaches(t *testing.T) {
	csvData, _, schema, _ := testData(t, 300, 6, 109)
	e := newTestEngine(t, Config{Strategy: StrategyShreds})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT MAX(col2) FROM t WHERE col1 < 900000000"); err != nil {
		t.Fatal(err)
	}
	if e.ShredPool().Len() == 0 {
		t.Fatal("caches should be warm after a query")
	}
	e.DropCaches()
	if e.ShredPool().Len() != 0 {
		t.Fatal("DropCaches left state behind")
	}
	if e.tables["t"].positions().pm != nil {
		t.Fatal("positional map survived DropCaches")
	}
}

func TestRootTableQueries(t *testing.T) {
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: 64})
	tw := w.Tree("events")
	idb := tw.Branch("eventID", vector.Int64)
	run := tw.Branch("runNumber", vector.Int64)
	eta := tw.Branch("eta", vector.Float64)
	rng := rand.New(rand.NewSource(9))
	const n = 500
	var wantCount int64
	for i := 0; i < n; i++ {
		r := rng.Int63n(10)
		e := rng.Float64()*5 - 2.5
		idb.AppendInt64(int64(i))
		run.AppendInt64(r)
		eta.AppendFloat64(e)
		if r < 5 && e < 0 {
			wantCount++
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	schema := []catalog.Column{
		{Name: "eventID", Type: vector.Int64},
		{Name: "runNumber", Type: vector.Int64},
		{Name: "eta", Type: vector.Float64},
	}
	for _, strat := range []Strategy{StrategyDBMS, StrategyInSitu, StrategyJIT, StrategyShreds} {
		e := newTestEngine(t, Config{Strategy: strat})
		if err := e.RegisterRootData("events", buf.Bytes(), "events", schema); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query("SELECT COUNT(*) FROM events WHERE runNumber < 5 AND eta < 0.0")
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if got := res.Int64(0, 0); got != wantCount {
			t.Fatalf("%s: count = %d, want %d", strat, got, wantCount)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	csvData, _, schema, _ := testData(t, 10, 3, 110)
	e := newTestEngine(t, Config{})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterCSVData("u", csvData, schema); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		"SELECT MAX(nope) FROM t",
		"SELECT MAX(col1) FROM missing",
		"SELECT MAX(col1) FROM t WHERE col1 < 1.5",                             // float literal on BIGINT
		"SELECT col1, MAX(col2) FROM t",                                        // bare column without GROUP BY
		"SELECT MAX(col1) FROM t, u",                                           // two tables, no join condition
		"SELECT MAX(col1) FROM t t1, t t2 WHERE t1.col1 = t2.col1",             // duplicate table is fine? alias differs
		"SELECT MAX(col1) FROM t WHERE t.col1 = t.col2",                        // same-table join condition
		"SELECT MAX(x.col1) FROM t",                                            // unknown alias
		"SELECT MAX(col1) FROM t, u WHERE t.col1 = u.col1 AND t.col2 = u.col2", // two join conds
	}
	for _, q := range bad {
		if q == "SELECT MAX(col1) FROM t t1, t t2 WHERE t1.col1 = t2.col1" {
			continue // registered under one name; alias reuse of same table is legal
		}
		if _, err := e.Query(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
	// Ambiguous unqualified column across two tables.
	if _, err := e.Query("SELECT MAX(col1) FROM t, u WHERE t.col2 = u.col2"); err == nil {
		t.Error("expected ambiguity error")
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	csvData, _, schema, vals := testData(t, 300, 4, 111)
	e := newTestEngine(t, Config{Strategy: StrategyJIT})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("SELECT COUNT(*) FROM t a, t b WHERE a.col1 = b.col1")
	if err != nil {
		t.Fatal(err)
	}
	// Self equi-join on (effectively unique) random col1: at least N matches.
	if res.Int64(0, 0) < int64(len(vals)) {
		t.Fatalf("self join count = %d < %d", res.Int64(0, 0), len(vals))
	}
}

func TestExplain(t *testing.T) {
	csvData, _, schema, _ := testData(t, 100, 6, 112)
	e := newTestEngine(t, Config{Strategy: StrategyJIT})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	out, err := e.Explain("SELECT MAX(col2) FROM t WHERE col1 < 5", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "strategy: jit") || !strings.Contains(out, "jit:seq(t)") {
		t.Fatalf("explain output:\n%s", out)
	}
}

func TestQueryOptOverrides(t *testing.T) {
	csvData, _, schema, vals := testData(t, 200, 6, 113)
	e := newTestEngine(t, Config{Strategy: StrategyShreds})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	want, _ := refMaxWhere(vals, 2, 0, 500_000_000)
	ext := StrategyExternal
	res, err := e.QueryOpt("SELECT MAX(col3) FROM t WHERE col1 < 500000000", Options{Strategy: &ext})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Strategy != StrategyExternal || res.Int64(0, 0) != want {
		t.Fatalf("stats=%+v got=%d want=%d", res.Stats, res.Int64(0, 0), want)
	}
}

func TestFloatColumns(t *testing.T) {
	// Mixed int/float table, exercising float conversion paths end to end.
	rng := rand.New(rand.NewSource(17))
	types := []vector.Type{vector.Int64, vector.Float64, vector.Float64}
	schema := []catalog.Column{
		{Name: "k", Type: vector.Int64},
		{Name: "a", Type: vector.Float64},
		{Name: "b", Type: vector.Float64},
	}
	var cbuf, bbuf bytes.Buffer
	cw := csvfile.NewWriter(&cbuf, types)
	bw, err := binfile.NewWriter(&bbuf, types, 300)
	if err != nil {
		t.Fatal(err)
	}
	type refRow struct {
		k    int64
		a, b float64
	}
	var ref []refRow
	for i := 0; i < 300; i++ {
		k := rng.Int63n(1000)
		a := float64(rng.Int63n(1_000_000)) / 64 // exactly representable
		b := float64(rng.Int63n(1_000_000)) / 64
		ref = append(ref, refRow{k, a, b})
		if err := cw.WriteRow([]int64{k}, []float64{a, b}); err != nil {
			t.Fatal(err)
		}
		if err := bw.WriteRow([]int64{k}, []float64{a, b}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	var wantMax float64
	for _, r := range ref {
		if r.k < 500 && r.b > wantMax {
			wantMax = r.b
		}
	}
	for _, strat := range allStrategies {
		e := newTestEngine(t, Config{Strategy: strat})
		if err := e.RegisterCSVData("tc", cbuf.Bytes(), schema); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			res, err := e.Query("SELECT MAX(b) FROM tc WHERE k < 500")
			if err != nil {
				t.Fatalf("%s csv pass %d: %v", strat, pass, err)
			}
			got := res.Float64(0, 0)
			// CSV float formatting rounds to 6 fractional digits.
			if got < wantMax-0.01 || got > wantMax+0.01 {
				t.Fatalf("%s csv pass %d: %v, want ~%v", strat, pass, got, wantMax)
			}
		}
		if strat == StrategyExternal {
			continue
		}
		eb := newTestEngine(t, Config{Strategy: strat})
		if err := eb.RegisterBinaryData("tb", bbuf.Bytes(), schema); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			res, err := eb.Query("SELECT MAX(b) FROM tb WHERE k < 500")
			if err != nil {
				t.Fatalf("%s bin pass %d: %v", strat, pass, err)
			}
			if res.Float64(0, 0) != wantMax {
				t.Fatalf("%s bin pass %d: %v, want %v", strat, pass, res.Float64(0, 0), wantMax)
			}
		}
	}
}

func TestStrategyAndPlacementStrings(t *testing.T) {
	if StrategyShreds.String() != "shreds" || StrategyDBMS.String() != "dbms" {
		t.Fatal("strategy strings wrong")
	}
	if PlaceLate.String() != "late" || PlaceIntermediate.String() != "intermediate" {
		t.Fatal("placement strings wrong")
	}
}
