package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/storage/jsonfile"
	"rawdb/internal/vector"
)

// jsonTestData builds a nested JSONL image alongside reference values:
// {"id":…,"run":…,"payload":{"energy":…,"ncells":…}} with an undeclared
// "note" string member scans must skip.
func jsonTestData(t *testing.T, rows int, seed int64) (data []byte, schema []catalog.Column,
	ints [][]int64, floats []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w, err := jsonfile.NewWriter(&buf, []jsonfile.Field{
		{Path: "id", Type: vector.Int64},
		{Path: "run", Type: vector.Int64},
		{Path: "payload.energy", Type: vector.Float64},
		{Path: "payload.ncells", Type: vector.Int64},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		iv := []int64{rng.Int63n(1_000_000_000), rng.Int63n(100), rng.Int63n(64)}
		fv := float64(rng.Int63n(1_000_000)) / 4
		ints = append(ints, iv)
		floats = append(floats, fv)
		if err := w.WriteRow([]int64{iv[0], iv[1], iv[2]}, []float64{fv}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	schema = []catalog.Column{
		{Name: "id", Type: vector.Int64},
		{Name: "run", Type: vector.Int64},
		{Name: "payload.energy", Type: vector.Float64},
		{Name: "payload.ncells", Type: vector.Int64},
	}
	return buf.Bytes(), schema, ints, floats
}

// TestAllStrategiesAgreeJSON runs the same query under every strategy twice
// (cold then warm) and requires identical answers.
func TestAllStrategiesAgreeJSON(t *testing.T) {
	data, schema, ints, floats := jsonTestData(t, 700, 31)
	const x = 500_000_000
	wantMax := -1.0
	wantN := 0
	for r := range ints {
		if ints[r][0] < x {
			wantN++
			if floats[r] > wantMax {
				wantMax = floats[r]
			}
		}
	}
	q := fmt.Sprintf("SELECT MAX(payload.energy), COUNT(*) FROM ev WHERE id < %d", x)
	for _, strat := range []Strategy{StrategyShreds, StrategyJIT, StrategyInSitu, StrategyDBMS} {
		e := New(Config{Strategy: strat})
		if err := e.RegisterJSONData("ev", data, schema); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("%s pass %d: %v", strat, pass, err)
			}
			if res.NumRows() != 1 || res.Float64(0, 0) != wantMax || res.Int64(0, 1) != int64(wantN) {
				t.Fatalf("%s pass %d: got %v/%v want %v/%v", strat, pass,
					res.Value(0, 0), res.Value(0, 1), wantMax, wantN)
			}
		}
	}
}

// TestJSONAccessPathProgression checks the adaptive story end to end: a cold
// query runs the generated sequential scan and builds the structural index;
// a warm query over new paths runs via the index (recording them); a third
// query is served from column shreds without touching the file.
func TestJSONAccessPathProgression(t *testing.T) {
	data, schema, _, _ := jsonTestData(t, 500, 32)
	e := New(Config{Strategy: StrategyShreds})
	if err := e.RegisterJSONData("ev", data, schema); err != nil {
		t.Fatal(err)
	}
	paths := func(q string) []string {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.AccessPaths
	}
	p1 := paths("SELECT MAX(id) FROM ev WHERE id < 900000000")
	if len(p1) == 0 || !strings.Contains(p1[0], "jit:jsonseq(ev)") {
		t.Fatalf("cold paths = %v", p1)
	}
	// Warm, new columns: the filter column (run, untracked) is read through
	// the structural index (row starts + adaptive recording) and the output
	// column comes via a JSON late scan.
	p2 := paths("SELECT MAX(payload.energy) FROM ev WHERE run < 50")
	joined := strings.Join(p2, " ")
	if !strings.Contains(joined, "jit:jsonidx(ev)") || !strings.Contains(joined, "jit:late(ev") {
		t.Fatalf("warm paths = %v", p2)
	}
	// Hot: the same query again must be a pure shred-pool plan (plus the
	// pushdown marker — the shred scan absorbs the predicate).
	p3 := paths("SELECT MAX(id) FROM ev WHERE id < 900000000")
	if len(p3) == 0 || !strings.Contains(p3[0], "shred:scan(ev)") {
		t.Fatalf("hot paths = %v", p3)
	}
	for _, ap := range p3 {
		if strings.Contains(ap, "jit:") {
			t.Fatalf("hot paths touched raw data: %v", p3)
		}
	}

	// The in-situ baseline names the same two forms, cold and warm, whether
	// it runs serial or morsel-parallel.
	for _, workers := range []int{1, 4} {
		e := New(Config{Strategy: StrategyInSitu, Parallelism: workers})
		if err := e.RegisterJSONData("ev", data, schema); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"insitu:jsonseq(ev)", "insitu:json(ev)"} {
			res, err := e.Query("SELECT MAX(id) FROM ev WHERE run < 50")
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Stats.AccessPaths; len(got) != 1 || !strings.HasSuffix(got[0], want) {
				t.Fatalf("in-situ workers=%d paths = %v, want %s", workers, got, want)
			}
		}
	}
}

// TestJSONNestedPathSQL exercises dotted-path references in every clause,
// qualified and not.
func TestJSONNestedPathSQL(t *testing.T) {
	data, schema, ints, _ := jsonTestData(t, 300, 33)
	e := New(Config{})
	if err := e.RegisterJSONData("ev", data, schema); err != nil {
		t.Fatal(err)
	}
	var want int64
	for r := range ints {
		if ints[r][2] >= 32 {
			want++
		}
	}
	res, err := e.Query("SELECT COUNT(*) FROM ev WHERE payload.ncells >= 32")
	if err != nil {
		t.Fatal(err)
	}
	if res.Int64(0, 0) != want {
		t.Fatalf("count = %d want %d", res.Int64(0, 0), want)
	}
	// Alias-qualified nested path.
	res, err = e.Query("SELECT COUNT(*) FROM ev e WHERE e.payload.ncells >= 32")
	if err != nil {
		t.Fatal(err)
	}
	if res.Int64(0, 0) != want {
		t.Fatalf("qualified count = %d want %d", res.Int64(0, 0), want)
	}
	// GROUP BY over a nested path.
	res, err = e.Query("SELECT run, MAX(payload.energy) FROM ev WHERE id >= 0 GROUP BY run")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() == 0 {
		t.Fatal("grouped result empty")
	}
	// Unknown nested path stays an error.
	if _, err := e.Query("SELECT MAX(payload.missing) FROM ev WHERE id < 5"); err == nil {
		t.Fatal("expected unknown-column error")
	}
}

// TestJSONJoinsWithCSV joins a JSON table against a CSV table, the
// multi-format query pattern of the paper's Higgs use case.
func TestJSONJoinsWithCSV(t *testing.T) {
	data, schema, ints, _ := jsonTestData(t, 200, 34)
	// CSV side: runs 0..49 marked good (run,good).
	var cbuf bytes.Buffer
	for run := 0; run < 50; run++ {
		fmt.Fprintf(&cbuf, "%d,1\n", run)
	}
	e := New(Config{})
	if err := e.RegisterJSONData("ev", data, schema); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterCSVData("runs", cbuf.Bytes(), []catalog.Column{
		{Name: "run", Type: vector.Int64},
		{Name: "good", Type: vector.Int64},
	}); err != nil {
		t.Fatal(err)
	}
	var want int64
	for r := range ints {
		if ints[r][1] < 50 {
			want++
		}
	}
	res, err := e.Query("SELECT COUNT(*) FROM ev e, runs r WHERE e.run = r.run")
	if err != nil {
		t.Fatal(err)
	}
	if res.Int64(0, 0) != want {
		t.Fatalf("join count = %d want %d", res.Int64(0, 0), want)
	}
}

// TestJSONDropCaches: dropping caches resets the structural index so the
// next query is cold again, and answers stay correct.
func TestJSONDropCaches(t *testing.T) {
	data, schema, _, _ := jsonTestData(t, 150, 35)
	e := New(Config{Strategy: StrategyShreds})
	if err := e.RegisterJSONData("ev", data, schema); err != nil {
		t.Fatal(err)
	}
	q := "SELECT MAX(id) FROM ev WHERE id >= 0"
	r1, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	e.DropCaches()
	r2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Int64(0, 0) != r1.Int64(0, 0) {
		t.Fatal("answers differ after DropCaches")
	}
	if len(r2.Stats.AccessPaths) == 0 || !strings.Contains(r2.Stats.AccessPaths[0], "jsonseq") {
		t.Fatalf("post-drop paths = %v (expected a cold sequential scan)", r2.Stats.AccessPaths)
	}
}
