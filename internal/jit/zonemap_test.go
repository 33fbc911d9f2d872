package jit

import (
	"bytes"
	"math"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// rootFile writes one tree "t" of an Int64 branch "v" and a Float64 branch
// "f" in baskets of basket entries, and returns it parsed with its table.
func rootFile(t *testing.T, v []int64, f []float64, basket int) (*rootfile.Tree, *catalog.Table) {
	t.Helper()
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: basket})
	tw := w.Tree("t")
	vb := tw.Branch("v", vector.Int64)
	fb := tw.Branch("f", vector.Float64)
	for i := range v {
		vb.AppendInt64(v[i])
		fb.AppendFloat64(f[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := rootfile.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := file.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	tab := &catalog.Table{Name: "t", Format: catalog.Root, Tree: "t",
		Schema: []catalog.Column{
			{Name: "v", Type: vector.Int64},
			{Name: "f", Type: vector.Float64},
		}}
	return tree, tab
}

// sortedRootFile builds a root-like file whose "v" branch is monotonically
// increasing, so zone maps exclude whole blocks for range predicates.
func sortedRootFile(t *testing.T, n, basket int) (*rootfile.Tree, *catalog.Table) {
	t.Helper()
	v, f := make([]int64, n), make([]float64, n)
	for i := range v {
		v[i], f[i] = int64(i), float64(i)/2
	}
	return rootFile(t, v, f, basket)
}

// rootSynopsis is the zone map a first, unpruned scan of every column builds
// on the side, in blocks of blockRows rows.
func rootSynopsis(t *testing.T, tree *rootfile.Tree, tab *catalog.Table, batch int, blockRows int64) *synopsis.Synopsis {
	t.Helper()
	b := synopsis.NewBuilder(blockRows, map[int]vector.Type{0: vector.Int64, 1: vector.Float64})
	sc, err := NewRootScanPush(tree, tab, []int{0, 1}, false, batch, Pushdown{Syn: b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(sc); err != nil {
		t.Fatal(err)
	}
	return b.Finish()
}

// synSkip is the planner's exclusion test: a range is skipped when the zone
// map proves some conjunct matches none of its rows.
func synSkip(syn *synopsis.Synopsis, preds []exec.Pred) func(lo, hi int64) bool {
	return func(lo, hi int64) bool {
		for _, p := range preds {
			if syn.Excludes(p, lo, hi) {
				return true
			}
		}
		return false
	}
}

// TestZoneMapBounds: a ROOT scan builds the engine's zone map as it reads,
// a block per batch boundary at or past the block size, with each block's
// bounds those of its entries.
func TestZoneMapBounds(t *testing.T) {
	tree, tab := sortedRootFile(t, 100, 10)
	syn := rootSynopsis(t, tree, tab, 10, 10)
	if syn.NRows() != 100 || syn.NBlocks() != 10 {
		t.Fatalf("synopsis of %d rows in %d blocks, want 100 in 10", syn.NRows(), syn.NBlocks())
	}
	for _, c := range syn.Columns() {
		switch c.Col {
		case 0:
			if c.IMin[3] != 30 || c.IMax[3] != 39 {
				t.Fatalf("block 3 bounds = [%d, %d]", c.IMin[3], c.IMax[3])
			}
		case 1:
			if c.FMin[9] != 45 || c.FMax[9] != 49.5 {
				t.Fatalf("float block 9 bounds = [%v, %v]", c.FMin[9], c.FMax[9])
			}
		}
	}
	if len(syn.Columns()) != 2 {
		t.Fatalf("synopsis tracks %d columns, want 2", len(syn.Columns()))
	}
}

// TestRootScanPruning: with the zone map of a first scan, a ROOT scan skips
// the batch ranges a pushed predicate excludes, counts them, and emits the
// qualifying rows with their own row ids.
func TestRootScanPruning(t *testing.T) {
	tree, tab := sortedRootFile(t, 1000, 50) // 20 baskets of 50
	syn := rootSynopsis(t, tree, tab, 64, 100)
	cases := []struct {
		name        string
		pred        exec.Pred
		wantRows    int
		wantSkipMin int64
	}{
		// Blocks are two batches of 64 rows; each case keeps one block.
		{"lt", exec.Pred{Col: 0, Op: exec.Lt, I64: 100}, 100, 14},
		{"ge", exec.Pred{Col: 0, Op: exec.Ge, I64: 900}, 100, 14},
		{"eq", exec.Pred{Col: 0, Op: exec.Eq, I64: 500}, 1, 14},
		// f < 25, i.e. v < 50.
		{"float", exec.Pred{Col: 1, Op: exec.Lt, F64: 25}, 50, 14},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			preds := []exec.Pred{c.pred}
			sc, err := NewRootScanPush(tree, tab, []int{0, 1}, true, 64,
				Pushdown{Preds: preds, Skip: synSkip(syn, preds)})
			if err != nil {
				t.Fatal(err)
			}
			out, err := exec.Collect(sc)
			if err != nil {
				t.Fatal(err)
			}
			if out[0].Len() != c.wantRows {
				t.Fatalf("got %d rows, want %d", out[0].Len(), c.wantRows)
			}
			if _, skipped := sc.PushStats(); skipped < c.wantSkipMin {
				t.Fatalf("skipped %d batch ranges, want >= %d", skipped, c.wantSkipMin)
			}
			for i := 0; i < out[2].Len(); i++ {
				if rid := out[2].Int64s[i]; out[0].Int64s[i] != rid || out[1].Float64s[i] != float64(rid)/2 {
					t.Fatalf("row %d: v=%d f=%v rid=%d", i, out[0].Int64s[i], out[1].Float64s[i], rid)
				}
			}
		})
	}
}

// TestRootScanPruningAgreesWithUnpruned: skipping and pushing a predicate
// returns what a plain scan and a filter above it return.
func TestRootScanPruningAgreesWithUnpruned(t *testing.T) {
	tree, tab := sortedRootFile(t, 777, 32) // uneven last basket
	syn := rootSynopsis(t, tree, tab, 100, 100)
	preds := []exec.Pred{{Col: 0, Op: exec.Gt, I64: 400}}
	pruned, err := NewRootScanPush(tree, tab, []int{0}, false, 100, Pushdown{Preds: preds, Skip: synSkip(syn, preds)})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewRootScanPush(tree, tab, []int{0}, false, 100, Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	fu, _ := exec.NewFilter(plain, preds)
	a, err := exec.Collect(pruned)
	if err != nil {
		t.Fatal(err)
	}
	b, err := exec.Collect(fu)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Len() != b[0].Len() {
		t.Fatalf("pruned %d rows vs unpruned %d", a[0].Len(), b[0].Len())
	}
	for i := range a[0].Int64s {
		if a[0].Int64s[i] != b[0].Int64s[i] {
			t.Fatalf("row %d differs", i)
		}
	}
	if _, skipped := pruned.PushStats(); skipped == 0 {
		t.Fatal("expected at least one skipped batch range")
	}
}

// TestPruneValidation: a predicate pushed into a ROOT scan must be on a
// column the scan reads.
func TestPruneValidation(t *testing.T) {
	tree, tab := sortedRootFile(t, 10, 5)
	for _, col := range []int{1, 7} {
		if _, err := NewRootScanPush(tree, tab, []int{0}, false, 0,
			Pushdown{Preds: []exec.Pred{{Col: col, Op: exec.Lt}}}); err == nil {
			t.Fatalf("expected an error for a predicate on column %d", col)
		}
	}
}

// TestRangeExcluded: over every small block layout of values, NaN among
// them, a ROOT scan that skips by the zone map of a first scan and evaluates
// the pushed predicate returns exactly the rows a per-row check keeps, for
// every operator and literal: zone-map skips are sound, on NaN too.
func TestRangeExcluded(t *testing.T) {
	domain := []float64{-1, 0, 1, 2, math.NaN()}
	const n = 20
	v, f := make([]int64, n), make([]float64, n)
	for i := range v {
		f[i] = domain[(i*i+i/3)%len(domain)]
		v[i] = int64(i*7%5) - 1
	}
	f[3], f[4], f[5] = 5, 5, 5 // a block of one value
	tree, tab := rootFile(t, v, f, 4)
	syn := rootSynopsis(t, tree, tab, 4, 4)
	ops := []exec.CmpOp{exec.Lt, exec.Le, exec.Gt, exec.Ge, exec.Eq, exec.Ne}
	for lit := -2; lit <= 5; lit++ {
		for _, op := range ops {
			for col := 0; col < 2; col++ {
				p := exec.Pred{Col: col, Op: op, I64: int64(lit), F64: float64(lit)}
				want := 0
				for i := 0; i < n; i++ {
					if col == 0 && p.MatchInt64(v[i]) || col == 1 && p.MatchFloat64(f[i]) {
						want++
					}
				}
				preds := []exec.Pred{p}
				sc, err := NewRootScanPush(tree, tab, []int{0, 1}, false, 4, Pushdown{Preds: preds, Skip: synSkip(syn, preds)})
				if err != nil {
					t.Fatal(err)
				}
				out, err := exec.Collect(sc)
				if err != nil {
					t.Fatal(err)
				}
				if got := out[0].Len(); got != want {
					t.Fatalf("col %d %s %d: %d rows, want %d", col, op, lit, got, want)
				}
			}
		}
	}
}
