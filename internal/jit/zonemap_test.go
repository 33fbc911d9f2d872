package jit

import (
	"bytes"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

// sortedRootFile builds a root-like file whose "v" branch is monotonically
// increasing, so zone maps exclude whole baskets for range predicates.
func sortedRootFile(t *testing.T, n, basket int) (*rootfile.Tree, *catalog.Table) {
	t.Helper()
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: basket})
	tw := w.Tree("t")
	vb := tw.Branch("v", vector.Int64)
	fb := tw.Branch("f", vector.Float64)
	for i := 0; i < n; i++ {
		vb.AppendInt64(int64(i))
		fb.AppendFloat64(float64(i) / 2)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := rootfile.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := f.Tree("t")
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

func TestZoneMapBounds(t *testing.T) {
	tree, _ := sortedRootFile(t, 100, 10)
	vb, _ := tree.Branch("v")
	if vb.Baskets() != 10 {
		t.Fatalf("baskets = %d", vb.Baskets())
	}
	lo, hi := vb.IntBounds(3)
	if lo != 30 || hi != 39 {
		t.Fatalf("basket 3 bounds = [%d, %d]", lo, hi)
	}
	first, count := vb.EntryRange(3)
	if first != 30 || count != 10 {
		t.Fatalf("basket 3 range = %d+%d", first, count)
	}
	fb, _ := tree.Branch("f")
	flo, fhi := fb.FloatBounds(9)
	if flo != 45 || fhi != 49.5 {
		t.Fatalf("float basket 9 bounds = [%v, %v]", flo, fhi)
	}
	if vb.BasketOf(35) != 3 || vb.BasketOf(99) != 9 {
		t.Fatalf("BasketOf wrong: %d %d", vb.BasketOf(35), vb.BasketOf(99))
	}
}

func TestRootScanPruning(t *testing.T) {
	tree, tab := sortedRootFile(t, 1000, 50) // 20 baskets of 50

	cases := []struct {
		name        string
		prune       Prune
		wantRows    int
		wantSkipMin int64
	}{
		// v < 100: baskets 0-1 survive, 18 skipped.
		{"lt", Prune{Col: 0, Op: exec.Lt, I64: 100}, 100, 18},
		// v >= 900: baskets 18-19 survive.
		{"ge", Prune{Col: 0, Op: exec.Ge, I64: 900}, 100, 18},
		// v = 500: exactly one basket survives.
		{"eq", Prune{Col: 0, Op: exec.Eq, I64: 500}, 1, 19},
		// float predicate f < 25 (i.e. i < 50): one basket survives.
		{"float", Prune{Col: 1, Op: exec.Lt, F64: 25}, 50, 19},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc, err := NewRootScanPruned(tree, tab, []int{0, 1}, true, 64, &c.prune)
			if err != nil {
				t.Fatal(err)
			}
			// The regular filter still applies above the scan.
			var preds []exec.Pred
			if c.prune.Col == 0 {
				preds = []exec.Pred{{Col: 0, Op: c.prune.Op, I64: c.prune.I64}}
			} else {
				preds = []exec.Pred{{Col: 1, Op: c.prune.Op, F64: c.prune.F64}}
			}
			f, err := exec.NewFilter(sc, preds)
			if err != nil {
				t.Fatal(err)
			}
			out, err := exec.Collect(f)
			if err != nil {
				t.Fatal(err)
			}
			if out[0].Len() != c.wantRows {
				t.Fatalf("got %d rows, want %d", out[0].Len(), c.wantRows)
			}
			if sc.SkippedBaskets() < c.wantSkipMin {
				t.Fatalf("skipped %d baskets, want >= %d", sc.SkippedBaskets(), c.wantSkipMin)
			}
			// Row ids must identify the true surviving rows.
			for i := 0; i < out[2].Len(); i++ {
				rid := out[2].Int64s[i]
				if out[0].Int64s[i] != rid {
					t.Fatalf("row %d: v=%d rid=%d", i, out[0].Int64s[i], rid)
				}
			}
		})
	}
}

func TestRootScanPruningAgreesWithUnpruned(t *testing.T) {
	tree, tab := sortedRootFile(t, 777, 32) // uneven last basket
	prune := &Prune{Col: 0, Op: exec.Gt, I64: 400}
	pruned, err := NewRootScanPruned(tree, tab, []int{0}, false, 100, prune)
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := exec.NewFilter(pruned, []exec.Pred{{Col: 0, Op: exec.Gt, I64: 400}})
	plain, err := NewRootScanPruned(tree, tab, []int{0}, false, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	fu, _ := exec.NewFilter(plain, []exec.Pred{{Col: 0, Op: exec.Gt, I64: 400}})
	a, err := exec.Collect(fp)
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
	if pruned.SkippedBaskets() == 0 {
		t.Fatal("expected at least one skipped basket")
	}
}

func TestPruneValidation(t *testing.T) {
	tree, tab := sortedRootFile(t, 10, 5)
	if _, err := NewRootScanPruned(tree, tab, []int{0}, false, 0,
		&Prune{Col: 7, Op: exec.Lt}); err == nil {
		t.Fatal("expected out-of-range prune column error")
	}
}

func TestRangeExcluded(t *testing.T) {
	// Exhaustive check of the exclusion predicate against brute force over a
	// small domain.
	ops := []exec.CmpOp{exec.Lt, exec.Le, exec.Gt, exec.Ge, exec.Eq, exec.Ne}
	match := func(v, lit int64, op exec.CmpOp) bool {
		switch op {
		case exec.Lt:
			return v < lit
		case exec.Le:
			return v <= lit
		case exec.Gt:
			return v > lit
		case exec.Ge:
			return v >= lit
		case exec.Eq:
			return v == lit
		default:
			return v != lit
		}
	}
	for lo := int64(-3); lo <= 3; lo++ {
		for hi := lo; hi <= 3; hi++ {
			for lit := int64(-4); lit <= 4; lit++ {
				for _, op := range ops {
					any := false
					for v := lo; v <= hi; v++ {
						if match(v, lit, op) {
							any = true
							break
						}
					}
					if got := intRangeExcluded(lo, hi, lit, op); got == any {
						t.Fatalf("intRangeExcluded(%d,%d,%d,%s) = %v but matchable=%v",
							lo, hi, lit, op, got, any)
					}
					if got := floatRangeExcluded(float64(lo), float64(hi), float64(lit), op); got == any {
						t.Fatalf("floatRangeExcluded(%d,%d,%d,%s) = %v but matchable=%v",
							lo, hi, lit, op, got, any)
					}
				}
			}
		}
	}
}
