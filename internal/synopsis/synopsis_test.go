package synopsis

import (
	"math"
	"math/rand"
	"testing"

	"rawdb/internal/exec"
	"rawdb/internal/vector"
)

func buildSeq(t *testing.T, blockRows int64, rows int) *Synopsis {
	t.Helper()
	b := NewBuilder(blockRows, map[int]vector.Type{0: vector.Int64, 1: vector.Float64})
	for r := 0; r < rows; r++ {
		b.Acc(0).ObserveInt64(int64(r * 10)) // sorted key
		b.Acc(1).ObserveFloat64(float64(rows - r))
		b.Advance(1)
	}
	s := b.Finish()
	if s == nil {
		t.Fatal("Finish returned nil")
	}
	return s
}

func TestBuilderBlocksAndBounds(t *testing.T) {
	s := buildSeq(t, 4, 10)
	if s.NRows() != 10 {
		t.Fatalf("NRows = %d", s.NRows())
	}
	if s.NBlocks() != 3 { // 4 + 4 + 2
		t.Fatalf("NBlocks = %d (bounds %v)", s.NBlocks(), s.Bounds())
	}
	want := []int64{0, 4, 8, 10}
	for i, b := range s.Bounds() {
		if b != want[i] {
			t.Fatalf("bounds = %v, want %v", s.Bounds(), want)
		}
	}
	if !s.Tracked(0) || !s.Tracked(1) || s.Tracked(2) {
		t.Fatal("tracked set wrong")
	}
}

func TestExcludes(t *testing.T) {
	s := buildSeq(t, 4, 10) // col0 values: 0,10,...,90; blocks [0,4) [4,8) [8,10)
	cases := []struct {
		p          exec.Pred
		start, end int64
		want       bool
	}{
		// col0 < 5 can only match row 0.
		{exec.Pred{Col: 0, Op: exec.Lt, I64: 5}, 4, 10, true},
		{exec.Pred{Col: 0, Op: exec.Lt, I64: 5}, 0, 4, false},
		// col0 > 75 only matches rows 8, 9 (80, 90).
		{exec.Pred{Col: 0, Op: exec.Gt, I64: 75}, 0, 8, true},
		{exec.Pred{Col: 0, Op: exec.Gt, I64: 75}, 4, 10, false},
		// Equality: min/max can only exclude literals outside the range, so
		// 15 inside block [0,30] is (conservatively) not excludable there,
		// but is below every value of the later blocks.
		{exec.Pred{Col: 0, Op: exec.Eq, I64: 15}, 0, 4, false},
		{exec.Pred{Col: 0, Op: exec.Eq, I64: 15}, 4, 10, true},
		{exec.Pred{Col: 0, Op: exec.Eq, I64: 40}, 0, 4, true},
		{exec.Pred{Col: 0, Op: exec.Eq, I64: 40}, 4, 8, false},
		// Untracked column: never excluded.
		{exec.Pred{Col: 5, Op: exec.Lt, I64: -1}, 0, 10, false},
		// Range escaping coverage: never excluded.
		{exec.Pred{Col: 0, Op: exec.Lt, I64: -1}, 0, 11, false},
		// Float column (values rows..1 descending): col1 > 100 matches nothing.
		{exec.Pred{Col: 1, Op: exec.Gt, F64: 100}, 0, 10, true},
		{exec.Pred{Col: 1, Op: exec.Le, F64: 2.5}, 0, 4, true},
		{exec.Pred{Col: 1, Op: exec.Le, F64: 2.5}, 8, 10, false},
	}
	for i, c := range cases {
		if got := s.Excludes(c.p, c.start, c.end); got != c.want {
			t.Fatalf("case %d: Excludes(%v, [%d,%d)) = %v, want %v", i, c.p, c.start, c.end, got, c.want)
		}
	}
}

func TestConcatMatchesSerial(t *testing.T) {
	// Two fragments covering 10 rows must prune exactly like a serial build
	// for any range, even though block boundaries differ.
	mk := func(lo, hi int) *Synopsis {
		b := NewBuilder(4, map[int]vector.Type{0: vector.Int64})
		for r := lo; r < hi; r++ {
			b.Acc(0).ObserveInt64(int64(r * 10))
			b.Advance(1)
		}
		return b.Finish()
	}
	merged := Concat([]*Synopsis{mk(0, 6), mk(6, 10)})
	if merged == nil || merged.NRows() != 10 {
		t.Fatalf("merged = %+v", merged)
	}
	serial := buildSeq(t, 4, 10)
	for start := int64(0); start < 10; start++ {
		for end := start + 1; end <= 10; end++ {
			for _, lit := range []int64{-5, 0, 35, 90, 95} {
				p := exec.Pred{Col: 0, Op: exec.Lt, I64: lit}
				m, s := merged.Excludes(p, start, end), serial.Excludes(p, start, end)
				// Fragment blocks are at least as fine as serial blocks here,
				// so merged pruning must never be weaker where serial prunes.
				if s && !m {
					t.Fatalf("merged misses exclusion serial found: lit=%d [%d,%d)", lit, start, end)
				}
				// And any exclusion must be sound: verify against the data.
				if m {
					for r := start; r < end; r++ {
						if r*10 < lit {
							t.Fatalf("unsound exclusion: lit=%d row %d", lit, r)
						}
					}
				}
			}
		}
	}
}

// TestNaNObservationsNeverExclude pins the soundness rule for unordered
// values: a block containing NaN gets unbounded float bounds, so no
// predicate — in particular "<>" (which NaN satisfies) — can exclude it.
func TestNaNObservationsNeverExclude(t *testing.T) {
	for _, nanFirst := range []bool{true, false} {
		b := NewBuilder(4, map[int]vector.Type{0: vector.Float64})
		vals := []float64{5, 5, math.NaN(), 5}
		if nanFirst {
			vals[0], vals[2] = vals[2], vals[0]
		}
		for _, v := range vals {
			b.Acc(0).ObserveFloat64(v)
			b.Advance(1)
		}
		s := b.Finish()
		for _, op := range []exec.CmpOp{exec.Lt, exec.Le, exec.Gt, exec.Ge, exec.Eq, exec.Ne} {
			p := exec.Pred{Col: 0, Op: op, F64: 5}
			if s.Excludes(p, 0, 4) {
				t.Fatalf("nanFirst=%v: block with NaN excluded by op %s", nanFirst, op)
			}
		}
		// The unbounded bounds must survive the vault round trip.
		if _, err := Restore(s.NRows(), s.Bounds(), s.Columns()); err != nil {
			t.Fatalf("nanFirst=%v: restore rejected NaN-widened bounds: %v", nanFirst, err)
		}
	}
}

func TestConcatDropsPartialColumns(t *testing.T) {
	b1 := NewBuilder(4, map[int]vector.Type{0: vector.Int64, 1: vector.Int64})
	b1.Acc(0).ObserveInt64(1)
	b1.Acc(1).ObserveInt64(1)
	b1.Advance(1)
	b2 := NewBuilder(4, map[int]vector.Type{0: vector.Int64})
	b2.Acc(0).ObserveInt64(2)
	b2.Advance(1)
	merged := Concat([]*Synopsis{b1.Finish(), b2.Finish()})
	if merged == nil {
		t.Fatal("merged nil")
	}
	if !merged.Tracked(0) || merged.Tracked(1) {
		t.Fatalf("column intersection wrong: %v", merged.Columns())
	}
}

func TestRestoreRejectsCorruptShapes(t *testing.T) {
	good := buildSeq(t, 4, 10)
	if _, err := Restore(good.NRows(), good.Bounds(), good.Columns()); err != nil {
		t.Fatalf("valid restore failed: %v", err)
	}
	cases := []struct {
		name   string
		nrows  int64
		bounds []int64
		cols   []*Column
	}{
		{"negative rows", -1, []int64{0, -1}, nil},
		{"bounds not covering", 10, []int64{0, 5}, good.Columns()},
		{"descending bounds", 10, []int64{0, 6, 4, 10}, good.Columns()},
		{"no columns", 10, []int64{0, 10}, nil},
		{"min > max", 2, []int64{0, 2}, []*Column{{Col: 0, Type: vector.Int64, IMin: []int64{5}, IMax: []int64{1}}}},
		{"nan bounds", 2, []int64{0, 2}, []*Column{{Col: 0, Type: vector.Float64, FMin: []float64{math.NaN()}, FMax: []float64{1}}}},
		{"wrong arity", 10, []int64{0, 10}, []*Column{{Col: 0, Type: vector.Int64, IMin: []int64{1, 2}, IMax: []int64{3, 4}}}},
		{"dup column", 2, []int64{0, 2}, []*Column{
			{Col: 0, Type: vector.Int64, IMin: []int64{1}, IMax: []int64{2}},
			{Col: 0, Type: vector.Int64, IMin: []int64{1}, IMax: []int64{2}},
		}},
	}
	for _, c := range cases {
		if _, err := Restore(c.nrows, c.bounds, c.cols); err == nil {
			t.Fatalf("%s: restore accepted corrupt shape", c.name)
		}
	}
}

// TestTestMatchesExcludes: one scan's Test answers every range as Excludes
// of each predicate in turn does, and once closed has added exactly the
// checks and hits those calls count, over ascending batch grids (forward
// search, short and long steps) and over ranges in random order.
func TestTestMatchesExcludes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := buildSeq(t, 16, 3000)
	ref := buildSeq(t, 16, 3000)
	for i := range 300 {
		var preds []exec.Pred
		for range 1 + rng.Intn(3) {
			preds = append(preds, exec.Pred{Col: rng.Intn(3), Op: exec.CmpOp(rng.Intn(6)),
				I64: rng.Int63n(32000) - 1000, F64: float64(rng.Intn(3200)) - 100})
		}
		test := s.NewTest(preds)
		var ranges [][2]int64
		for lo, step := int64(rng.Intn(50)), int64(1+rng.Intn(400)); lo < 3100; lo += step {
			ranges = append(ranges, [2]int64{lo, lo + step})
		}
		if i%3 == 0 {
			rng.Shuffle(len(ranges), func(a, b int) { ranges[a], ranges[b] = ranges[b], ranges[a] })
		}
		for _, r := range ranges {
			want := false
			for _, p := range preds {
				if ref.Excludes(p, r[0], r[1]) {
					want = true
					break
				}
			}
			if test == nil {
				if want {
					t.Fatalf("preds %v: no test, but Excludes excludes %v", preds, r)
				}
				continue
			}
			if got := test.Excludes(r[0], r[1]); got != want {
				t.Fatalf("preds %v range %v: Test says %v, Excludes %v", preds, r, got, want)
			}
		}
		if test != nil {
			test.Close()
		}
		if c, h := s.PruneStats(); c != ref.checks.Load() || h != ref.hits.Load() {
			t.Fatalf("after case %d: Test counted %d checks and %d hits, Excludes %d and %d", i, c, h, ref.checks.Load(), ref.hits.Load())
		}
	}
}
