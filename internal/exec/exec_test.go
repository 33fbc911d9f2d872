package exec

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"rawdb/internal/vector"
)

func intVec(vals ...int64) *vector.Vector {
	v := vector.New(vector.Int64, len(vals))
	v.Int64s = append(v.Int64s, vals...)
	return v
}

func floatVec(vals ...float64) *vector.Vector {
	v := vector.New(vector.Float64, len(vals))
	v.Float64s = append(v.Float64s, vals...)
	return v
}

func memScan(t *testing.T, schema vector.Schema, cols []*vector.Vector, batch int) *MemScan {
	t.Helper()
	s, err := NewMemScan(schema, cols, batch)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMemScanBatching: a MemScan streams its columns in batches, emits the
// row-id column its schema names past them, and absorbs bound predicates into
// selection vectors, skipping the ranges no row survives.
func TestMemScanBatching(t *testing.T) {
	const n = 10
	a, b := intVec(), floatVec()
	for i := 0; i < n; i++ {
		a.AppendInt64(int64(i))
		b.AppendFloat64(float64(i) * 10)
	}
	schema := vector.Schema{{Name: "a", Type: vector.Int64}, {Name: "b", Type: vector.Float64}}
	withRID := append(schema[:2:2], vector.Col{Name: "rid", Type: vector.Int64})
	type batch struct {
		start int
		sel   []int32
	}
	dense := []batch{{0, nil}, {3, nil}, {6, nil}, {9, nil}}
	for _, c := range []struct {
		name    string
		schema  vector.Schema
		preds   []Pred
		batches []batch
		pruned  int64
	}{
		{"plain", schema, nil, dense, 0},
		{"rid", withRID, nil, dense, 0},
		// Rows 0-2: only row 2 qualifies; 3-5 all do; 6-8 and 9 none do.
		{"preds", withRID, []Pred{{Col: 0, Op: Ge, I64: 2}, {Col: 1, Op: Lt, F64: 60}},
			[]batch{{0, []int32{2}}, {3, nil}}, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := NewMemScanPred(c.schema, []*vector.Vector{a, b}, 3, c.preds)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Open(); err != nil {
				t.Fatal(err)
			}
			for _, want := range c.batches {
				bt, err := s.Next()
				if err != nil || bt == nil {
					t.Fatalf("batch from row %d: %v, %v", want.start, bt, err)
				}
				if len(bt.Cols) != len(c.schema) || !reflect.DeepEqual(bt.Sel, want.sel) {
					t.Fatalf("batch from row %d: %d columns, sel %v; want %d, %v",
						want.start, len(bt.Cols), bt.Sel, len(c.schema), want.sel)
				}
				for i := 0; i < bt.Len(); i++ {
					row := want.start + i
					if bt.Cols[0].Int64s[i] != int64(row) || bt.Cols[1].Float64s[i] != float64(row)*10 ||
						len(bt.Cols) == 3 && bt.Cols[2].Int64s[i] != int64(row) {
						t.Fatalf("row %d wrong in batch from row %d", row, want.start)
					}
				}
			}
			if bt, err := s.Next(); bt != nil || err != nil {
				t.Fatalf("extra batch %v, %v", bt, err)
			}
			if s.RowsPruned() != c.pruned {
				t.Fatalf("RowsPruned = %d, want %d", s.RowsPruned(), c.pruned)
			}
		})
	}
}

func TestMemScanValidation(t *testing.T) {
	schema := vector.Schema{{Name: "a", Type: vector.Int64}}
	if _, err := NewMemScan(schema, nil, 0); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := NewMemScan(schema, []*vector.Vector{floatVec(1)}, 0); err == nil {
		t.Fatal("expected type mismatch error")
	}
	two := vector.Schema{{Name: "a", Type: vector.Int64}, {Name: "b", Type: vector.Int64}}
	if _, err := NewMemScan(two, []*vector.Vector{intVec(1), intVec(1, 2)}, 0); err == nil {
		t.Fatal("expected ragged column error")
	}
	// A row-id column must be Int64 and follow at least one column.
	if _, err := NewMemScan(vector.Schema{{Name: "a", Type: vector.Int64}, {Name: "rid", Type: vector.Float64}},
		[]*vector.Vector{intVec(1)}, 0); err == nil {
		t.Fatal("expected arity error for a non-integer row-id column")
	}
}

func TestProject(t *testing.T) {
	schema := vector.Schema{{Name: "a", Type: vector.Int64}, {Name: "b", Type: vector.Float64}}
	s := memScan(t, schema, []*vector.Vector{intVec(1, 2), floatVec(0.5, 1.5)}, 0)
	p, err := NewProject(s, []int{1}, []string{"renamed"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Schema()[0].Name != "renamed" || p.Schema()[0].Type != vector.Float64 {
		t.Fatalf("schema = %+v", p.Schema())
	}
	out, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Len() != 2 || out[0].Float64s[1] != 1.5 {
		t.Fatalf("out = %v", out[0].Float64s)
	}
	if _, err := NewProject(s, []int{7}, nil); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestFilterInt(t *testing.T) {
	schema := vector.Schema{{Name: "a", Type: vector.Int64}, {Name: "b", Type: vector.Int64}}
	a := intVec(5, 1, 9, 3, 7)
	b := intVec(50, 10, 90, 30, 70)
	s := memScan(t, schema, []*vector.Vector{a, b}, 2)
	f, err := NewFilter(s, []Pred{{Col: 0, Op: Lt, I64: 6}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{50, 10, 30}
	if len(out[1].Int64s) != len(want) {
		t.Fatalf("got %v", out[1].Int64s)
	}
	for i, w := range want {
		if out[1].Int64s[i] != w {
			t.Fatalf("out[%d] = %d, want %d", i, out[1].Int64s[i], w)
		}
	}
}

func TestFilterConjunction(t *testing.T) {
	schema := vector.Schema{{Name: "a", Type: vector.Int64}, {Name: "b", Type: vector.Float64}}
	s := memScan(t, schema,
		[]*vector.Vector{intVec(1, 2, 3, 4), floatVec(1.0, 2.0, 3.0, 4.0)}, 0)
	f, err := NewFilter(s, []Pred{
		{Col: 0, Op: Ge, I64: 2},
		{Col: 1, Op: Lt, F64: 4.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].Int64s; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestFilterAllOps(t *testing.T) {
	vals := []int64{1, 2, 3}
	want := map[CmpOp][]int64{
		Lt: {1}, Le: {1, 2}, Gt: {3}, Ge: {2, 3}, Eq: {2}, Ne: {1, 3},
	}
	for op, exp := range want {
		s := memScan(t, vector.Schema{{Name: "a", Type: vector.Int64}},
			[]*vector.Vector{intVec(vals...)}, 0)
		f, err := NewFilter(s, []Pred{{Col: 0, Op: op, I64: 2}})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(out[0].Int64s) != len(exp) {
			t.Fatalf("op %s: got %v, want %v", op, out[0].Int64s, exp)
		}
		for i := range exp {
			if out[0].Int64s[i] != exp[i] {
				t.Fatalf("op %s: got %v, want %v", op, out[0].Int64s, exp)
			}
		}
	}
}

func TestFilterPropertyMatchesNaive(t *testing.T) {
	prop := func(vals []int64, lit int64, opRaw uint8) bool {
		op := CmpOp(opRaw % 6)
		s, err := NewMemScan(vector.Schema{{Name: "a", Type: vector.Int64}},
			[]*vector.Vector{intVec(vals...)}, 7)
		if err != nil {
			return false
		}
		f, err := NewFilter(s, []Pred{{Col: 0, Op: op, I64: lit}})
		if err != nil {
			return false
		}
		out, err := Collect(f)
		if err != nil {
			return false
		}
		var want []int64
		for _, v := range vals {
			if cmp(v, lit, op) {
				want = append(want, v)
			}
		}
		if len(out[0].Int64s) != len(want) {
			return false
		}
		for i := range want {
			if out[0].Int64s[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFilterValidation(t *testing.T) {
	s := memScan(t, vector.Schema{{Name: "a", Type: vector.Int64}},
		[]*vector.Vector{intVec(1)}, 0)
	if _, err := NewFilter(s, []Pred{{Col: 3, Op: Lt}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestAggregateUngrouped(t *testing.T) {
	schema := vector.Schema{{Name: "a", Type: vector.Int64}, {Name: "f", Type: vector.Float64}}
	s := memScan(t, schema,
		[]*vector.Vector{intVec(4, 1, 3, 2), floatVec(1.0, 2.0, 3.0, 4.0)}, 3)
	agg, err := NewAggregate(s, []AggSpec{
		{Func: Max, Col: 0},
		{Func: Min, Col: 0},
		{Func: Sum, Col: 0},
		{Func: Count, Col: -1},
		{Func: Avg, Col: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Int64s[0] != 4 || out[1].Int64s[0] != 1 || out[2].Int64s[0] != 10 {
		t.Fatalf("max/min/sum = %d/%d/%d", out[0].Int64s[0], out[1].Int64s[0], out[2].Int64s[0])
	}
	if out[3].Int64s[0] != 4 {
		t.Fatalf("count = %d", out[3].Int64s[0])
	}
	if out[4].Float64s[0] != 2.5 {
		t.Fatalf("avg = %v", out[4].Float64s[0])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	s := memScan(t, vector.Schema{{Name: "a", Type: vector.Int64}},
		[]*vector.Vector{intVec()}, 0)
	agg, err := NewAggregate(s, []AggSpec{{Func: Count, Col: -1}, {Func: Max, Col: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Int64s[0] != 0 || out[1].Int64s[0] != 0 {
		t.Fatalf("empty-input aggregates = %v %v", out[0].Int64s, out[1].Int64s)
	}
}

func TestAggregateGrouped(t *testing.T) {
	schema := vector.Schema{{Name: "g", Type: vector.Int64}, {Name: "v", Type: vector.Int64}}
	s := memScan(t, schema,
		[]*vector.Vector{intVec(1, 2, 1, 2, 3), intVec(10, 20, 30, 40, 50)}, 2)
	agg, err := NewAggregate(s, []AggSpec{{Func: Sum, Col: 1}, {Func: Count, Col: -1}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64][2]int64{}
	for i := 0; i < out[0].Len(); i++ {
		got[out[0].Int64s[i]] = [2]int64{out[1].Int64s[i], out[2].Int64s[i]}
	}
	want := map[int64][2]int64{1: {40, 2}, 2: {60, 2}, 3: {50, 1}}
	if len(got) != len(want) {
		t.Fatalf("groups = %v", got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("group %d = %v, want %v", k, got[k], w)
		}
	}
}

// TestAggregateDenseRegrowth feeds the grouped aggregate a few small keys,
// arriving in rising order, among keys too large for the dense table. Each
// small key lies past the table's end, so each regrows it: the bytes that
// allocates must stay a small multiple of the final table (8 MiB), not a copy
// of the table per key. The answer must match the hash path's, reached by
// shifting every key past denseLimit.
func TestAggregateDenseRegrowth(t *testing.T) {
	const small, stride = 1000, 2048 // 999*2048 < denseLimit
	var keys, vals []int64
	for i := int64(0); i < small; i++ {
		keys = append(keys, i*stride, denseLimit+7*i, i*stride, 3*denseLimit+i)
		vals = append(vals, i, 2*i, 3*i, 4*i)
	}
	run := func(shift int64) []*vector.Vector {
		shifted := make([]int64, len(keys))
		for i, k := range keys {
			shifted[i] = k + shift
		}
		schema := vector.Schema{{Name: "g", Type: vector.Int64}, {Name: "v", Type: vector.Int64}}
		s := memScan(t, schema, []*vector.Vector{intVec(shifted...), intVec(vals...)}, 512)
		agg, err := NewAggregate(s, []AggSpec{{Func: Sum, Col: 1}, {Func: Count, Col: -1}}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(agg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := run(0)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Errorf("aggregate allocated %d MiB for %d rising keys; the dense table is 8 MiB", alloc>>20, small)
	}
	want := run(4 * denseLimit)
	if got[0].Len() != 3*small || want[0].Len() != got[0].Len() {
		t.Fatalf("%d groups on the dense path, %d on the hash path, want %d", got[0].Len(), want[0].Len(), 3*small)
	}
	for i := range got[0].Int64s {
		if got[0].Int64s[i] != want[0].Int64s[i]-4*denseLimit ||
			got[1].Int64s[i] != want[1].Int64s[i] || got[2].Int64s[i] != want[2].Int64s[i] {
			t.Fatalf("group %d: dense path (%d, %d, %d), hash path (%d, %d, %d)", i,
				got[0].Int64s[i], got[1].Int64s[i], got[2].Int64s[i],
				want[0].Int64s[i]-4*denseLimit, want[1].Int64s[i], want[2].Int64s[i])
		}
	}
}

func TestAggregateSchemaNames(t *testing.T) {
	s := memScan(t, vector.Schema{{Name: "x", Type: vector.Int64}},
		[]*vector.Vector{intVec(1)}, 0)
	agg, err := NewAggregate(s, []AggSpec{
		{Func: Max, Col: 0},
		{Func: Count, Col: -1},
		{Func: Avg, Col: 0, As: "mean"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := agg.Schema()
	if sc[0].Name != "MAX(x)" || sc[1].Name != "COUNT(*)" || sc[2].Name != "mean" {
		t.Fatalf("schema names = %v", sc)
	}
	if sc[2].Type != vector.Float64 {
		t.Fatalf("AVG output type = %s", sc[2].Type)
	}
}

func TestAggregateValidation(t *testing.T) {
	s := memScan(t, vector.Schema{{Name: "x", Type: vector.Int64}},
		[]*vector.Vector{intVec(1)}, 0)
	if _, err := NewAggregate(s, nil, nil); err == nil {
		t.Fatal("expected error for no specs")
	}
	if _, err := NewAggregate(s, []AggSpec{{Func: Max, Col: 5}}, nil); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := NewAggregate(s, []AggSpec{{Func: Max, Col: 0}}, []int{0, 0, 0}); err == nil {
		t.Fatal("expected too-many-group-columns error")
	}
}

// hashJoin is the serial plan's join: one probe over the build.
func hashJoin(left, right Operator, leftKey, rightKey int) (*HashProbe, error) {
	build, err := NewSharedBuild(right, rightKey, 1)
	if err != nil {
		return nil, err
	}
	return NewHashProbe(left, build, leftKey)
}

func TestHashJoinBasic(t *testing.T) {
	ls := vector.Schema{{Name: "lk", Type: vector.Int64}, {Name: "lv", Type: vector.Int64}}
	rs := vector.Schema{{Name: "rk", Type: vector.Int64}, {Name: "rv", Type: vector.Float64}}
	left := memScan(t, ls, []*vector.Vector{intVec(1, 2, 3, 4), intVec(10, 20, 30, 40)}, 2)
	right := memScan(t, rs, []*vector.Vector{intVec(2, 4, 6), floatVec(0.2, 0.4, 0.6)}, 2)
	j, err := hashJoin(left, right, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	// Probe order preserved: keys 2 then 4.
	if out[0].Len() != 2 {
		t.Fatalf("join produced %d rows", out[0].Len())
	}
	if out[0].Int64s[0] != 2 || out[1].Int64s[0] != 20 || out[3].Float64s[0] != 0.2 {
		t.Fatalf("row 0 = %v %v %v", out[0].Int64s[0], out[1].Int64s[0], out[3].Float64s[0])
	}
	if out[0].Int64s[1] != 4 || out[3].Float64s[1] != 0.4 {
		t.Fatalf("row 1 wrong")
	}
}

func TestHashJoinDuplicateBuildKeys(t *testing.T) {
	ls := vector.Schema{{Name: "lk", Type: vector.Int64}}
	rs := vector.Schema{{Name: "rk", Type: vector.Int64}, {Name: "rv", Type: vector.Int64}}
	left := memScan(t, ls, []*vector.Vector{intVec(7, 8)}, 0)
	right := memScan(t, rs, []*vector.Vector{intVec(7, 7, 8), intVec(1, 2, 3)}, 0)
	j, err := hashJoin(left, right, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if got := out[2].Int64s; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("build rows %v, want [1 2 3]", got)
	}
}

// TestHashJoinPropertyMatchesNestedLoop cross-checks the join against a
// naive nested loop, row for row and batch for batch: random keys with
// duplicates on both sides and random selections, then the edge cases.
func TestHashJoinPropertyMatchesNestedLoop(t *testing.T) {
	prop := func(lraw, rraw []uint8, mask []bool, inBatch, outBatch uint8, seed int64) bool {
		lk := make([]int64, len(lraw))
		for i, v := range lraw {
			lk[i] = int64(v%16) - 8
		}
		rk := make([]int64, len(rraw))
		for i, v := range rraw {
			rk[i] = int64(v%16) - 8
		}
		keep := make([]bool, len(lk))
		for i := range keep {
			keep[i] = i >= len(mask) || mask[i]
		}
		if err := joinDiff(rk, lk, keep, int(inBatch%8)+1, int(outBatch%8)+1, seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	bs := vector.DefaultBatchSize
	extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, -7, 1, math.MinInt64 + 1}
	shared := bucketZeroKeys(20)
	many := make([]int64, 2*bs+37)
	for i := range many {
		many[i] = 5
	}
	every := make([]bool, 3*bs)
	for i := range every {
		every[i] = i%3 != 1
	}
	for _, c := range []struct {
		name   string
		bk, pk []int64
		keep   []bool
		in     int
	}{
		{"extremes", append(extremes, extremes...), append(extremes, 42, math.MaxInt64), nil, 3},
		{"small table", []int64{4, 4, 9}, []int64{9, 4, 1, 4, 2, 3}, nil, 2},
		{"shared top bits", shared, append(shared[10:], shared[:15]...), nil, 4},
		{"resume mid-chain", append([]int64{4}, append(many, 6)...), []int64{6, 5, 7, 5, 4}, nil, 2},
		{"sel", seqKeys(3*bs, 50), seqKeys(3*bs, 70), every, 300},
		{"empty build", nil, []int64{1, 2}, nil, 0},
		{"empty probe", []int64{1, 2}, nil, nil, 0},
		{"full batches", seqKeys(5*bs, 900), seqKeys(4*bs+3, 1000), nil, 0},
	} {
		if err := joinDiff(c.bk, c.pk, c.keep, c.in, bs, 0); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// bucketZeroKeys returns n keys that land in bucket 0 of the 64-bucket
// table an n-row build gets under seed 0 (n in 17..32).
func bucketZeroKeys(n int) []int64 {
	var ks []int64
	for k := int64(0); len(ks) < n; k++ {
		if khash(k)>>58 == 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// seqKeys returns n keys cycling through 0..mod-1.
func seqKeys(n int, mod int64) []int64 {
	ks := make([]int64, n)
	for i := range ks {
		ks[i] = int64(i) % mod
	}
	return ks
}

func TestHashJoinValidation(t *testing.T) {
	ls := vector.Schema{{Name: "k", Type: vector.Float64}}
	left := memScan(t, ls, []*vector.Vector{floatVec(1)}, 0)
	right := memScan(t, vector.Schema{{Name: "k", Type: vector.Int64}},
		[]*vector.Vector{intVec(1)}, 0)
	if _, err := hashJoin(left, right, 0, 0); err == nil {
		t.Fatal("expected key type error")
	}
	if _, err := hashJoin(right, right, 5, 0); err == nil {
		t.Fatal("expected key range error")
	}
	if _, err := hashJoin(right, right, 0, 5); err == nil {
		t.Fatal("expected build key range error")
	}
}

func TestHashJoinLargeSpillsBatches(t *testing.T) {
	// More output rows than one batch to exercise batch splitting.
	n := 3000
	lk := make([]int64, n)
	for i := range lk {
		lk[i] = int64(i)
	}
	left := memScan(t, vector.Schema{{Name: "k", Type: vector.Int64}},
		[]*vector.Vector{intVec(lk...)}, 0)
	right := memScan(t, vector.Schema{{Name: "k", Type: vector.Int64}},
		[]*vector.Vector{intVec(lk...)}, 0)
	j, err := hashJoin(left, right, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Len() != n {
		t.Fatalf("got %d rows, want %d", out[0].Len(), n)
	}
	for i := 0; i < n; i++ {
		if out[0].Int64s[i] != int64(i) || out[1].Int64s[i] != int64(i) {
			t.Fatalf("row %d keys %d, %d", i, out[0].Int64s[i], out[1].Int64s[i])
		}
	}
}

func TestAggregateOverJoinPipeline(t *testing.T) {
	// Integration: scan -> filter -> join -> aggregate.
	rng := rand.New(rand.NewSource(5))
	n := 500
	lk := make([]int64, n)
	lv := make([]int64, n)
	for i := range lk {
		lk[i] = int64(i)
		lv[i] = rng.Int63n(1000)
	}
	left := memScan(t, vector.Schema{{Name: "k", Type: vector.Int64}, {Name: "v", Type: vector.Int64}},
		[]*vector.Vector{intVec(lk...), intVec(lv...)}, 64)
	right := memScan(t, vector.Schema{{Name: "k", Type: vector.Int64}},
		[]*vector.Vector{intVec(lk...)}, 64)
	f, err := NewFilter(left, []Pred{{Col: 1, Op: Lt, I64: 500}})
	if err != nil {
		t.Fatal(err)
	}
	j, err := hashJoin(f, right, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewAggregate(j, []AggSpec{{Func: Max, Col: 1}, {Func: Count, Col: -1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	var wantMax, wantCount int64
	for i := range lk {
		if lv[i] < 500 {
			wantCount++
			if lv[i] > wantMax {
				wantMax = lv[i]
			}
		}
	}
	if out[0].Int64s[0] != wantMax || out[1].Int64s[0] != wantCount {
		t.Fatalf("max/count = %d/%d, want %d/%d",
			out[0].Int64s[0], out[1].Int64s[0], wantMax, wantCount)
	}
}

func TestCmpOpString(t *testing.T) {
	if Lt.String() != "<" || Ne.String() != "<>" || Ge.String() != ">=" {
		t.Fatal("CmpOp strings wrong")
	}
}

func TestAggFuncString(t *testing.T) {
	if Min.String() != "MIN" || Avg.String() != "AVG" {
		t.Fatal("AggFunc strings wrong")
	}
}
