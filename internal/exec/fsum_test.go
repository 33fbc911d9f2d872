package exec

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"rawdb/internal/vector"
)

// bigSum computes the correctly rounded float64 sum of vals and the
// correctly rounded residue sum-hi through 2200-bit arithmetic (as
// bench/oracle.go does): the positions of a finite double span 2098 bits, so
// any sum of fewer than 2^100 of them is exact. It is the independent
// reference fsum's round and compress must match bit for bit. Non-finite
// values dominate with IEEE addition, as in fsum.
func bigSum(vals []float64) (hi, lo float64) {
	acc := new(big.Float).SetPrec(2200)
	var special float64
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			special += v
			continue
		}
		acc.Add(acc, new(big.Float).SetFloat64(v))
	}
	if special != 0 {
		return special, 0
	}
	hi, _ = acc.Float64()
	if math.IsInf(hi, 0) {
		return hi, 0
	}
	lo, _ = acc.Sub(acc, new(big.Float).SetFloat64(hi)).Float64()
	return hi, lo
}

// sameFloat reports bit-identical floats, treating every NaN as one value.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkFsum adds vals to a fresh fsum and compares round and compress with
// bigSum.
func checkFsum(t *testing.T, vals []float64) {
	t.Helper()
	var s fsum
	for _, v := range vals {
		s.add(v)
	}
	wantHi, wantLo := bigSum(vals)
	got := s.round()
	hi, lo := s.compress()
	if !sameFloat(got, wantHi) || !sameFloat(hi, wantHi) || !sameFloat(lo, wantLo) {
		t.Fatalf("%d values: round %v, compress (%v, %v); want (%v, %v)\nvalues %v",
			len(vals), got, hi, lo, wantHi, wantLo, vals)
	}
}

// wideFloat draws a finite double from anywhere in the range: any binade,
// subnormal, or near overflow, with either sign.
func wideFloat(rng *rand.Rand) float64 {
	var v float64
	switch rng.Intn(4) {
	case 0:
		v = math.Ldexp(rng.Float64(), rng.Intn(2099)-1074)
	case 1:
		v = math.Float64frombits(rng.Uint64() & (1<<52 - 1))
	case 2:
		v = math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(2040+rng.Intn(7))<<52)
	default:
		v = math.Ldexp(rng.Float64(), rng.Intn(120)-60)
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func TestFsumMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		if trial%10 == 0 {
			n = 1 + rng.Intn(3000) // past carryEvery
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = wideFloat(rng)
			if i > 0 && rng.Intn(4) == 0 {
				vals[i] = -vals[rng.Intn(i)] // cancellation
			}
		}
		checkFsum(t, vals)
	}
}

func FuzzFsum(f *testing.F) {
	for _, vals := range [][]float64{
		{1e308, 1e308, -1e308},
		{0.1, 0.2, 0.3, -0.6},
		{math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64, 0x1p-1022},
		{math.Inf(1), 1, math.NaN()},
	} {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		checkFsum(t, vals)
	})
}

// TestFsumOrderIndependent: the sum is exact, so every order of the same
// values rounds to the same float — including orders whose running float sum
// would overflow.
func TestFsumOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = math.Ldexp(rng.Float64()*2-1, rng.Intn(100)-50)
	}
	for _, vals := range [][]float64{vals, {1e308, 1e308, -1e308}, {-math.MaxFloat64, 1, -math.MaxFloat64, math.MaxFloat64}} {
		want, _ := bigSum(vals)
		for trial := 0; trial < 20; trial++ {
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			var s fsum
			for _, v := range vals {
				s.add(v)
			}
			if got := s.round(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("order %v: sum %v differs from %v", vals[:min(len(vals), 4)], got, want)
			}
		}
	}
}

func TestFsumAdversarialCancellation(t *testing.T) {
	cases := [][]float64{
		{1e16, 1, -1e16}, // absorbed then revealed
		{math.MaxFloat64, 1, -math.MaxFloat64},
		{1, 1e100, 1, -1e100},
		{1e-300, 1e300, -1e300, 1e-300},
		{0.1, 0.2, 0.3, -0.6},
	}
	// Past 4096 same-sign values near MaxFloat64, carries outgrow the
	// window's top digit and extend it.
	var many []float64
	for range 5000 {
		many = append(many, math.MaxFloat64)
	}
	cases = append(cases, many)
	for range 4999 {
		many = append(many, -math.MaxFloat64)
	}
	cases = append(cases, many, append(many, -math.MaxFloat64, 0x1p-1074))
	for _, vals := range cases {
		checkFsum(t, vals)
	}
}

func TestFsumSpecials(t *testing.T) {
	var s fsum
	s.add(1)
	s.add(math.Inf(1))
	s.add(2)
	if got := s.round(); !math.IsInf(got, 1) {
		t.Fatalf("sum with +Inf = %v, want +Inf", got)
	}
	var n fsum
	n.add(math.Inf(1))
	n.add(math.Inf(-1))
	if got := n.round(); !math.IsNaN(got) {
		t.Fatalf("sum of opposing Infs = %v, want NaN", got)
	}
}

// TestFsumCompressRoundTrip: for any input set, hi must be the rounded sum
// and hi+lo must re-merge to the same rounded sum through a fresh expansion —
// the exchange-transport invariant behind SumErr/MergeSum. A sum that
// overflows travels as (±Inf, 0), so the merge sees ±Inf and not Inf-Inf.
func TestFsumCompressRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sets := [][]float64{{1e308, 1e308}, {-math.MaxFloat64, -1e300, 1}}
	for trial := 0; trial < 100; trial++ {
		vals := make([]float64, 1+rng.Intn(100))
		for i := range vals {
			vals[i] = math.Ldexp(rng.Float64()*2-1, rng.Intn(120)-60)
		}
		sets = append(sets, vals)
	}
	for i, vals := range sets {
		var s fsum
		for _, v := range vals {
			s.add(v)
		}
		want, _ := bigSum(vals)
		hi, lo := s.compress()
		if math.Float64bits(hi) != math.Float64bits(want) {
			t.Fatalf("set %d: compress hi %v, want %v", i, hi, want)
		}
		if math.IsInf(hi, 0) && lo != 0 {
			t.Fatalf("set %d: overflowed hi %v with residue %v", i, hi, lo)
		}
		var m fsum
		m.add(hi)
		m.add(lo)
		if got := m.round(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("set %d: hi+lo re-merge %v != %v", i, got, want)
		}
	}
}

// TestAggregateFloatSumExact: the serial aggregate's float SUM/AVG must be
// the correctly rounded exact sum, not a running-error accumulation.
func TestAggregateFloatSumExact(t *testing.T) {
	vals := []float64{1e16, 3.5, -1e16, 0.25, 2.5, -0.125}
	schema := vector.Schema{{Name: "x", Type: vector.Float64}}
	scan := memScan(t, schema, []*vector.Vector{floatVec(vals...)}, 2)
	agg, err := NewAggregate(scan, []AggSpec{
		{Func: Sum, Col: 0}, {Func: Avg, Col: 0},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, _ := bigSum(vals)
	if got := cols[0].Float64s[0]; math.Float64bits(got) != math.Float64bits(wantSum) {
		t.Fatalf("SUM = %v, want exact %v", got, wantSum)
	}
	wantAvg := wantSum / float64(len(vals))
	if got := cols[1].Float64s[0]; math.Float64bits(got) != math.Float64bits(wantAvg) {
		t.Fatalf("AVG = %v, want %v", got, wantAvg)
	}
}

// TestAggregateMergeSumTransport runs the full two-stage parallel shape over
// adversarial data: per-morsel Sum+SumErr partials merged by MergeSum must
// reproduce the single-pass rounded sum bit for bit, for any morsel split.
func TestAggregateMergeSumTransport(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = math.Ldexp(rng.Float64()*2-1, rng.Intn(110)-55)
	}
	want, _ := bigSum(vals)
	schema := vector.Schema{{Name: "x", Type: vector.Float64}}
	for _, nmorsels := range []int{1, 2, 3, 7, 16} {
		// Stage 1: per-morsel partials (hi, lo).
		his, los := vector.New(vector.Float64, nmorsels), vector.New(vector.Float64, nmorsels)
		for m := 0; m < nmorsels; m++ {
			lo, hi := len(vals)*m/nmorsels, len(vals)*(m+1)/nmorsels
			scan := memScan(t, schema, []*vector.Vector{floatVec(vals[lo:hi]...)}, 64)
			agg, err := NewAggregate(scan, []AggSpec{
				{Func: Sum, Col: 0, As: "hi"}, {Func: SumErr, Col: 0, As: "lo"},
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			cols, err := Collect(agg)
			if err != nil {
				t.Fatal(err)
			}
			his.AppendFloat64(cols[0].Float64s[0])
			los.AppendFloat64(cols[1].Float64s[0])
		}
		// Stage 2: merge the transported pairs.
		pschema := vector.Schema{{Name: "hi", Type: vector.Float64}, {Name: "lo", Type: vector.Float64}}
		scan := memScan(t, pschema, []*vector.Vector{his, los}, 8)
		merge, err := NewAggregate(scan, []AggSpec{{Func: MergeSum, Col: 0, Col2: 1}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cols, err := Collect(merge)
		if err != nil {
			t.Fatal(err)
		}
		if got := cols[0].Float64s[0]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("morsels=%d: merged sum %v (bits %x), want %v (bits %x)",
				nmorsels, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestAggregateNewFuncValidation(t *testing.T) {
	schema := vector.Schema{
		{Name: "i", Type: vector.Int64},
		{Name: "f", Type: vector.Float64},
	}
	scan := memScan(t, schema, []*vector.Vector{intVec(1), floatVec(1)}, 0)
	if _, err := NewAggregate(scan, []AggSpec{{Func: SumErr, Col: 0}}, nil); err == nil {
		t.Fatal("SUMERR over BIGINT column accepted")
	}
	if _, err := NewAggregate(scan, []AggSpec{{Func: MergeSum, Col: 1, Col2: 0}}, nil); err == nil {
		t.Fatal("MERGESUM with BIGINT residue column accepted")
	}
	if _, err := NewAggregate(scan, []AggSpec{{Func: MergeSum, Col: 1, Col2: 9}}, nil); err == nil {
		t.Fatal("MERGESUM with out-of-range residue column accepted")
	}
}

func TestDivide(t *testing.T) {
	schema := vector.Schema{
		{Name: "s", Type: vector.Float64},
		{Name: "n", Type: vector.Int64},
	}
	scan := memScan(t, schema, []*vector.Vector{floatVec(10, 0, -3), intVec(4, 0, 2)}, 2)
	div, err := NewDivide(scan, 0, 1, "avg")
	if err != nil {
		t.Fatal(err)
	}
	if got := div.Schema()[2].Name; got != "avg" {
		t.Fatalf("quotient column named %q", got)
	}
	cols, err := Collect(div)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2.5, 0, -1.5} // zero denominator divides to 0, not NaN
	for i, w := range want {
		if got := cols[2].Float64s[i]; got != w {
			t.Fatalf("row %d: quotient %v, want %v", i, got, w)
		}
	}
}

func TestDivideIntNumerator(t *testing.T) {
	schema := vector.Schema{
		{Name: "s", Type: vector.Int64},
		{Name: "n", Type: vector.Int64},
	}
	scan := memScan(t, schema, []*vector.Vector{intVec(7), intVec(2)}, 0)
	div, err := NewDivide(scan, 0, 1, "q")
	if err != nil {
		t.Fatal(err)
	}
	cols, err := Collect(div)
	if err != nil {
		t.Fatal(err)
	}
	if got := cols[2].Float64s[0]; got != 3.5 {
		t.Fatalf("7/2 = %v, want 3.5", got)
	}
}

func TestDivideValidation(t *testing.T) {
	schema := vector.Schema{
		{Name: "s", Type: vector.Float64},
		{Name: "n", Type: vector.Float64},
	}
	scan := memScan(t, schema, []*vector.Vector{floatVec(1), floatVec(1)}, 0)
	if _, err := NewDivide(scan, 0, 1, "q"); err == nil {
		t.Fatal("float denominator accepted")
	}
	if _, err := NewDivide(scan, 5, 1, "q"); err == nil {
		t.Fatal("out-of-range numerator accepted")
	}
}
