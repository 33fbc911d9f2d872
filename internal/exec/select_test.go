package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rawdb/internal/vector"
)

// Literal and data pools: values equal to each other, signed zeros, the
// infinities, NaN and the int64 extremes, where a comparison kernel that
// reorders or rewrites a comparison would first go wrong.
var (
	selInts   = []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, math.MaxInt64}
	selFloats = []float64{math.Inf(-1), -math.MaxFloat64, -1.5, -1, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1, 1.5, math.MaxFloat64, math.Inf(1), math.NaN()}
)

// naiveSelect is the per-row reference for Select: the candidate rows — in,
// or [0, n) when in is nil — that satisfy every predicate, in order.
func naiveSelect(cols []*vector.Vector, preds []Pred, in []int32, n int) []int32 {
	rows := in
	if in == nil {
		for r := range n {
			rows = append(rows, int32(r))
		}
	}
	out := []int32{}
	for _, r := range rows {
		ok := true
		for _, p := range preds {
			if v := cols[p.Col]; v.Type == vector.Int64 {
				ok = ok && naiveHolds(v.Int64s[r], p.I64, p.Op)
			} else {
				ok = ok && naiveHolds(v.Float64s[r], p.F64, p.Op)
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

// naiveHolds spells out each operator, one row at a time.
func naiveHolds[T int64 | float64](x, lit T, op CmpOp) bool {
	switch op {
	case Lt:
		return x < lit
	case Le:
		return x < lit || x == lit
	case Gt:
		return lit < x
	case Ge:
		return lit < x || x == lit
	case Eq:
		return x == lit
	case Ne:
		return !(x == lit)
	}
	panic(fmt.Sprintf("op %d", op))
}

// selCols is the test batch: column 0 BIGINT, column 1 DOUBLE.
func selCols(ints []int64, floats []float64) []*vector.Vector {
	return []*vector.Vector{{Type: vector.Int64, Int64s: ints}, {Type: vector.Float64, Float64s: floats}}
}

// checkSelect runs Select into buf and compares it with the reference; it
// also checks that the incoming selection is left as it was.
func checkSelect(t *testing.T, name string, buf []int32, cols []*vector.Vector, preds []Pred, in []int32, n int) {
	t.Helper()
	want := naiveSelect(cols, preds, in, n)
	keep := slices.Clone(in)
	got := Select(buf, cols, preds, in, n)
	if len(got) != len(want) || !slices.Equal(got, want) {
		t.Fatalf("%s: preds %v over %d rows (in %v): got %v, want %v", name, preds, n, in, got, want)
	}
	if !slices.Equal(in, keep) {
		t.Fatalf("%s: incoming selection changed to %v", name, in)
	}
}

// TestSelectMatchesNaive: the branch-free Select against the per-row
// reference for every operator over both column types, as the first
// predicate (the range kernel) and as a later one (the in-place refine), one
// to three predicates, incoming selections nil, empty and non-empty, batch
// lengths around 8 and DefaultBatchSize, and literals equal to data values,
// ±0, ±Inf, NaN and the int64 extremes.
func TestSelectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 7, 8, 1023, 1024, 1025} {
		ints, floats := make([]int64, n), make([]float64, n)
		for r := range n {
			ints[r] = selInts[rng.Intn(len(selInts))]
			floats[r] = selFloats[rng.Intn(len(selFloats))]
			if rng.Intn(4) == 0 {
				ints[r], floats[r] = rng.Int63n(7)-3, float64(rng.Intn(7)-3)/2
			}
		}
		cols := selCols(ints, floats)
		randPred := func() Pred {
			p := Pred{Col: rng.Intn(2), Op: CmpOp(rng.Intn(6)),
				I64: selInts[rng.Intn(len(selInts))], F64: selFloats[rng.Intn(len(selFloats))]}
			if n > 0 && rng.Intn(2) == 0 { // a literal equal to a data value
				p.I64, p.F64 = ints[rng.Intn(n)], floats[rng.Intn(n)]
			}
			return p
		}
		ins := map[string][]int32{"nil": nil, "empty": {}}
		for r := range n {
			if rng.Intn(3) > 0 {
				ins["subset"] = append(ins["subset"], int32(r))
			}
		}
		for inName, in := range ins {
			for op := Lt; op <= Ne; op++ {
				for col := range 2 {
					for npreds := 1; npreds <= 3; npreds++ {
						for pos := range npreds { // op under test first, then later
							for _, lit := range []int{-1, 0, 1, 2} {
								p := randPred()
								p.Col, p.Op = col, op
								switch {
								case lit == 0:
									p.I64, p.F64 = 0, math.Copysign(0, -1)
								case lit == 1:
									p.I64, p.F64 = math.MinInt64, math.NaN()
								case lit == 2:
									p.I64, p.F64 = math.MaxInt64, math.Inf(1)
								}
								preds := []Pred{randPred(), randPred(), randPred()}[:npreds]
								preds[pos] = p
								name := fmt.Sprintf("n=%d/in=%s/%v/col%d/preds=%d/at=%d", n, inName, op, col, npreds, pos)
								var buf []int32
								if rng.Intn(2) == 0 {
									buf = make([]int32, rng.Intn(n+2))
								}
								checkSelect(t, name, buf, cols, preds, in, n)
							}
						}
					}
				}
			}
		}
	}
}

// FuzzSelect holds Select to the per-row reference on arbitrary batches:
// data and literals drawn from the pools or taken as raw bits, one to three
// predicates, and an incoming selection nil, empty or chosen by the input.
func FuzzSelect(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(8), uint8(0))
	f.Add([]byte{255, 1, 255, 3, 200, 5}, uint16(1025), uint8(7))
	f.Add([]byte{}, uint16(1024), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, rows uint16, mode uint8) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		bits := func() uint64 {
			var w [8]byte
			for i := range w {
				w[i] = next()
			}
			return binary.LittleEndian.Uint64(w[:])
		}
		intOf := func() int64 {
			if b := next(); b < 240 {
				return selInts[int(b)%len(selInts)]
			}
			return int64(bits())
		}
		floatOf := func() float64 {
			if b := next(); b < 240 {
				return selFloats[int(b)%len(selFloats)]
			}
			return math.Float64frombits(bits())
		}
		n := int(rows) % 1100
		ints, floats := make([]int64, n), make([]float64, n)
		for r := range n {
			ints[r], floats[r] = intOf(), floatOf()
		}
		preds := make([]Pred, 1+int(mode)%3)
		for i := range preds {
			b := next()
			preds[i] = Pred{Col: int(b) % 2, Op: CmpOp(b / 2 % 6), I64: intOf(), F64: floatOf()}
		}
		var in []int32
		switch mode / 3 % 3 {
		case 1:
			in = []int32{}
		case 2:
			in = []int32{}
			for r := range n {
				if next()&1 == 1 {
					in = append(in, int32(r))
				}
			}
		}
		checkSelect(t, "fuzz", nil, selCols(ints, floats), preds, in, n)
	})
}
