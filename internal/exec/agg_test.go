package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rawdb/internal/vector"
)

// batchSource emits fixed batches, each with its own selection vector.
type batchSource struct {
	schema vector.Schema
	bs     []*vector.Batch
	next   int
}

func (s *batchSource) Schema() vector.Schema { return s.schema }
func (s *batchSource) Open() error           { s.next = 0; return nil }
func (s *batchSource) Close() error          { return nil }
func (s *batchSource) Next() (*vector.Batch, error) {
	if s.next == len(s.bs) {
		return nil, nil
	}
	s.next++
	return s.bs[s.next-1], nil
}

// aggInput is the equivalence test's table: two key columns whose values
// mix the dense and hash paths, and int and float value columns.
var aggInput = vector.Schema{
	{Name: "k0", Type: vector.Int64}, {Name: "k1", Type: vector.Int64},
	{Name: "i", Type: vector.Int64}, {Name: "f", Type: vector.Float64}, {Name: "g", Type: vector.Float64},
}

func aggBatches(rng *rand.Rand, nbatches int, sel bool) []*vector.Batch {
	keys := []int64{0, 1, 2, 3, 5, 8, 40, 1000, -1, -7, denseLimit, denseLimit + 9, 1 << 40, math.MinInt64}
	var bs []*vector.Batch
	for range nbatches {
		b := vector.NewBatch(aggInput.Types(), 0)
		n := rng.Intn(300)
		for range n {
			b.Cols[0].AppendInt64(keys[rng.Intn(len(keys))])
			b.Cols[1].AppendInt64(int64(rng.Intn(3)))
			b.Cols[2].AppendInt64(rng.Int63n(1<<40) - 1<<39)
			for _, c := range b.Cols[3:] {
				v := math.Ldexp(rng.Float64()*2-1, rng.Intn(80)-40)
				switch rng.Intn(50) {
				case 0:
					v = wideFloat(rng)
				case 1:
					v = math.Inf(1)
				case 2:
					v = math.NaN()
				}
				c.AppendFloat64(v)
			}
		}
		if sel {
			b.Sel = []int32{}
			for r := range n {
				if rng.Intn(3) > 0 {
					b.Sel = append(b.Sel, int32(r))
				}
			}
		}
		bs = append(bs, b)
	}
	return bs
}

// naiveAggregate is the per-row reference: it assigns rows to groups in
// first-seen order, then computes each spec from its group's rows alone,
// exact float sums through bigSum.
func naiveAggregate(bs []*vector.Batch, specs []AggSpec, groupBy []int) []*vector.Vector {
	var keys [][2]int64
	var members [][][2]int // per group: (batch, row)
	slot := map[[2]int64]int{}
	if len(groupBy) == 0 {
		keys, members = [][2]int64{{}}, [][][2]int{nil}
	}
	for bi, b := range bs {
		for r := range b.Len() {
			if b.Sel != nil && !containsRow(b.Sel, r) {
				continue
			}
			var key [2]int64
			for ki, g := range groupBy {
				key[ki] = b.Cols[g].Int64s[r]
			}
			g, ok := slot[key]
			if !ok && len(groupBy) > 0 {
				g = len(keys)
				slot[key] = g
				keys, members = append(keys, key), append(members, nil)
			}
			members[g] = append(members[g], [2]int{bi, r})
		}
	}
	var out []*vector.Vector
	for ki := range groupBy {
		v := vector.New(vector.Int64, 0)
		for _, k := range keys {
			v.AppendInt64(k[ki])
		}
		out = append(out, v)
	}
	for _, s := range specs {
		isInt := s.Col >= 0 && aggInput[s.Col].Type == vector.Int64
		var v *vector.Vector
		if s.Func == Count || isInt && s.Func != Avg {
			v = vector.New(vector.Int64, 0)
		} else {
			v = vector.New(vector.Float64, 0)
		}
		for _, rows := range members {
			n := len(rows)
			var ints []int64
			var floats []float64
			for _, br := range rows {
				b := bs[br[0]]
				switch {
				case s.Col < 0:
				case isInt:
					ints = append(ints, b.Cols[s.Col].Int64s[br[1]])
				default:
					floats = append(floats, b.Cols[s.Col].Float64s[br[1]])
					if s.Func == MergeSum {
						floats = append(floats, b.Cols[s.Col2].Float64s[br[1]])
					}
				}
			}
			var isum int64
			for _, x := range ints {
				isum += x
			}
			hi, lo := bigSum(floats)
			switch {
			case s.Func == Count:
				v.AppendInt64(int64(n))
			case n == 0 && v.Type == vector.Int64:
				v.AppendInt64(0)
			case n == 0:
				v.AppendFloat64(0)
			case s.Func == Avg && isInt:
				v.AppendFloat64(float64(isum) / float64(n))
			case s.Func == Avg:
				v.AppendFloat64(hi / float64(n))
			case s.Func == Sum && isInt:
				v.AppendInt64(isum)
			case s.Func == Sum || s.Func == MergeSum:
				v.AppendFloat64(hi)
			case s.Func == SumErr:
				v.AppendFloat64(lo)
			case isInt:
				m := ints[0]
				for _, x := range ints[1:] {
					if s.Func == Min && x < m || s.Func == Max && x > m {
						m = x
					}
				}
				v.AppendInt64(m)
			default:
				m := floats[0]
				for _, x := range floats[1:] {
					if s.Func == Min && x < m || s.Func == Max && x > m {
						m = x
					}
				}
				v.AppendFloat64(m)
			}
		}
		out = append(out, v)
	}
	return out
}

func containsRow(sel []int32, r int) bool {
	for _, s := range sel {
		if int(s) == r {
			return true
		}
	}
	return false
}

// TestAggregateMatchesNaive: the batch-at-a-time aggregate against the
// per-row reference, bit for bit, over every function and value type,
// 0/1/2 grouping keys, with and without selection vectors, empty input, keys
// on both the dense and the hash path, and SumErr with and without a sibling
// Sum on its column. Ungrouped aggregates, which fold each batch in local
// variables, also run over many batches: leading ones that select nothing (MIN
// and MAX must take the first selected value), empty ones, single-row
// selections and batches longer than DefaultBatchSize.
func TestAggregateMatchesNaive(t *testing.T) {
	const i, f, g = 2, 3, 4
	all := []AggSpec{{Func: Count, Col: -1}, {Func: Count, Col: i}, {Func: MergeSum, Col: f, Col2: g}}
	for _, fn := range []AggFunc{Min, Max, Sum, Avg} {
		all = append(all, AggSpec{Func: fn, Col: i}, AggSpec{Func: fn, Col: f})
	}
	all = append(all, AggSpec{Func: SumErr, Col: f}, AggSpec{Func: SumErr, Col: g})
	specSets := [][]AggSpec{
		all,
		{{Func: Sum, Col: f}, {Func: SumErr, Col: f}},
		{{Func: SumErr, Col: f}, {Func: Avg, Col: f}, {Func: Sum, Col: f}},
		{{Func: Count, Col: -1}},
	}
	for _, s := range all {
		specSets = append(specSets, []AggSpec{s})
	}
	check := func(name string, bs []*vector.Batch, groupBy []int) {
		t.Helper()
		for _, specs := range specSets {
			name := fmt.Sprintf("%s/%v", name, specs)
			agg, err := NewAggregate(&batchSource{schema: aggInput, bs: bs}, specs, groupBy)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(agg)
			if err != nil {
				t.Fatal(err)
			}
			want := naiveAggregate(bs, specs, groupBy)
			if len(got) != len(want) {
				t.Fatalf("%s: %d columns, want %d", name, len(got), len(want))
			}
			for c := range want {
				if got[c].Len() != want[c].Len() {
					t.Fatalf("%s: column %d has %d rows, want %d", name, c, got[c].Len(), want[c].Len())
				}
				for r := range want[c].Len() {
					if want[c].Type == vector.Int64 && got[c].Int64s[r] != want[c].Int64s[r] ||
						want[c].Type == vector.Float64 && !sameFloat(got[c].Float64s[r], want[c].Float64s[r]) {
						t.Fatalf("%s: column %d row %d = %v, want %v", name, c, r, got[c].Value(r), want[c].Value(r))
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, groupBy := range [][]int{nil, {0}, {1}, {0, 1}} {
		for _, sel := range []bool{false, true} {
			for _, nbatches := range []int{0, 1, 4} {
				check(fmt.Sprintf("group%v/sel=%v/batches=%d", groupBy, sel, nbatches),
					aggBatches(rng, nbatches, sel), groupBy)
			}
		}
	}
	for round := range 4 {
		bs := aggBatches(rng, 12, true)
		for _, b := range bs[:3] {
			b.Sel = []int32{} // leading batches select nothing
		}
		bs[4] = vector.NewBatch(aggInput.Types(), 0) // an empty batch
		for _, b := range bs[5:8] {
			if b.Len() > 0 {
				b.Sel = []int32{int32(rng.Intn(b.Len()))}
			}
		}
		long := vector.NewBatch(aggInput.Types(), 0)
		for _, b := range aggBatches(rng, 24, false) {
			for c := range long.Cols {
				long.Cols[c].AppendVector(b.Cols[c])
			}
		}
		if long.Len() <= vector.DefaultBatchSize {
			t.Fatalf("long batch has %d rows", long.Len())
		}
		bs = append(bs, long)
		// Values of one sign, so that a MIN or MAX starting from the zero
		// state rather than the first selected value is wrong; in the last
		// round the first selected value is NaN, which no later value
		// displaces.
		first := true
		for _, b := range bs {
			for r := range b.Len() {
				for _, c := range b.Cols[i:] {
					switch {
					case round == 1 && c.Type == vector.Int64:
						c.Int64s[r] = c.Int64s[r]&(1<<62-1) | 1
					case round == 1:
						c.Float64s[r] = math.Abs(c.Float64s[r]) + 1
					case round == 2 && c.Type == vector.Int64:
						c.Int64s[r] = -(c.Int64s[r]&(1<<62-1) | 1)
					case round == 2:
						c.Float64s[r] = -math.Abs(c.Float64s[r]) - 1
					case round == 3 && first && c.Type == vector.Float64:
						c.Float64s[r] = math.NaN()
					}
				}
				first = first && (b.Sel != nil && !containsRow(b.Sel, r))
			}
		}
		longSel := &vector.Batch{Cols: long.Cols}
		for r := range long.Len() {
			if rng.Intn(2) == 0 {
				longSel.Sel = append(longSel.Sel, int32(r))
			}
		}
		bs = append(bs, longSel)
		check(fmt.Sprintf("ungrouped/round=%d", round), bs, nil)
	}
}

// TestAggregateBatchAllocs: once its groups exist and its buffers have grown,
// the aggregate allocates nothing per batch.
func TestAggregateBatchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	specs := []AggSpec{{Func: Count, Col: -1}, {Func: Max, Col: 2}, {Func: Sum, Col: 3}, {Func: SumErr, Col: 3}, {Func: Min, Col: 4}}
	for _, groupBy := range [][]int{nil, {0}, {0, 1}} {
		for _, sel := range []bool{false, true} {
			b := aggBatches(rng, 1, sel)[0]
			agg, err := NewAggregate(&batchSource{schema: aggInput}, specs, groupBy)
			if err != nil {
				t.Fatal(err)
			}
			if err := agg.Open(); err != nil {
				t.Fatal(err)
			}
			agg.consume(b)
			if n := testing.AllocsPerRun(100, func() { agg.consume(b) }); n != 0 {
				t.Fatalf("group by %v, sel %v: %v allocations per batch", groupBy, sel, n)
			}
		}
	}
}

// BenchmarkAggregateHighCardinality: one stage of COUNT and MAX grouped by
// 40k distinct keys over the hash path, the shape of a high-cardinality
// group-by's partials, where growing the group states is much of the cost.
func BenchmarkAggregateHighCardinality(b *testing.B) {
	const n = 40000
	rng := rand.New(rand.NewSource(1))
	keys, vals := vector.New(vector.Int64, n), vector.New(vector.Int64, n)
	for i := range n {
		keys.AppendInt64(denseLimit + int64(i)*7919%1_000_000_007)
		vals.AppendInt64(rng.Int63())
	}
	schema := vector.Schema{{Name: "k", Type: vector.Int64}, {Name: "v", Type: vector.Int64}}
	b.ReportAllocs()
	for b.Loop() {
		scan, err := NewMemScan(schema, []*vector.Vector{keys, vals}, vector.DefaultBatchSize)
		if err != nil {
			b.Fatal(err)
		}
		agg, err := NewAggregate(scan, []AggSpec{{Func: Count, Col: -1}, {Func: Max, Col: 1}}, []int{0})
		if err != nil {
			b.Fatal(err)
		}
		if err := agg.Open(); err != nil {
			b.Fatal(err)
		}
		if out, err := agg.Next(); err != nil || out.Len() != n {
			b.Fatalf("%v groups, err %v", out, err)
		}
		agg.Close()
	}
}
