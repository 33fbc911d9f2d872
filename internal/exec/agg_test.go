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
				// NaN sorts above every number: MIN skips it unless every
				// value is NaN, MAX is NaN if any value is.
				m, nan := math.NaN(), false
				for _, x := range floats {
					switch {
					case math.IsNaN(x):
						nan = true
					case math.IsNaN(m) || s.Func == Min && x < m || s.Func == Max && x > m:
						m = x
					}
				}
				if nan && s.Func == Max {
					m = math.NaN()
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
		// round the first selected value is NaN, which a MIN's later values
		// displace and a MAX keeps.
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
			// emit hands the states over as they are: the batch, its
			// column headers and the two float sums it computes.
			if n := testing.AllocsPerRun(100, func() { agg.emit() }); n != 5 {
				t.Fatalf("group by %v, sel %v: emit allocates %v times, want 5", groupBy, sel, n)
			}
		}
	}
}

// TestAggregateBypass: a partial (MarkPartial) whose first 4096 rows hold
// more groups than half of them emits those groups, then returns each input
// batch as one-row partials — the input's own columns under its selection,
// COUNT 1 and SUMERR 0 — while a partial that reduces, an unmarked
// aggregate and a partial with a spec that has no one-row form hash to the
// end.
func TestAggregateBypass(t *testing.T) {
	const nb, per = 10, 1000
	var bs []*vector.Batch
	for bi := range nb {
		b := vector.NewBatch(aggInput.Types(), per)
		for r := range per {
			k := int64(bi*per + r)
			b.Cols[0].AppendInt64(denseLimit + k - k%3/2) // two of every three rows open a group
			b.Cols[1].AppendInt64(k % 100)
			b.Cols[2].AppendInt64(k)
			b.Cols[3].AppendFloat64(float64(k) / 8)
			b.Cols[4].AppendFloat64(0)
		}
		for r := range per {
			if r%10 != 0 {
				b.Sel = append(b.Sel, int32(r))
			}
		}
		bs = append(bs, b)
	}
	partials := []AggSpec{{Func: Count, Col: -1}, {Func: Max, Col: 2}, {Func: Sum, Col: 3}, {Func: SumErr, Col: 3}}
	run := func(specs []AggSpec, groupBy []int, mark bool) (outs []*vector.Batch, bypass bool) {
		agg, err := NewAggregate(&batchSource{schema: aggInput, bs: bs}, specs, groupBy)
		if err != nil {
			t.Fatal(err)
		}
		if mark {
			agg.MarkPartial()
		}
		if err := agg.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			out, err := agg.Next()
			if err != nil {
				t.Fatal(err)
			}
			if out == nil {
				return outs, agg.bypass
			}
			outs = append(outs, &vector.Batch{Cols: append([]*vector.Vector(nil), out.Cols...), Sel: out.Sel})
		}
	}
	outs, bypass := run(partials, []int{0}, true)
	// 900 rows a batch: the decision falls after 5 batches, 4500 rows.
	early := map[int64]bool{}
	for _, b := range bs[:5] {
		for _, r := range b.Sel {
			early[b.Cols[0].Int64s[r]] = true
		}
	}
	if !bypass || len(outs) != 1+nb-5 || outs[0].Len() != len(early) {
		t.Fatalf("bypass %v, %d batches, the first of %d rows; want a bypass, %d batches, the first of %d groups",
			bypass, len(outs), outs[0].Len(), 1+nb-5, len(early))
	}
	for i, out := range outs[1:] {
		in := bs[5+i]
		if out.Cols[0] != in.Cols[0] || out.Cols[2] != in.Cols[2] || out.Cols[3] != in.Cols[3] || &out.Sel[0] != &in.Sel[0] {
			t.Fatalf("passed batch %d is not its input's columns and selection", i)
		}
		for _, r := range out.Sel {
			if out.Cols[1].Int64s[r] != 1 || math.Float64bits(out.Cols[4].Float64s[r]) != 0 {
				t.Fatalf("passed batch %d row %d: COUNT %d, SUMERR %v", i, r, out.Cols[1].Int64s[r], out.Cols[4].Float64s[r])
			}
		}
	}
	for _, c := range []struct {
		name    string
		specs   []AggSpec
		groupBy []int
		mark    bool
	}{
		{"a partial that reduces", partials, []int{1}, true},
		{"an unmarked aggregate", partials, []int{0}, false},
		{"a partial with AVG", []AggSpec{{Func: Avg, Col: 2}}, []int{0}, true},
		{"an ungrouped partial", partials, nil, true},
	} {
		if outs, bypass := run(c.specs, c.groupBy, c.mark); bypass || len(outs) != 1 {
			t.Fatalf("%s: bypass %v, %d batches", c.name, bypass, len(outs))
		}
	}
}

// FuzzAggregate: a grouped aggregate in one stage, and in two — a partial
// per part (MarkPartial), the exchange, then a final stage — against the map
// model (naiveAggregate), row for row in the same order, floats bit for bit
// but for NaN payloads. The first three seeds bypass in every part.
// The inputs mix keys on the dense path, straddling denseLimit, negative or
// spread over all of int64, in one or two columns, at a chosen cardinality;
// int values near the int64 extremes (SUM wraps) and floats with -0, ±Inf
// and NaN; batch cuts up to past DefaultBatchSize and selection vectors;
// and 1 to 8 parts, long enough that the partials of a high-cardinality
// input bypass. The finite floats stay in the band where a partial's float
// SUM travels exactly; TestAggregateMatchesNaive takes one stage over the
// whole float range.
func FuzzAggregate(f *testing.F) {
	f.Add(int64(1), uint16(20000), uint16(20000), uint8(0), uint8(1), uint16(1024), uint8(0))
	f.Add(int64(2), uint16(30000), uint16(30000), uint8(1), uint8(3), uint16(700), uint8(0))
	f.Add(int64(3), uint16(24000), uint16(60000), uint8(7), uint8(2), uint16(2500), uint8(230))
	f.Add(int64(4), uint16(12000), uint16(100), uint8(6), uint8(4), uint16(333), uint8(200))
	f.Add(int64(5), uint16(9000), uint16(9000), uint8(2), uint8(2), uint16(1024), uint8(40))
	f.Add(int64(6), uint16(300), uint16(5), uint8(2), uint8(8), uint16(7), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, nrows, card uint16, shape, nparts uint8, cut uint16, sel uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows, groups := int(nrows)%30_001, max(1, int(card))
		key := func() int64 {
			k := int64(rng.Intn(groups))
			switch shape % 4 {
			case 1:
				return denseLimit - int64(groups)/2 + k
			case 2:
				return -1 - 7919*k
			case 3:
				return k * -0x61c8864680b583eb
			}
			return k
		}
		groupBy := []int{0}
		if shape&4 != 0 {
			groupBy = []int{0, 1}
		}
		var bs []*vector.Batch
		for done := 0; done < rows; {
			n := min(rows-done, 1+rng.Intn(int(cut)%3000+1))
			b := vector.NewBatch(aggInput.Types(), n)
			for range n {
				b.Cols[0].AppendInt64(key())
				b.Cols[1].AppendInt64(int64(rng.Intn(3)))
				i := rng.Int63n(1<<40) - 1<<39
				if rng.Intn(100) == 0 {
					i = math.MaxInt64 - rng.Int63n(4)
				}
				b.Cols[2].AppendInt64(i)
				// Multiples of 2^-60 below 2^28: every partial's sum fits
				// the (SUM, SUMERR) pair exactly (fsum.compress), but not
				// one float.
				v := math.Ldexp(float64(rng.Int63n(1<<50)-1<<49), rng.Intn(40)-60)
				switch rng.Intn(100) {
				case 0:
					v = math.Inf(1 - 2*rng.Intn(2))
				case 1:
					v = math.NaN()
				case 2:
					v = math.Copysign(0, -1)
				}
				b.Cols[3].AppendFloat64(v)
				b.Cols[4].AppendFloat64(0)
			}
			if sel > 0 {
				b.Sel = []int32{}
				for r := range n {
					if rng.Intn(256) < int(sel) {
						b.Sel = append(b.Sel, int32(r))
					}
				}
			}
			bs, done = append(bs, b), done+n
		}
		specs := []AggSpec{{Func: Count, Col: -1}, {Func: Min, Col: 2}, {Func: Max, Col: 2}, {Func: Sum, Col: 2},
			{Func: Min, Col: 3}, {Func: Max, Col: 3}, {Func: Sum, Col: 3}}
		oneStage, err := NewAggregate(&batchSource{schema: aggInput, bs: bs}, specs, groupBy)
		if err != nil {
			t.Fatal(err)
		}
		// The two-stage plan: partials as the planner stages them, then
		// finals over the exchange stream, which leads with the keys.
		partials := append(append([]AggSpec(nil), specs...), AggSpec{Func: SumErr, Col: 3})
		ng := len(groupBy)
		finals := []AggSpec{{Func: Sum, Col: ng}, {Func: Min, Col: ng + 1}, {Func: Max, Col: ng + 2}, {Func: Sum, Col: ng + 3},
			{Func: Min, Col: ng + 4}, {Func: Max, Col: ng + 5}, {Func: MergeSum, Col: ng + 6, Col2: ng + 7}}
		parts := make([]Operator, int(nparts)%8+1)
		for p := range parts {
			agg, err := NewAggregate(&batchSource{schema: aggInput, bs: bs[p*len(bs)/len(parts) : (p+1)*len(bs)/len(parts)]}, partials, groupBy)
			if err != nil {
				t.Fatal(err)
			}
			agg.MarkPartial()
			parts[p] = agg
		}
		par, err := NewParallel(parts, 2, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		twoStage, err := NewAggregate(par, finals, []int{0, 1}[:ng])
		if err != nil {
			t.Fatal(err)
		}
		// The model reads the selected rows, compacted into one batch.
		flat := vector.NewBatch(aggInput.Types(), rows)
		for _, b := range bs {
			for c, v := range b.Cols {
				if b.Sel != nil {
					flat.Cols[c].Gather(v, b.Sel)
				} else {
					flat.Cols[c].AppendVector(v)
				}
			}
		}
		want := naiveAggregate([]*vector.Batch{flat}, specs, groupBy)
		one, err := Collect(oneStage)
		if err != nil {
			t.Fatal(err)
		}
		two, err := Collect(twoStage)
		if err != nil {
			t.Fatal(err)
		}
		// Any NaN equals any NaN: the IEEE sum of the non-finite values keeps
		// the payload of whichever NaN operand comes first, which depends on
		// how the parts split them.
		for c := range want {
			for _, got := range []struct {
				name string
				cols []*vector.Vector
				want *vector.Vector
			}{{"one stage", one, want[c]}, {"two stages", two, one[c]}} {
				g, w := got.cols[c], got.want
				if g.Len() != w.Len() {
					t.Fatalf("%s: column %d has %d rows, want %d", got.name, c, g.Len(), w.Len())
				}
				for r := range w.Len() {
					if w.Type == vector.Int64 && g.Int64s[r] != w.Int64s[r] || w.Type == vector.Float64 && !sameFloat(g.Float64s[r], w.Float64s[r]) {
						t.Fatalf("%s: column %d row %d = %v, want %v", got.name, c, r, g.Value(r), w.Value(r))
					}
				}
			}
		}
	})
}

// BenchmarkAggregateHighCardinality: COUNT and MAX grouped by 40k distinct
// keys over the hash path, the shape of a high-cardinality group-by, in one
// stage and in two (a partial on each of 4 parts of 10k keys, which bypass,
// the exchange, then the final); and, for contrast, AVG and SUM over DOUBLE
// in 100 groups on the dense path, the shape of the low-cardinality ones.
func BenchmarkAggregateHighCardinality(b *testing.B) {
	const n = 40000
	rng := rand.New(rand.NewSource(1))
	keys, vals, small, fl := vector.New(vector.Int64, n), vector.New(vector.Int64, n), vector.New(vector.Int64, n), vector.New(vector.Float64, n)
	for i := range n {
		keys.AppendInt64(denseLimit + int64(i)*7919%1_000_000_007)
		vals.AppendInt64(rng.Int63())
		small.AppendInt64(rng.Int63n(100))
		fl.AppendFloat64(math.Ldexp(rng.Float64(), rng.Intn(40)-20))
	}
	schema := vector.Schema{{Name: "k", Type: vector.Int64}, {Name: "v", Type: vector.Int64}}
	fschema := vector.Schema{{Name: "k", Type: vector.Int64}, {Name: "f", Type: vector.Float64}}
	run := func(b *testing.B, groups int, plan func() (Operator, error)) {
		b.ReportAllocs()
		for b.Loop() {
			op, err := plan()
			if err == nil {
				err = op.Open()
			}
			if err != nil {
				b.Fatal(err)
			}
			if out, err := op.Next(); err != nil || out.Len() != groups {
				b.Fatalf("%v groups, err %v", out, err)
			}
			op.Close()
		}
	}
	b.Run("one-stage", func(b *testing.B) {
		run(b, n, func() (Operator, error) {
			scan, err := NewMemScan(schema, []*vector.Vector{keys, vals}, vector.DefaultBatchSize)
			if err != nil {
				return nil, err
			}
			return NewAggregate(scan, []AggSpec{{Func: Count, Col: -1}, {Func: Max, Col: 1}}, []int{0})
		})
	})
	b.Run("two-stage", func(b *testing.B) {
		run(b, n, func() (Operator, error) {
			parts := make([]Operator, 4)
			for p := range parts {
				lo, hi := p*n/4, (p+1)*n/4
				scan, err := NewMemScan(schema, []*vector.Vector{keys.Slice(lo, hi), vals.Slice(lo, hi)}, vector.DefaultBatchSize)
				if err != nil {
					return nil, err
				}
				agg, err := NewAggregate(scan, []AggSpec{{Func: Count, Col: -1}, {Func: Max, Col: 1}}, []int{0})
				if err != nil {
					return nil, err
				}
				agg.MarkPartial()
				parts[p] = agg
			}
			par, err := NewParallel(parts, 2, 0, nil)
			if err != nil {
				return nil, err
			}
			return NewAggregate(par, []AggSpec{{Func: Sum, Col: 1}, {Func: Max, Col: 2}}, []int{0})
		})
	})
	b.Run("low-cardinality-float", func(b *testing.B) {
		run(b, 100, func() (Operator, error) {
			scan, err := NewMemScan(fschema, []*vector.Vector{small, fl}, vector.DefaultBatchSize)
			if err != nil {
				return nil, err
			}
			return NewAggregate(scan, []AggSpec{{Func: Avg, Col: 1}, {Func: Sum, Col: 1}}, []int{0})
		})
	})
}
