package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rawdb/internal/offsets"
	"rawdb/internal/vector"
)

// blockSkip is a sound zone-map skip test over cols, which hold table rows
// [base, base+n): bounds cut [0, n) into blocks, each keeping the min and max
// of every column, and a range of table rows is excluded when some predicate
// holds on no row any block it overlaps could hold.
func blockSkip(cols []*vector.Vector, preds []Pred, base int64, bounds []int) func(lo, hi int64) bool {
	n := bounds[len(bounds)-1]
	return func(lo, hi int64) bool {
		l, h := int(lo-base), int(hi-base)
		if l < 0 || h > n || l >= h {
			return false
		}
		for _, p := range preds {
			excluded := true
			for b := 0; b+1 < len(bounds) && excluded; b++ {
				if bounds[b] < h && bounds[b+1] > l {
					excluded = blockExcludes(cols[p.Col], bounds[b], bounds[b+1], p)
				}
			}
			if excluded {
				return true
			}
		}
		return false
	}
}

// blockExcludes reports whether the min and max of rows [lo, hi) of v prove
// that p holds on none of them. NaN rows satisfy only Ne, so they leave Ne
// unprovable and are left out of the min and max.
func blockExcludes(v *vector.Vector, lo, hi int, p Pred) bool {
	if v.Type == vector.Int64 {
		return rangeExcludes(slices.Min(v.Int64s[lo:hi]), slices.Max(v.Int64s[lo:hi]), p.I64, p.Op)
	}
	var vals []float64
	for _, x := range v.Float64s[lo:hi] {
		if x == x {
			vals = append(vals, x)
		}
	}
	switch {
	case len(vals) < hi-lo && p.Op == Ne:
		return false
	case len(vals) == 0:
		return true
	}
	return rangeExcludes(slices.Min(vals), slices.Max(vals), p.F64, p.Op)
}

// rangeExcludes reports whether no value in [mn, mx] satisfies x op lit.
func rangeExcludes[T int64 | float64](mn, mx, lit T, op CmpOp) bool {
	switch op {
	case Lt:
		return mn >= lit
	case Le:
		return mn > lit
	case Gt:
		return mx <= lit
	case Ge:
		return mx < lit
	case Eq:
		return lit < mn || lit > mx
	case Ne:
		return mn == lit && mx == lit
	}
	panic(fmt.Sprintf("op %d", op))
}

// checkMemScan drains a MemScan over cols (table rows from base) with preds,
// an optional skip test and the row-id column on or off, and holds every
// batch to a per-row loop over the same batch grid: the skip asked for each
// range exactly once, in order; a range it excluded or no row survives emits
// nothing; a surviving range emits its rows, a selection exactly when some
// row failed, and row ids counted from base. The scan's prune counters must
// match. It returns how many ranges the skip excluded. With narrow set the
// Int64 columns are read as chunked columns (Narrow); the scan emits the
// first emit of cols, the others only predicates read.
func checkMemScan(t *testing.T, name string, cols []*vector.Vector, preds []Pred, skip func(lo, hi int64) bool,
	base int64, batch int, emitRID, narrow bool, emit int) int64 {
	t.Helper()
	schema := make(vector.Schema, emit)
	for i, c := range cols[:emit] {
		schema[i] = vector.Col{Name: fmt.Sprintf("c%d", i), Type: c.Type}
	}
	read := flat(cols...)
	for i, c := range cols {
		if narrow && c.Type == vector.Int64 {
			read[i] = NewNarrow(encode(c.Int64s))
		}
	}
	if emitRID {
		schema = append(schema, vector.Col{Name: "rid", Type: vector.Int64})
	}
	var asked [][2]int64
	var logged func(lo, hi int64) bool
	if skip != nil {
		logged = func(lo, hi int64) bool {
			asked = append(asked, [2]int64{lo, hi})
			return skip(lo, hi)
		}
	}
	s, err := NewMemScanPred(schema, read, emitRID, batch, preds, base, logged)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}

	n := cols[0].Len()
	var wantAsked [][2]int64
	var wantPruned, wantSkipped int64
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		if skip != nil {
			wantAsked = append(wantAsked, [2]int64{base + int64(lo), base + int64(hi)})
			if skip(base+int64(lo), base+int64(hi)) {
				wantSkipped++
				wantPruned += int64(hi - lo)
				continue
			}
		}
		var live []int32
		for r := lo; r < hi; r++ {
			ok := true
			for _, p := range preds {
				if v := cols[p.Col]; v.Type == vector.Int64 {
					ok = ok && naiveHolds(v.Int64s[r], p.I64, p.Op)
				} else {
					ok = ok && naiveHolds(v.Float64s[r], p.F64, p.Op)
				}
			}
			if ok {
				live = append(live, int32(r-lo))
			}
		}
		wantPruned += int64(hi - lo - len(live))
		if len(live) == 0 {
			continue
		}
		b, err := s.Next()
		if err != nil || b == nil {
			t.Fatalf("%s: batch at row %d: %v, %v", name, lo, b, err)
		}
		wantSel := live
		if len(live) == hi-lo {
			wantSel = nil
		}
		if len(b.Cols) != len(schema) || !slices.Equal(b.Sel, wantSel) || (b.Sel == nil) != (wantSel == nil) {
			t.Fatalf("%s: batch at row %d: %d columns, sel %v; want %d, %v", name, lo, len(b.Cols), b.Sel,
				len(schema), wantSel)
		}
		for _, i := range live {
			r := lo + int(i)
			for c, v := range cols[:emit] {
				if got, want := b.Cols[c].Value(int(i)), v.Value(r); !sameValue(got, want) {
					t.Fatalf("%s: row %d column %d = %v, want %v", name, r, c, got, want)
				}
			}
			if emitRID {
				if got := b.Cols[emit].Int64s[i]; got != base+int64(r) {
					t.Fatalf("%s: row %d carries row id %d, want %d", name, r, got, base+int64(r))
				}
			}
		}
	}
	if b, err := s.Next(); b != nil || err != nil {
		t.Fatalf("%s: extra batch %v, %v", name, b, err)
	}
	if !slices.Equal(asked, wantAsked) {
		t.Fatalf("%s: skip asked for %v, want %v", name, asked, wantAsked)
	}
	if pruned, skipped := s.PushStats(); pruned != wantPruned || skipped != wantSkipped {
		t.Fatalf("%s: PushStats %d rows, %d blocks; want %d, %d", name, pruned, skipped, wantPruned, wantSkipped)
	}
	return wantSkipped
}

// sameValue compares two cell values bit for bit (NaN equals NaN, -0 is not 0).
func sameValue(a, b any) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}

// memScanCase builds one scan's inputs from a byte source: one to three
// columns of either type, clustered (rising with the row, so blocks differ,
// integers scaled so that a chunk's span needs one to eight bytes) or drawn
// from the selection pools, predicates on them, and block bounds.
func memScanCase(next func() byte, n, npreds int) (cols []*vector.Vector, preds []Pred, bounds []int) {
	ncols := 1 + int(next())%3
	scale := []int64{1, 1, 1 << 5, 1 << 13, 1 << 29}[next()%5]
	for range ncols {
		if next()&1 == 0 {
			v := vector.New(vector.Int64, n)
			for r := range n {
				if b := next(); b < 224 {
					v.AppendInt64((int64(r/8) + int64(b%16)) * scale)
				} else {
					v.AppendInt64(selInts[int(b)%len(selInts)])
				}
			}
			cols = append(cols, v)
		} else {
			v := vector.New(vector.Float64, n)
			for r := range n {
				if b := next(); b < 224 {
					v.AppendFloat64(float64(r/8) + float64(b%16)/2)
				} else {
					v.AppendFloat64(selFloats[int(b)%len(selFloats)])
				}
			}
			cols = append(cols, v)
		}
	}
	for range npreds {
		b := next()
		p := Pred{Col: int(b) % ncols, Op: CmpOp(b / 4 % 6)}
		lit := int64(next()) % int64(n/8+16)
		p.I64, p.F64 = lit*scale, float64(lit)/2*float64(1+int(b>>7))
		preds = append(preds, p)
	}
	bounds = []int{0}
	for r := 0; r < n; {
		r = min(n, r+1+int(next())%40)
		bounds = append(bounds, r)
	}
	return cols, preds, bounds
}

// TestMemScanSkipMatchesNaive: a MemScan with zero to three predicates and a
// sound zone-map skip over random block bounds, at random batch sizes, a
// non-zero base row, the row-id column on and off, flat or narrow Int64
// columns and all columns emitted or only the first, emits exactly what the
// per-row loop over the same batch grid says.
func TestMemScanSkipMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	next := func() byte { return byte(rng.Intn(256)) }
	var skipped int64
	for i := range 400 {
		n := 1 + rng.Intn(300)
		cols, preds, bounds := memScanCase(next, n, rng.Intn(4))
		base := int64(rng.Intn(5000))
		batch := 1 + rng.Intn(70)
		var skip func(lo, hi int64) bool
		if rng.Intn(4) > 0 {
			skip = blockSkip(cols, preds, base, bounds)
		}
		name := fmt.Sprintf("case %d: n=%d base=%d batch=%d preds=%v", i, n, base, batch, preds)
		emit := len(cols) - i/2%2*(len(cols)-1)
		skipped += checkMemScan(t, name, cols, preds, skip, base, batch, i%2 == 0, i%3 > 0, emit)
	}
	if skipped == 0 {
		t.Fatal("no case skipped a range")
	}
}

// FuzzMemScan holds MemScan to the per-row loop on arbitrary columns,
// predicates, block bounds, batch sizes and base rows, with the skip test,
// the row-id column, narrow Int64 columns and predicate-only columns each on
// or off.
func FuzzMemScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(100), uint8(7), uint32(1000), uint8(0xc3))
	f.Add([]byte{255, 1, 255, 3, 200, 5}, uint16(513), uint8(64), uint32(0), uint8(0x45))
	f.Add([]byte{}, uint16(1), uint8(1), uint32(1<<31), uint8(0xff))
	f.Fuzz(func(t *testing.T, data []byte, rows uint16, batch uint8, base uint32, mode uint8) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 1 + int(rows)%600
		cols, preds, bounds := memScanCase(next, n, int(mode)%4)
		var skip func(lo, hi int64) bool
		if mode&0x80 != 0 {
			skip = blockSkip(cols, preds, int64(base), bounds)
		}
		emit := len(cols)
		if mode&0x10 != 0 {
			emit = 1
		}
		checkMemScan(t, "fuzz", cols, preds, skip, int64(base), 1+int(batch), mode&0x40 != 0, mode&0x20 != 0, emit)
	})
}

// flat reads vectors as Flat columns.
func flat(vs ...*vector.Vector) []Column {
	cols := make([]Column, len(vs))
	for i, v := range vs {
		cols[i] = Flat{v}
	}
	return cols
}

// encode returns vals as a chunked column, sealed.
func encode(vals []int64) *offsets.Column {
	c := offsets.New(nil)
	for _, v := range vals {
		c.Append(v)
	}
	c.Clip()
	return c
}

// BenchmarkMemScanNarrow times a MemScan whose pushed "x < lit" keeps 40 % of
// 50k rows of x, drawn from [0, 1e9), read only by the predicate, beside an
// emitted flat column: x flat against narrow (four-byte lanes). Each scan
// reads the next of 100 such columns, so that, as in a shred pool, the
// columns a sequence of scans reads do not stay in a core's cache.
func BenchmarkMemScanNarrow(b *testing.B) {
	const n, ncols = 50_000, 100
	rng := rand.New(rand.NewSource(1))
	y := vector.New(vector.Int64, n)
	xs := make([]*vector.Vector, ncols)
	for i := range xs {
		xs[i] = vector.New(vector.Int64, n)
		for range n {
			xs[i].AppendInt64(rng.Int63n(1e9))
		}
	}
	for range n {
		y.AppendInt64(rng.Int63n(1e9))
	}
	schema := vector.Schema{{Name: "y", Type: vector.Int64}}
	preds := []Pred{{Col: 1, Op: Lt, I64: 4e8}}
	for _, narrow := range []bool{false, true} {
		scans := make([]*MemScan, ncols)
		for i, x := range xs {
			var c Column = Flat{x}
			if narrow {
				c = NewNarrow(encode(x.Int64s))
			}
			var err error
			if scans[i], err = NewMemScanPred(schema, []Column{Flat{y}, c}, false, 0, preds, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(map[bool]string{false: "flat", true: "narrow"}[narrow], func(b *testing.B) {
			for i := range b.N {
				s := scans[i%ncols]
				if err := s.Open(); err != nil {
					b.Fatal(err)
				}
				for bt, err := s.Next(); bt != nil || err != nil; bt, err = s.Next() {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}

// BenchmarkNarrowRead times Narrow.Read of a 50k-row column of four-byte
// distances, a batch at a time, under selections that keep 5 % and 40 % of
// each batch's rows: through Read, which gathers under an eighth and decodes
// above it, and forced to decode every row or to gather only the kept ones.
// Read should match the faster of the two on each side of its cut.
func BenchmarkNarrowRead(b *testing.B) {
	const n = 50_000
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1e9)
	}
	c := NewNarrow(encode(vals))
	for _, keep := range []float64{0.05, 0.4} {
		var sels [][]int32
		for lo := 0; lo < n; lo += vector.DefaultBatchSize {
			var sel []int32
			for i := range min(vector.DefaultBatchSize, n-lo) {
				if rng.Float64() < keep {
					sel = append(sel, int32(i))
				}
			}
			sels = append(sels, sel)
		}
		for _, mode := range []string{"read", "decode", "gather"} {
			b.Run(fmt.Sprintf("keep=%g/%s", keep, mode), func(b *testing.B) {
				var dst vector.Vector
				for range b.N {
					for k, lo := 0, 0; lo < n; k, lo = k+1, lo+vector.DefaultBatchSize {
						hi := min(lo+vector.DefaultBatchSize, n)
						switch mode {
						case "read":
							c.Read(&dst, lo, hi, sels[k])
						case "decode":
							c.Read(&dst, lo, hi, nil)
						default:
							c.gather(&dst, lo, hi, sels[k])
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
			})
		}
	}
}
