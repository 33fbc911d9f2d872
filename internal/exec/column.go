package exec

import (
	"slices"

	"rawdb/internal/offsets"
	"rawdb/internal/vector"
)

// A Column is one column a MemScan reads a batch at a time: a flat vector
// (Flat), read through views of its storage, or a chunked integer column
// (Narrow), decoded into the scan's buffers and filtered in its narrow lanes.
type Column interface {
	Len() int
	Type() vector.Type
	// Slice returns rows [lo, hi) as a column sharing this one's storage.
	Slice(lo, hi int) Column
	// Read sets dst to rows [lo, hi): a view of the column's storage, or the
	// rows decoded into dst's own Int64s. Only the rows sel selects (as
	// indexes from lo; nil: all) need be read, the others may hold anything.
	Read(dst *vector.Vector, lo, hi int, sel []int32)
	// Select writes to sel, which has room for hi-lo indexes, the indexes i
	// in [0, hi-lo) whose row lo+i satisfies p, ascending, and returns them.
	Select(sel []int32, p Pred, lo, hi int) []int32
}

// Flat is a vector read as a Column.
type Flat struct{ V *vector.Vector }

func (f Flat) Len() int                                       { return f.V.Len() }
func (f Flat) Type() vector.Type                              { return f.V.Type }
func (f Flat) Slice(lo, hi int) Column                        { return Flat{f.V.Slice(lo, hi)} }
func (f Flat) Read(dst *vector.Vector, lo, hi int, _ []int32) { *dst = *f.V.Slice(lo, hi) }

func (f Flat) Select(sel []int32, p Pred, lo, hi int) []int32 {
	if f.V.Type == vector.Int64 {
		return evalPredAll(sel[:hi-lo], f.V.Int64s[lo:hi], p.Op, p.I64, 0)
	}
	return evalPredAll(sel[:hi-lo], f.V.Float64s[lo:hi], p.Op, p.F64, 0)
}

// Narrow is rows [lo, lo+n) of a chunked integer column (offsets.Column,
// sealed and with no anchor) read as a Column.
type Narrow struct {
	c     *offsets.Column
	lo, n int64
}

// NewNarrow returns the rows of c, which Clip sealed, as a Column.
func NewNarrow(c *offsets.Column) *Narrow { return &Narrow{c: c, n: c.Len()} }

func (c *Narrow) Len() int          { return int(c.n) }
func (c *Narrow) Type() vector.Type { return vector.Int64 }
func (c *Narrow) Slice(lo, hi int) Column {
	return &Narrow{c: c.c, lo: c.lo + int64(lo), n: int64(hi - lo)}
}

// Read decodes the rows into dst's storage or, when sel keeps under an
// eighth of them, gathers only the rows it keeps: a gather costs several
// times what decoding a row does (BenchmarkNarrowRead).
func (c *Narrow) Read(dst *vector.Vector, lo, hi int, sel []int32) {
	dst.Type = vector.Int64
	if sel == nil || 8*len(sel) >= hi-lo {
		dst.Int64s = c.c.Decode(dst.Int64s, c.lo+int64(lo), c.lo+int64(hi))
		return
	}
	c.gather(dst, lo, hi, sel)
}

// gather sets dst to rows [lo, hi), in which only the rows sel selects hold
// their values.
func (c *Narrow) gather(dst *vector.Vector, lo, hi int, sel []int32) {
	out := slices.Grow(dst.Int64s[:0], hi-lo)[:hi-lo]
	var ids, vals [offsets.ChunkRows]int64
	for len(sel) > 0 {
		part := sel[:min(len(sel), len(ids))]
		for j, i := range part {
			ids[j] = c.lo + int64(lo) + int64(i)
		}
		for j, v := range c.c.Gather(vals[:0], ids[:len(part)]) {
			out[part[j]] = v
		}
		sel = sel[len(part):]
	}
	dst.Int64s = out
}

// Select runs in the chunks' narrow lanes: the literal is rebased on each
// chunk's base, a chunk its base and width decide is settled whole, and any
// other runs evalPredAll over its distances.
func (c *Narrow) Select(sel []int32, p Pred, lo, hi int) []int32 {
	k := 0
	for row := lo; row < hi; {
		base, w, d := c.c.Lanes(c.lo + int64(row))
		m, at := min(len(d)/w, hi-row), int32(row-lo)
		d, s := d[:m*w], sel[k:k+m]
		switch lit, decided, all := rebase(p, base, w); {
		case decided && all:
			for i := range s {
				s[i] = at + int32(i)
			}
			k += m
		case decided:
		case w == 1:
			k += len(evalPredAll(s, d, p.Op, uint8(lit), at))
		case w == 2:
			k += len(evalPredAll(s, offsets.View[uint16](d), p.Op, uint16(lit), at))
		case w == 4:
			k += len(evalPredAll(s, offsets.View[uint32](d), p.Op, uint32(lit), at))
		default:
			k += len(evalPredAll(s, offsets.View[uint64](d), p.Op, lit, at))
		}
		row += m
	}
	return sel[:k]
}

// rebase turns "base+d op p.I64", for every w-byte distance d, into
// "d op lit", or reports that the comparison is decided for the whole chunk:
// true for every row (all) or for none.
func rebase(p Pred, base int64, w int) (lit uint64, decided, all bool) {
	if p.I64 < base { // every value is above the literal
		return 0, true, p.Op == Gt || p.Op == Ge || p.Op == Ne
	}
	lit = uint64(p.I64) - uint64(base)
	if w < 8 && lit >= 1<<(8*w) { // every value is below the literal
		return 0, true, p.Op == Lt || p.Op == Le || p.Op == Ne
	}
	return lit, false, false
}
