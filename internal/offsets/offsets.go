// Package offsets stores the byte offsets a positional map (posmap) and a
// structural index (jsonidx) record per row, narrow and chunked. A chunk of
// ChunkRows rows keeps one int64 base and, per row, the distance from it in
// the narrowest width (1, 2, 4 or 8 bytes) the chunk needs. A column may store
// its values relative to an anchor column (a field's offset relative to its
// row's start), so that distances stay as small as a row is wide.
//
// A column is a list of segments, each a run of chunks over one buffer in
// which only the last chunk may be short. Link appends another column's
// segments by reference and moves only their chunks' bases: merging the
// fragments of a parallel scan writes one header per chunk, not one offset
// per row.
package offsets

import (
	"encoding/binary"
	"slices"
	"unsafe"
)

// ChunkRows is the number of rows one chunk holds.
const ChunkRows = 128

// A chunk stores its rows from data[off:] of its segment, as base plus a
// w-byte little-endian distance each.
type chunk struct {
	base   int64
	off, w int
}

type segment struct {
	row0   int64 // the segment's first row in the column
	data   []byte
	chunks []chunk
}

// Column is one chunked offset column. It is written by one goroutine, and
// read by any number once Clip has sealed it.
type Column struct {
	anchor *Column // non-nil: values are stored relative to anchor's at the same row
	segs   []segment
	n      int64   // rows encoded into segs
	stage  []int64 // the rows after them, up to a chunk, not encoded yet
	hint   int     // rows the first segment is allocated for (Reserve)
}

// New returns an empty column whose values are stored relative to anchor's
// value at the same row (absolute when anchor is nil): Append takes the
// relative value, At and Decode return the sum.
func New(anchor *Column) *Column { return &Column{anchor: anchor} }

// Len returns the number of rows (0 for a nil column).
func (c *Column) Len() int64 {
	if c == nil {
		return 0
	}
	return c.n + int64(len(c.stage))
}

// rows returns the row count of chunk k: ChunkRows but for the last.
func (s *segment) rows(k int) int {
	if k < len(s.chunks)-1 {
		return ChunkRows
	}
	return (len(s.data) - s.chunks[k].off) / s.chunks[k].w
}

// decodeTo writes the values of rows [i, i+len(out)) of chunk k to out, or
// adds them to it when add is set (the anchor's values are already there).
func (s *segment) decodeTo(out []int64, k, i int, add bool) {
	ch := s.chunks[k]
	d := s.data[ch.off+i*ch.w:][:len(out)*ch.w]
	switch ch.w {
	case 1:
		setLanes(out, d, ch.base, add)
	case 2:
		setLanes(out, View[uint16](d), ch.base, add)
	case 4:
		setLanes(out, View[uint32](d), ch.base, add)
	default:
		setLanes(out, View[uint64](d), ch.base, add)
	}
}

type lane interface {
	uint8 | uint16 | uint32 | uint64
}

// setLanes writes b plus each distance of d to out, or adds it, eight rows
// a step: unrolled, the loop runs about twice as fast.
func setLanes[T lane](out []int64, d []T, b int64, add bool) {
	d = d[:len(out)]
	for ; len(d) >= 8; out, d = out[8:], d[8:] {
		o, x := out[:8:8], d[:8:8]
		if add {
			o[0], o[1], o[2], o[3] = o[0]+b+int64(x[0]), o[1]+b+int64(x[1]), o[2]+b+int64(x[2]), o[3]+b+int64(x[3])
			o[4], o[5], o[6], o[7] = o[4]+b+int64(x[4]), o[5]+b+int64(x[5]), o[6]+b+int64(x[6]), o[7]+b+int64(x[7])
			continue
		}
		o[0], o[1], o[2], o[3] = b+int64(x[0]), b+int64(x[1]), b+int64(x[2]), b+int64(x[3])
		o[4], o[5], o[6], o[7] = b+int64(x[4]), b+int64(x[5]), b+int64(x[6]), b+int64(x[7])
	}
	for j, x := range d {
		out[j] = b + int64(x) + out[j]*int64(b2i(add))
	}
}

var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// View returns distances d, of a chunk or a run of its rows, as the unsigned
// integers they are: in place, since a chunk starts at a multiple of
// ChunkRows times its width in its buffer, or as a copy on a big-endian host
// (or for a run the layout did not align).
func View[T uint16 | uint32 | uint64](d []byte) []T {
	w := int(unsafe.Sizeof(T(0)))
	if p := unsafe.SliceData(d); littleEndian && uintptr(unsafe.Pointer(p))%uintptr(w) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(p)), len(d)/w)
	}
	v := make([]T, len(d)/w)
	for i := range v {
		for b := w - 1; b >= 0; b-- {
			v[i] = v[i]<<8 | T(d[i*w+b])
		}
	}
	return v
}

// Append adds a row with value v (relative to the anchor, if any). Rows are
// staged a chunk at a time and encoded when the chunk is full, so each chunk
// is written once, already as narrow as its rows allow.
func (c *Column) Append(v int64) {
	if len(c.stage) == cap(c.stage) {
		c.flush()
	}
	c.stage = append(c.stage, v)
}

// AppendAll adds a row per value of vs, as Append does, a chunk at a time.
func (c *Column) AppendAll(vs []int64) {
	for len(vs) > 0 {
		if len(c.stage) == cap(c.stage) {
			c.flush()
		}
		n := copy(c.stage[len(c.stage):cap(c.stage)], vs)
		c.stage, vs = c.stage[:len(c.stage)+n], vs[n:]
	}
}

// flush encodes the staged rows as one chunk, based at their lowest value,
// and empties the stage (allocating it when there is none). The chunk goes
// into the last segment, unless that one's last chunk is short, which ends it.
func (c *Column) flush() {
	if len(c.stage) == 0 {
		c.stage = slices.Grow(c.stage, ChunkRows)
		return
	}
	lo, hi := c.stage[0], c.stage[0]
	for _, x := range c.stage {
		lo, hi = min(lo, x), max(hi, x)
	}
	w := 1
	for span := uint64(hi - lo); span>>(8*w) != 0; { // a shift by 64 is 0
		w *= 2
	}
	if k := len(c.segs) - 1; k < 0 || c.segs[k].rows(len(c.segs[k].chunks)-1) < ChunkRows {
		c.segs = append(c.segs, segment{row0: c.n, data: make([]byte, 0, c.hint*w), chunks: make([]chunk, 0, c.hint/ChunkRows+1)})
		c.hint = 0
	}
	s := &c.segs[len(c.segs)-1]
	n := len(s.data)
	s.data = slices.Grow(s.data, len(c.stage)*w)[:n+len(c.stage)*w]
	d := s.data[n:]
	switch w {
	case 1:
		for i, x := range c.stage {
			d[i] = byte(x - lo)
		}
	case 2:
		for i, x := range c.stage {
			binary.LittleEndian.PutUint16(d[2*i:], uint16(x-lo))
		}
	case 4:
		for i, x := range c.stage {
			binary.LittleEndian.PutUint32(d[4*i:], uint32(x-lo))
		}
	default:
		for i, x := range c.stage {
			binary.LittleEndian.PutUint64(d[8*i:], uint64(x-lo))
		}
	}
	s.chunks = append(s.chunks, chunk{base: lo, off: n, w: w})
	c.n += int64(len(c.stage))
	c.stage = c.stage[:0]
}

// seg returns the segment holding encoded row row.
func (c *Column) seg(row int64) *segment {
	lo, hi := 0, len(c.segs)
	for hi-lo > 1 {
		if m := (lo + hi) / 2; c.segs[m].row0 <= row {
			lo = m
		} else {
			hi = m
		}
	}
	return &c.segs[lo]
}

// At returns the value of row, which must be below Len.
func (c *Column) At(row int64) int64 {
	var v int64
	for ; c != nil; c = c.anchor {
		if row >= c.n {
			v += c.stage[row-c.n]
			continue
		}
		s := c.seg(row)
		r := uint(row - s.row0)
		ch := &s.chunks[r/ChunkRows]
		d := s.data[uint(ch.off)+r%ChunkRows*uint(ch.w):]
		switch v += ch.base; ch.w {
		case 1:
			v += int64(d[0])
		case 2:
			v += int64(binary.LittleEndian.Uint16(d))
		case 4:
			v += int64(binary.LittleEndian.Uint32(d))
		default:
			v += int64(binary.LittleEndian.Uint64(d))
		}
	}
	return v
}

// Decode returns the values of rows [lo, hi) in dst's storage, reallocated
// only when it is too small: a reader decodes a batch into its own scratch.
func (c *Column) Decode(dst []int64, lo, hi int64) []int64 {
	add := c.anchor != nil
	if add {
		dst = c.anchor.Decode(dst, lo, hi)
	} else {
		dst = slices.Grow(dst[:0], int(hi-lo))[:hi-lo]
	}
	for out, row := dst, lo; row < hi; {
		if row >= c.n {
			for i := range out {
				out[i] = c.stage[row-c.n+int64(i)] + out[i]*int64(b2i(add))
			}
			break
		}
		s := c.seg(row)
		r := int(row - s.row0)
		n := min(s.rows(r/ChunkRows)-r%ChunkRows, int(hi-row))
		s.decodeTo(out[:n], r/ChunkRows, r%ChunkRows, add)
		out, row = out[n:], row+int64(n)
	}
	return dst
}

// Gather returns the values of rows, in their order, in dst's storage
// (reallocated only when it is too small). The rows may come in any order
// and repeat, and each must be below Len. Consecutive rows that fall into one
// chunk are read from it together: the chunk is found once and each row's
// distance read in place, so a lone row costs what At does and a run what
// Decode does, and no row is decoded that was not asked for.
func (c *Column) Gather(dst []int64, rows []int64) []int64 {
	dst = slices.Grow(dst[:0], len(rows))[:len(rows)]
	c.gather(dst, rows, false)
	return dst
}

// gather writes the values of rows to dst, or adds them when add is set.
func (c *Column) gather(dst, rows []int64, add bool) {
	if c.anchor != nil {
		c.anchor.gather(dst, rows, add)
		add = true
	}
	for i := 0; i < len(rows); {
		if r := rows[i]; r >= c.n {
			dst[i] = c.stage[r-c.n] + dst[i]*int64(b2i(add))
			i++
			continue
		}
		switch first, base, w, d := c.chunk(rows[i]); w {
		case 1:
			i = pick(dst, rows, i, first, base, d, add)
		case 2:
			i = pick(dst, rows, i, first, base, View[uint16](d), add)
		case 4:
			i = pick(dst, rows, i, first, base, View[uint32](d), add)
		default:
			i = pick(dst, rows, i, first, base, View[uint64](d), add)
		}
	}
}

// pick writes (or adds) base plus its distance in d for each row from rows[i]
// on that falls into the chunk whose first row is first, and returns the
// index of the first row that does not.
func pick[T lane](dst, rows []int64, i int, first, base int64, d []T, add bool) int {
	for ; i < len(rows) && uint64(rows[i]-first) < uint64(len(d)); i++ {
		dst[i] = base + int64(d[rows[i]-first]) + dst[i]*int64(b2i(add))
	}
	return i
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// chunk returns the encoded chunk holding row: its first row, its base, its
// width w and the w-byte little-endian distances of its rows.
func (c *Column) chunk(row int64) (first, base int64, w int, d []byte) {
	s := c.seg(row)
	k := int(row-s.row0) / ChunkRows
	ch := s.chunks[k]
	end := len(s.data)
	if k+1 < len(s.chunks) {
		end = s.chunks[k+1].off
	}
	return s.row0 + int64(k*ChunkRows), ch.base, ch.w, s.data[ch.off:end]
}

// Lanes returns the chunk holding row, which must be encoded (below Len
// once Clip sealed the column) in a column with no anchor: its base, its
// width w and the w-byte little-endian distances of row and the chunk's
// rows after it. A reader may compare distances against a literal rebased
// on the chunk's base, without decoding them.
func (c *Column) Lanes(row int64) (base int64, w int, d []byte) {
	first, base, w, d := c.chunk(row)
	return base, w, d[int(row-first)*w:]
}

// Link appends the rows of frag (nil: none) to c, each moved by shift, without
// rewriting them: c shares frag's buffers, sealed by Clip and capped at their
// length so that neither column growing writes into the other's rows, and
// copies only their chunk headers, whose bases it moves.
func (c *Column) Link(frag *Column, shift int64) {
	if frag == nil {
		return
	}
	if len(c.stage) > 0 {
		c.flush()
	}
	frag.Clip()
	for _, s := range frag.segs {
		s.row0, s.data = c.n, s.data[:len(s.data):len(s.data)]
		s.chunks = append(make([]chunk, 0, len(s.chunks)), s.chunks...)
		for k := range s.chunks {
			s.chunks[k].base += shift
		}
		c.segs = append(c.segs, s)
		c.n += int64((len(s.chunks)-1)*ChunkRows + s.rows(len(s.chunks)-1))
	}
}

// Reserve gives an empty column room for about rows rows, allocated when its
// first chunk is encoded (by the goroutine that appends), so that a scan that
// goes on to append that many allocates its buffers once instead of
// regrowing them: at the first chunk's width a row (two bytes for the row
// starts of rows up to 511 bytes wide, one for offsets relative to them, four
// for integers spread over 2^32).
func (c *Column) Reserve(rows int) { c.hint = rows }

// Clip seals the column: it encodes the staged rows, and reallocates any
// buffer whose spare room exceeds 1/32 of its length, which a high Reserve
// estimate or append's regrowth would otherwise leave allocated for the
// column's lifetime.
func (c *Column) Clip() {
	if len(c.stage) > 0 {
		c.flush()
	}
	c.stage = nil
	for i := range c.segs {
		c.segs[i].data = clip(c.segs[i].data)
		c.segs[i].chunks = clip(c.segs[i].chunks)
	}
}

func clip[T any](s []T) []T {
	if cap(s)-len(s) <= len(s)/32 {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// Bytes returns the memory the column holds (0 for a nil column): its
// buffers, chunk headers, segment table and staged rows, spare room included.
func (c *Column) Bytes() int64 {
	if c == nil {
		return 0
	}
	n := int64(cap(c.segs))*int64(unsafe.Sizeof(segment{})) + int64(cap(c.stage))*8
	for _, s := range c.segs {
		n += int64(cap(s.data)) + int64(cap(s.chunks))*int64(unsafe.Sizeof(chunk{}))
	}
	return n
}
