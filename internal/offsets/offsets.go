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

// addTo adds the values of rows [i, i+len(out)) of chunk k to out.
func (s *segment) addTo(out []int64, k, i int) {
	ch := s.chunks[k]
	b, d := ch.base, s.data[ch.off+i*ch.w:]
	switch ch.w {
	case 1:
		for j, x := range d[:len(out)] {
			out[j] += b + int64(x)
		}
	case 2:
		for j := range out {
			out[j] += b + int64(binary.LittleEndian.Uint16(d[2*j:]))
		}
	case 4:
		for j := range out {
			out[j] += b + int64(binary.LittleEndian.Uint32(d[4*j:]))
		}
	default:
		for j := range out {
			out[j] += b + int64(binary.LittleEndian.Uint64(d[8*j:]))
		}
	}
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

// flush encodes the staged rows as one chunk, based at their lowest value,
// and empties the stage (allocating it when there is none). The chunk goes
// into the last segment, unless that one's last chunk is short, which ends it.
func (c *Column) flush() {
	if len(c.stage) == 0 {
		c.stage = slices.Grow(c.stage, ChunkRows)
		return
	}
	if k := len(c.segs) - 1; k < 0 || c.segs[k].rows(len(c.segs[k].chunks)-1) < ChunkRows {
		width := 1
		if c.anchor == nil {
			width = 2
		}
		c.segs = append(c.segs, segment{row0: c.n, data: make([]byte, 0, c.hint*width), chunks: make([]chunk, 0, c.hint/ChunkRows+1)})
		c.hint = 0
	}
	s := &c.segs[len(c.segs)-1]
	lo, hi := c.stage[0], c.stage[0]
	for _, x := range c.stage {
		lo, hi = min(lo, x), max(hi, x)
	}
	w := 1
	for span := uint64(hi - lo); span>>(8*w) != 0; { // a shift by 64 is 0
		w *= 2
	}
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
	if c.anchor != nil {
		dst = c.anchor.Decode(dst, lo, hi)
	} else {
		dst = slices.Grow(dst[:0], int(hi-lo))[:hi-lo]
		clear(dst)
	}
	for out, row := dst, lo; row < hi; {
		if row >= c.n {
			for i := range out {
				out[i] += c.stage[row-c.n+int64(i)]
			}
			break
		}
		s := c.seg(row)
		r := int(row - s.row0)
		n := min(s.rows(r/ChunkRows)-r%ChunkRows, int(hi-row))
		s.addTo(out[:n], r/ChunkRows, r%ChunkRows)
		out, row = out[n:], row+int64(n)
	}
	return dst
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
// regrowing them: two bytes a row for absolute offsets (the row starts of
// rows up to 511 bytes wide), one for relative ones.
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

// Bytes returns the memory the column holds: its buffers, chunk headers,
// segment table and staged rows, spare room included.
func (c *Column) Bytes() int64 {
	n := int64(cap(c.segs))*int64(unsafe.Sizeof(segment{})) + int64(cap(c.stage))*8
	for _, s := range c.segs {
		n += int64(cap(s.data)) + int64(cap(s.chunks))*int64(unsafe.Sizeof(chunk{}))
	}
	return n
}
