package offsets

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

// TestLinkedColumnsGrowApart checks that a column and the fragment linked
// into it share no room to grow into: the fragment's buffer keeps a little
// spare room after Clip, and each column appends a short chunk afterwards,
// which fits in it. Each must still read its own rows.
func TestLinkedColumnsGrowApart(t *testing.T) {
	// Two bytes a row, 256 KiB in all, and the allocator's rounding to 8 KiB
	// pages leaves 8 KiB spare: not more than 1/32, so Clip keeps it.
	const rows = 1024 * ChunkRows
	frag := New(nil)
	frag.Reserve(rows + 4)
	var fragWant []int64
	for r := range int64(rows) {
		frag.Append(1000 + 7*r) // 128 rows span 889 bytes: two bytes wide
		fragWant = append(fragWant, 1000+7*r)
	}
	c := New(nil)
	c.Link(frag, 1<<20)
	var want []int64
	for _, v := range fragWant {
		want = append(want, v+1<<20)
	}
	for r := range int64(8) {
		c.Append(r)
		want = append(want, r)
		frag.Append(100 - r)
		fragWant = append(fragWant, 100-r)
	}
	c.Clip()
	frag.Clip()
	for _, col := range []struct {
		name string
		c    *Column
		want []int64
	}{{"linked", c, want}, {"fragment", frag, fragWant}} {
		if got := col.c.Decode(nil, 0, col.c.Len()); !slices.Equal(got, col.want) {
			t.Fatalf("%s column decodes %v, want %v", col.name, got, col.want)
		}
		for r, v := range col.want {
			if got := col.c.At(int64(r)); got != v {
				t.Fatalf("%s column: At(%d) = %d, want %d", col.name, r, got, v)
			}
		}
	}
}

// TestBinaryRoundTrip writes columns of every width, a linked column with a
// short chunk mid-column, an unsealed one, an anchored one and an empty one
// in their binary form, and reads each back: the same values, the same
// segments, in no more memory, from exactly the bytes written.
func TestBinaryRoundTrip(t *testing.T) {
	filled := func(n int, step int64) *Column {
		c := New(nil)
		for r := range int64(n) {
			c.Append(r * step * (r % 3))
		}
		return c
	}
	linked := New(nil)
	linked.Link(filled(100, 1), 0) // a short chunk, which ends its segment
	linked.Link(filled(300, 1<<20), 1<<40)
	abs := filled(200, 300)
	abs.Clip()
	rel := New(abs)
	for r := range int64(200) {
		rel.Append(r % 7)
	}
	for _, c := range []struct {
		name   string
		col    *Column
		anchor *Column
	}{
		{"1 byte", filled(256, 1), nil},
		{"2 bytes", filled(300, 100), nil},
		{"4 bytes", filled(129, 1<<20), nil},
		{"8 bytes", filled(128, 1<<40), nil},
		{"linked", linked, nil},
		{"unsealed", filled(130, 5), nil}, // two rows still staged
		{"anchored", rel, abs},
		{"empty", New(nil), nil},
	} {
		want := c.col.Decode(nil, 0, c.col.Len())
		b := c.col.AppendBinary([]byte("prefix"))[len("prefix"):]
		got, n, err := Read(append(b, "trailing"...), c.anchor)
		if err != nil || n != len(b) {
			t.Fatalf("%s: read %d of %d bytes: %v", c.name, n, len(b), err)
		}
		if vals := got.Decode(nil, 0, got.Len()); !slices.Equal(vals, want) {
			t.Fatalf("%s: read %v, want %v", c.name, vals, want)
		}
		for r, v := range want {
			if got.At(int64(r)) != v {
				t.Fatalf("%s: At(%d) = %d, want %d", c.name, r, got.At(int64(r)), v)
			}
		}
		c.col.Clip()
		if got.Bytes() > c.col.Bytes() || len(got.segs) > len(c.col.segs) {
			t.Fatalf("%s: read %d segments in %d bytes from %d in %d", c.name, len(got.segs), got.Bytes(), len(c.col.segs), c.col.Bytes())
		}
	}
	if len(linked.segs) != 2 {
		t.Fatalf("linked column has %d segments, want 2", len(linked.segs))
	}
}

// TestReadRejects holds Read to an error wrapping ErrBinary, never a panic,
// on malformed binary forms.
func TestReadRejects(t *testing.T) {
	chunk := func(rows, w int, dist int) []byte {
		b := binary.LittleEndian.AppendUint16(nil, uint16(rows))
		b = append(b, byte(w))
		b = binary.LittleEndian.AppendUint64(b, 7)
		return append(b, make([]byte, dist)...)
	}
	form := func(n uint32, chunks ...[]byte) []byte {
		b := binary.LittleEndian.AppendUint32(nil, n)
		for _, ch := range chunks {
			b = append(b, ch...)
		}
		return b
	}
	anchor := New(nil)
	anchor.AppendAll([]int64{1, 2, 3})
	anchor.Clip()
	for name, c := range map[string]struct {
		b      []byte
		anchor *Column
	}{
		"no chunk count":       {[]byte{1, 0}, nil},
		"chunks past the end":  {form(1000, chunk(1, 1, 1)), nil},
		"chunk of no rows":     {form(1, chunk(0, 1, 1)), nil},
		"chunk of 129 rows":    {form(1, chunk(ChunkRows+1, 1, ChunkRows+1)), nil},
		"width 3":              {form(1, chunk(2, 3, 6)), nil},
		"width 0":              {form(1, chunk(2, 0, 1)), nil},
		"distances cut short":  {form(1, chunk(4, 2, 7)), nil},
		"header cut short":     {form(2, chunk(ChunkRows, 1, ChunkRows), chunk(1, 1, 1)[:8]), nil},
		"rows unlike anchor's": {form(1, chunk(2, 1, 2)), anchor},
	} {
		if col, _, err := Read(c.b, c.anchor); !errors.Is(err, ErrBinary) || col != nil {
			t.Errorf("%s: read %v, %v", name, col, err)
		}
	}
}
