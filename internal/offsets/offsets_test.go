package offsets

import (
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
