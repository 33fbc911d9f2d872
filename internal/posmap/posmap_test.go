package posmap

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"rawdb/internal/offsets"
)

func TestPolicyColumns(t *testing.T) {
	cases := []struct {
		p     Policy
		ncols int
		want  []int
	}{
		{Policy{EveryK: 10}, 30, []int{0, 10, 20}},
		{Policy{EveryK: 7}, 30, []int{0, 7, 14, 21, 28}},
		{Policy{Extra: []int{5, 2}}, 10, []int{2, 5}},
		{Policy{EveryK: 4, Extra: []int{1, 4, 99}}, 8, []int{0, 1, 4}},
		{Policy{}, 8, nil},
		{Policy{Extra: []int{-1, 8}}, 8, nil},
	}
	for _, c := range cases {
		got := c.p.Columns(c.ncols)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v.Columns(%d) = %v, want %v", c.p, c.ncols, got, c.want)
		}
	}
}

func TestTrackedAndNearest(t *testing.T) {
	m := New(Policy{EveryK: 10}, 30) // tracks 0, 10, 20
	if !m.Tracked(10) || m.Tracked(11) {
		t.Fatal("Tracked wrong")
	}
	for _, c := range []struct {
		col, want int
		ok        bool
	}{
		{0, 0, true}, {5, 0, true}, {10, 10, true}, {11, 10, true},
		{19, 10, true}, {20, 20, true}, {29, 20, true},
	} {
		got, ok := m.Nearest(c.col)
		if ok != c.ok || got != c.want {
			t.Errorf("Nearest(%d) = %d,%v want %d,%v", c.col, got, ok, c.want, c.ok)
		}
	}
	empty := New(Policy{}, 30)
	if _, ok := empty.Nearest(5); ok {
		t.Fatal("Nearest on empty map should fail")
	}
}

func TestAppendAndLookup(t *testing.T) {
	m := New(Policy{Extra: []int{1, 3}}, 5)
	m.AppendRow([]int64{100, 200})
	m.AppendRow([]int64{300, 400})
	if m.NRows() != 2 {
		t.Fatalf("NRows = %d", m.NRows())
	}
	if got := m.Positions(3); got.Len() != 2 || got.At(1) != 400 {
		t.Fatalf("Positions(3) = %v", got.Decode(nil, 0, got.Len()))
	}
	if got := m.Positions(2); got != nil {
		t.Fatalf("Positions(2) = %v, want nil", got)
	}
	pos, skip, ok := m.Lookup(1, 3)
	if !ok || pos != 400 || skip != 0 {
		t.Fatalf("Lookup(1,3) = %d,%d,%v", pos, skip, ok)
	}
	pos, skip, ok = m.Lookup(0, 4)
	if !ok || pos != 200 || skip != 1 {
		t.Fatalf("Lookup(0,4) = %d,%d,%v", pos, skip, ok)
	}
	if _, _, ok := m.Lookup(0, 0); ok {
		t.Fatal("Lookup before first tracked column should fail")
	}
	if _, _, ok := m.Lookup(5, 3); ok {
		t.Fatal("Lookup past recorded rows should fail")
	}
}

// TestNearestProperty: Nearest always returns a tracked column <= c, and no
// tracked column lies strictly between it and c.
func TestNearestProperty(t *testing.T) {
	f := func(k uint8, q uint8) bool {
		ncols := 64
		p := Policy{EveryK: int(k%12) + 1}
		m := New(p, ncols)
		c := int(q) % ncols
		near, ok := m.Nearest(c)
		if !ok {
			return false // column 0 is always tracked with EveryK > 0
		}
		if near > c || !m.Tracked(near) {
			return false
		}
		for x := near + 1; x <= c; x++ {
			if m.Tracked(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryFootprint(t *testing.T) {
	m := New(Policy{Extra: []int{0, 2}}, 4)
	m.AppendRow([]int64{0, 10})
	m.AppendRow([]int64{20, 30})
	m.AppendRow([]int64{1000, 1010})
	if got := m.MemoryFootprint(); got != 2*8*128 {
		t.Fatalf("MemoryFootprint = %d before Clip, want two chunks' worth of rows not yet encoded", got)
	}
	m.Clip()
	// Two columns of one segment (56 bytes) and one chunk header (24 bytes)
	// each, their buffers clipped to what they hold: column 0 spans 1000 bytes,
	// two bytes a row; column 2 sits 10 bytes past it, one byte a row.
	if got := m.MemoryFootprint(); got != 2*(56+24)+3*2+3 {
		t.Fatalf("MemoryFootprint = %d", got)
	}
}

func TestTrackedColumnsOrder(t *testing.T) {
	m := New(Policy{Extra: []int{9, 1, 5}}, 10)
	if got := m.TrackedColumns(); !reflect.DeepEqual(got, []int{1, 5, 9}) {
		t.Fatalf("TrackedColumns = %v", got)
	}
}

// TestReserveAndClip checks that a reserved map allocates its buffers once,
// with its first chunk (an exact reservation needs no regrowth), and that
// publishing it by a Merge clips what a high or low estimate leaves to within
// 5 % of the same offsets chunked by one exactly reserved pass.
func TestReserveAndClip(t *testing.T) {
	const rows = 5000
	for _, reserve := range []int{0, rows / 3, rows, rows + rows/50, 4 * rows} {
		m := New(Policy{EveryK: 2}, 4)
		m.Reserve(reserve)
		var before, after runtime.MemStats
		for r := int64(0); r < rows; r++ {
			if r == offsets.ChunkRows+1 { // the first chunk is encoded
				runtime.ReadMemStats(&before)
			}
			m.AppendRow([]int64{10 * r, 10*r + 5})
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; reserve == rows && n != 0 {
			t.Errorf("exact reservation: %d allocations while appending after the first chunk, want 0", n)
		}
		pub := New(Policy{EveryK: 2}, 4)
		if err := pub.Merge(m, 0); err != nil {
			t.Fatal(err)
		}
		m = pub
		ref := New(Policy{EveryK: 2}, 4) // the same offsets chunked by one serial pass
		ref.Reserve(rows)
		for r := range int64(rows) {
			ref.AppendRow([]int64{m.Positions(0).At(r), m.Positions(2).At(r)})
		}
		ref.Clip()
		if got, want := m.MemoryFootprint(), ref.MemoryFootprint(); got > want+want/20 {
			t.Errorf("reserve %d: %d bytes once merged, want <= 1.05 x %d", reserve, got, want)
		}
		if pos, _, ok := m.Lookup(rows-1, 2); !ok || pos != 10*(rows-1)+5 {
			t.Errorf("reserve %d: lookup once merged = %d, %v", reserve, pos, ok)
		}
	}
}
