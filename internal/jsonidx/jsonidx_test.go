package jsonidx

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rawdb/internal/offsets"
)

// onePath is the accounted size of a committed 2-character path over one
// row: its name, a 56-byte segment, a 24-byte chunk header and its one-byte
// offset (Commit clips the buffer to it).
const onePath = 2 + 56 + 24 + 1

func TestRecordCommitLookup(t *testing.T) {
	x := New(0)
	if x.NRows() != 0 || x.Tracked("a") {
		t.Fatal("new index not empty")
	}
	rec := x.Record([]string{"a", "p.b"})
	if !reflect.DeepEqual(rec.Paths(), []string{"a", "p.b"}) {
		t.Fatalf("Paths = %v", rec.Paths())
	}
	for r := int64(0); r < 5; r++ {
		rec.AppendRow(r*100, []int64{r*100 + 5, r*100 + 20})
	}
	rec.Commit()
	if x.NRows() != 5 || x.RowStart(3) != 300 {
		t.Fatalf("rows = %d start3 = %d", x.NRows(), x.RowStart(3))
	}
	if !x.Tracked("a") || !x.Tracked("p.b") || x.Tracked("z") {
		t.Fatal("tracked set wrong")
	}
	if pos := x.Positions("p.b"); pos.At(4) != 420 {
		t.Fatalf("p.b positions = %v", pos.Decode(nil, 0, 5))
	}
	if x.Positions("z") != nil {
		t.Fatal("untracked path returned positions")
	}
	if got := x.TrackedPaths(); !reflect.DeepEqual(got, []string{"a", "p.b"}) {
		t.Fatalf("TrackedPaths = %v", got)
	}
	// Three committed columns of one segment (56 bytes) and one chunk header
	// (24 bytes) each, their buffers clipped to what they hold: row starts
	// 0..400 two bytes wide, both paths (5 and 20 past their row start) one
	// byte wide.
	if x.MemoryFootprint() != 3*(56+24)+5*2+5+5 {
		t.Fatalf("footprint = %d", x.MemoryFootprint())
	}
}

// TestAdaptiveExtension: a second scan over known rows adds a new path
// without touching row starts; already-tracked paths are skipped.
func TestAdaptiveExtension(t *testing.T) {
	x := New(0)
	rec := x.Record([]string{"a"})
	for r := int64(0); r < 3; r++ {
		rec.AppendRow(r*10, []int64{r*10 + 2})
	}
	rec.Commit()

	rec2 := x.Record([]string{"a", "b"})
	if !reflect.DeepEqual(rec2.Paths(), []string{"b"}) {
		t.Fatalf("second recorder paths = %v", rec2.Paths())
	}
	for r := int64(0); r < 3; r++ {
		rec2.AppendRow(r*10, []int64{r*10 + 7})
	}
	rec2.Commit()
	if x.NRows() != 3 {
		t.Fatalf("rows changed: %d", x.NRows())
	}
	if pos := x.Positions("b"); pos.At(2) != 27 {
		t.Fatalf("b positions = %v", pos.Decode(nil, 0, 3))
	}
}

// TestPartialScanDiscarded: a recorder that saw fewer rows than the file
// (errored scan) must not publish anything.
func TestPartialScanDiscarded(t *testing.T) {
	x := New(0)
	rec := x.Record([]string{"a"})
	rec.AppendRow(0, []int64{2})
	rec.AppendRow(10, []int64{12})
	rec.Commit()

	rec2 := x.Record([]string{"b"})
	rec2.AppendRow(0, []int64{5}) // only 1 of 2 rows
	rec2.Commit()
	if x.Tracked("b") {
		t.Fatal("partial path recording was committed")
	}

	// Empty first scan leaves the index unpopulated.
	y := New(0)
	y.Record([]string{"a"}).Commit()
	if y.NRows() != 0 {
		t.Fatal("empty commit populated rows")
	}
}

// TestLRUEviction: path bytes beyond the budget are evicted
// least-recently-used; recently read paths survive. Each 2-character path
// over one row accounts its name and one chunk (onePath bytes), so a budget
// of three times that holds three.
func TestLRUEviction(t *testing.T) {
	x := New(3 * onePath)
	commit := func(path string, val int64) {
		rec := x.Record([]string{path})
		rec.AppendRow(0, []int64{val})
		rec.Commit()
	}
	commit("p0", 0)
	commit("p1", 1)
	commit("p2", 2)
	x.Positions("p0") // touch p0: p1 becomes LRU
	commit("p3", 3)
	if x.Tracked("p1") {
		t.Fatal("LRU path p1 survived eviction")
	}
	for _, p := range []string{"p0", "p2", "p3"} {
		if !x.Tracked(p) {
			t.Fatalf("path %s evicted unexpectedly", p)
		}
	}
	// Hammer more paths: the byte budget holds.
	for i := 4; i < 10; i++ {
		commit(fmt.Sprintf("p%d", i), int64(i))
	}
	if len(x.TrackedPaths()) != 3 {
		t.Fatalf("tracked = %v", x.TrackedPaths())
	}
}

// TestByteEvictionOrder pins the eviction order of the byte-accounted LRU:
// inserting past the budget drops the least recently used paths first, and a
// single oversized path is still retained (the budget never empties the
// index below one path).
func TestByteEvictionOrder(t *testing.T) {
	x := New(3 * onePath)
	commit := func(path string, val int64) {
		rec := x.Record([]string{path})
		rec.AppendRow(0, []int64{val})
		rec.Commit()
	}
	for i := 0; i < 3; i++ {
		commit(fmt.Sprintf("p%d", i), int64(i))
	}
	// Insertion order is the use order: p0 must go first, then p1.
	commit("p3", 3)
	if x.Tracked("p0") || !x.Tracked("p1") {
		t.Fatalf("first eviction not LRU: tracked = %v", x.TrackedPaths())
	}
	commit("p4", 4)
	if x.Tracked("p1") || !x.Tracked("p2") {
		t.Fatalf("second eviction not LRU: tracked = %v", x.TrackedPaths())
	}

	// A lone path larger than the whole budget survives (floor of one).
	y := New(10)
	recY := y.Record([]string{"big"})
	for r := int64(0); r < 4; r++ { // 3 + onePath-2 bytes > 10
		recY.AppendRow(r*10, []int64{r*10 + 1})
	}
	recY.Commit()
	if !y.Tracked("big") {
		t.Fatal("oversized lone path evicted; index would thrash")
	}

	// Version advances on every committed mutation and eviction.
	if x.Version() == 0 {
		t.Fatal("version never advanced")
	}
}

// TestReserveClipMerge checks that a reserved fragment allocates its columns
// once, with their first chunks (an exact reservation needs no regrowth), and
// that Merge, which links
// fragments and clips their buffers, leaves what a high or low estimate left
// to within 5 % of the same offsets restored (which sizes them exactly).
func TestReserveClipMerge(t *testing.T) {
	const rows = 5000
	fill := func(reserve int) (*Index, uint64) {
		x := New(0)
		x.Reserve(reserve)
		r := x.Record([]string{"a", "b"})
		var before, after runtime.MemStats
		for i := int64(0); i < rows; i++ {
			if i == offsets.ChunkRows+1 { // the first chunks are encoded
				runtime.ReadMemStats(&before)
			}
			r.AppendRow(100*i, []int64{100*i + 5, 100*i + 9})
		}
		runtime.ReadMemStats(&after)
		r.Commit()
		return x, after.Mallocs - before.Mallocs
	}
	compact := func(what string, x *Index) {
		t.Helper()
		n := x.NRows()
		paths := map[string][]int64{}
		for _, p := range x.TrackedPaths() {
			paths[p] = x.Peek(p).Decode(nil, 0, n)
		}
		want := Restore(x.RowStarts().Decode(nil, 0, n), paths, 0).MemoryFootprint()
		if got := x.MemoryFootprint(); got > want+want/20 {
			t.Errorf("%s: %d bytes, want <= 1.05 x %d", what, got, want)
		}
		if got := x.Peek("b").At(n - 1); got != 100*(n-1)+9 {
			t.Errorf("%s: last offset %d", what, got)
		}
	}
	for _, reserve := range []int{0, rows / 3, rows, rows + rows/50, 4 * rows} {
		x, mallocs := fill(reserve)
		if reserve == rows && mallocs != 0 {
			t.Errorf("exact reservation: %d allocations while staging rows after the first chunk, want 0", mallocs)
		}
		compact(fmt.Sprintf("reserve %d, one fragment", reserve), Merge([]*Index{x}, []int64{0}, 0))
	}
	a, _ := fill(0)
	b, _ := fill(rows)
	compact("merged", Merge([]*Index{a, b}, []int64{0, 100 * rows}, 0))
}
