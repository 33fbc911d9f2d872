package jsonidx

import (
	"fmt"
	"reflect"
	"testing"
)

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
	if pos := x.Positions("p.b"); pos[4] != 420 {
		t.Fatalf("p.b positions = %v", pos)
	}
	if x.Positions("z") != nil {
		t.Fatal("untracked path returned positions")
	}
	if got := x.TrackedPaths(); !reflect.DeepEqual(got, []string{"a", "p.b"}) {
		t.Fatalf("TrackedPaths = %v", got)
	}
	if x.MemoryFootprint() != (5+5+5)*8 {
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
	if pos := x.Positions("b"); pos[2] != 27 {
		t.Fatalf("b positions = %v", pos)
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
// over one row accounts 2 + 8 = 10 bytes, so a 30-byte budget holds three.
func TestLRUEviction(t *testing.T) {
	x := New(30)
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
	x := New(30)
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
	for r := int64(0); r < 4; r++ { // 3 + 4*8 = 35 bytes > 10
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

// TestReserveClipMerge checks that a reserved fragment allocates its slices
// once (an exact reservation is what the committed index holds), that Clip
// bounds the slack of a high or low estimate to 1/32 of the length, and that
// Merge writes fragments into destinations of exactly their total length.
func TestReserveClipMerge(t *testing.T) {
	const rows = 5000
	fill := func(reserve int) *Index {
		x := New(0)
		x.Reserve(reserve)
		r := x.Record([]string{"a", "b"})
		for i := int64(0); i < rows; i++ {
			r.AppendRow(100*i, []int64{100*i + 5, 100*i + 9})
		}
		r.Commit()
		return x
	}
	for _, reserve := range []int{0, rows / 3, rows, rows + rows/50, 4 * rows} {
		x := fill(reserve)
		if reserve == rows && (cap(x.RowStarts()) != rows || cap(x.Positions("b")) != rows) {
			t.Errorf("exact reservation: caps %d, %d before Clip, want %d", cap(x.RowStarts()), cap(x.Positions("b")), rows)
		}
		x.Clip()
		for what, s := range map[string][]int64{"rows": x.RowStarts(), "a": x.Positions("a"), "b": x.Positions("b")} {
			if len(s) != rows || cap(s) > rows+rows/20 {
				t.Errorf("reserve %d, %s: len %d cap %d, want cap <= 1.05 x %d", reserve, what, len(s), cap(s), rows)
			}
		}
		if got := x.Positions("b")[rows-1]; got != 100*(rows-1)+9 {
			t.Errorf("reserve %d: last offset after Clip = %d", reserve, got)
		}
	}
	m := Merge([]*Index{fill(0), fill(rows)}, []int64{0, 100 * rows}, 0)
	for what, s := range map[string][]int64{"rows": m.RowStarts(), "a": m.Positions("a"), "b": m.Positions("b")} {
		if len(s) != 2*rows || cap(s) != 2*rows {
			t.Errorf("merged %s: len %d cap %d, want both %d", what, len(s), cap(s), 2*rows)
		}
	}
	if got := m.Positions("a")[2*rows-1]; got != 100*(2*rows-1)+5 {
		t.Errorf("merged last offset = %d", got)
	}
}
