package jsonidx

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rawdb/internal/offsets"
)

func TestRecordCommitLookup(t *testing.T) {
	x := New()
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

// TestAdaptiveExtension: a second scan over known rows records a new path
// without touching row starts; already-tracked paths are skipped, and the
// recording becomes a new index only when published.
func TestAdaptiveExtension(t *testing.T) {
	x := New()
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
	rec2.Commit() // a recording over a populated index commits nothing
	if x.Tracked("b") {
		t.Fatal("Commit wrote a recording into a populated index")
	}
	y := rec2.Publish(x)
	if y.NRows() != 3 {
		t.Fatalf("rows changed: %d", y.NRows())
	}
	if pos := y.Positions("b"); pos.At(2) != 27 {
		t.Fatalf("b positions = %v", pos.Decode(nil, 0, 3))
	}
}

// TestPartialScanDiscarded: a recorder that saw fewer rows than the file
// (errored scan) must not publish anything.
func TestPartialScanDiscarded(t *testing.T) {
	x := New()
	rec := x.Record([]string{"a"})
	rec.AppendRow(0, []int64{2})
	rec.AppendRow(10, []int64{12})
	rec.Commit()

	rec2 := x.Record([]string{"b"})
	rec2.AppendRow(0, []int64{5}) // only 1 of 2 rows
	if rec2.NRows() != 0 {
		t.Fatalf("partial recording covers %d rows, want 0", rec2.NRows())
	}
	if y := rec2.Publish(x); y != x || x.Tracked("b") {
		t.Fatal("partial path recording was published")
	}

	// Empty first scan leaves the index unpopulated.
	y := New()
	y.Record([]string{"a"}).Commit()
	if y.NRows() != 0 {
		t.Fatal("empty commit populated rows")
	}
}

// TestPublishMakesNewIndex: publishing a recording returns a new index that
// shares the row starts and the unchanged path columns by pointer, and the
// seek counter; the index it grew from still tracks exactly what it did; a
// partial recording adds nothing. A recording published after another one
// over the same rows extends that one, and one whose index was replaced by
// an unrelated one extends the index it was recorded over.
func TestPublishMakesNewIndex(t *testing.T) {
	const rows = 4
	record := func(x *Index, path string, delta int64, n int64) *Recorder {
		rec := x.Record([]string{path})
		for r := int64(0); r < n; r++ {
			rec.AppendRow(r*10, []int64{r*10 + delta})
		}
		return rec
	}
	x := New()
	record(x, "a", 1, rows).Commit()
	footprint := x.MemoryFootprint()
	x.Positions("a")

	recB, recC := record(x, "b", 2, rows), record(x, "c", 3, rows)
	partial := record(x, "d", 4, rows-1)
	y := recB.Publish(x)
	if y == x {
		t.Fatal("publishing a complete recording returned the same index")
	}
	if y.RowStarts() != x.RowStarts() || y.Peek("a") != x.Peek("a") {
		t.Fatal("the published index does not share the row starts and path a by pointer")
	}
	if got := x.TrackedPaths(); !reflect.DeepEqual(got, []string{"a"}) || x.MemoryFootprint() != footprint {
		t.Fatalf("the old index now tracks %v in %d bytes, want [a] in %d", got, x.MemoryFootprint(), footprint)
	}
	if got := y.TrackedPaths(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("the published index tracks %v, want [a b]", got)
	}
	if y.Seeks() != 1 {
		t.Fatalf("the published index counts %d seeks, want the 1 it shares", y.Seeks())
	}
	y.Positions("b")
	if x.Seeks() != 2 {
		t.Fatalf("a seek on the published index left the shared count at %d", x.Seeks())
	}
	if z := partial.Publish(y); z != y || y.Tracked("d") {
		t.Fatal("a partial recording was published")
	}
	// c was recorded over x, while b was published: it extends y.
	z := recC.Publish(y)
	if got := z.TrackedPaths(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) || z.Peek("b") != y.Peek("b") {
		t.Fatalf("publishing over the current index tracks %v, want [a b c] sharing b", got)
	}
	if recC.Publish(z) != z {
		t.Fatal("publishing a recording the current index already tracks made a new index")
	}
	// An evicted or unrelated current index: extend the one recorded over.
	other := New()
	record(other, "a", 1, rows).Commit()
	for _, cur := range []*Index{nil, other} {
		w := recB.Publish(cur)
		if got := w.TrackedPaths(); !reflect.DeepEqual(got, []string{"a", "b"}) || w.RowStarts() != x.RowStarts() {
			t.Fatalf("publishing over %p tracks %v, want x's [a b]", cur, got)
		}
	}
}

// TestReserveClipMerge checks that a reserved fragment allocates its columns
// once, with their first chunks (an exact reservation needs no regrowth), and
// that Merge, which links
// fragments and clips their buffers, leaves what a high or low estimate left
// to within 5 % of the same offsets chunked by one exactly reserved pass.
func TestReserveClipMerge(t *testing.T) {
	const rows = 5000
	fill := func(reserve int) (*Index, uint64) {
		x := New()
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
		ref := New() // the same offsets chunked by one serial pass
		ref.Reserve(int(n))
		rec := ref.Record(x.TrackedPaths())
		for r := range n {
			rec.AppendRow(x.RowStart(r), []int64{x.Peek("a").At(r), x.Peek("b").At(r)})
		}
		rec.Commit()
		want := ref.MemoryFootprint()
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
		compact(fmt.Sprintf("reserve %d, one fragment", reserve), Merge([]*Index{x}, []int64{0}))
	}
	a, _ := fill(0)
	b, _ := fill(rows)
	compact("merged", Merge([]*Index{a, b}, []int64{0, 100 * rows}))
}
