// Package jsonidx implements the structural index, the positional-map idea
// of NoDB/RAW (package posmap) generalized to self-describing formats: an
// index over the *structure* of a JSONL file rather than over its data.
//
// Where a CSV positional map records byte offsets of every K-th column —
// columns have fixed ordinal positions, so a nearby anchor is always useful —
// JSON objects carry their own field names and may order members freely, so
// the index instead records the offset of each row plus, per row, the byte
// offset of each path a later raw read will use. A first scan records the
// paths its caller names (the engine leaves out those it captures as full
// column shreds, as NoDB's partial maps record only what a later read uses).
// Later queries over a tracked path jump straight to its value; queries over
// an untracked path jump to the row start, walk the object once, and record
// the path's offsets as a side effect (adaptive population), whole-table or
// a row range per worker. Such a recording is a query product: Publish
// turns it into a new index value, which shares the row starts and every
// unchanged path with the index it grew from. An installed index is never
// written again, and the engine's cache budget holds or evicts it whole.
package jsonidx

import (
	"maps"
	"slices"
	"sync/atomic"

	"rawdb/internal/offsets"
)

// DefaultMaxBytes is kept only so that callers still passing a per-index cap
// to New and Merge compile; the cap is ignored (the engine's cache budget
// bounds every index as one entry).
const DefaultMaxBytes = 64 << 20

// Index is the structural index of one JSONL file. It is filled once, while
// private to the scan (or merge, or vault decode) that builds it, and is
// read-only from then on: one query's morsel workers read it concurrently
// without locking, and a recording of new paths becomes a new index (Publish).
// A path's offsets are stored relative to their row's start, so they stay as
// narrow as a row is wide.
type Index struct {
	rows  *offsets.Column            // byte offset of each row start
	paths map[string]*offsets.Column // tracked path -> per-row value offsets, anchored at rows

	reserve int // rows the next recorder's columns are reserved for (Reserve)

	// seeks counts Positions lookups that were served (observability: how
	// often queries navigated via the structural index instead of reparsing).
	// An index published from another shares its counter.
	seeks *atomic.Int64
}

// Seeks returns how many tracked-path lookups this index, and the ones it was
// published from, have served (0 for a nil index).
func (x *Index) Seeks() int64 {
	if x == nil {
		return 0
	}
	return x.seeks.Load()
}

// New returns an empty index. Its optional argument, a former per-index byte
// cap, is ignored.
func New(...int64) *Index {
	return &Index{rows: offsets.New(nil), paths: make(map[string]*offsets.Column), seeks: new(atomic.Int64)}
}

// Reserve makes the next recorder taken from x allocate its row-start and
// per-path columns for rows rows at once (when their first chunks are
// encoded), so a scan that goes on to stage about that many does not regrow
// (and re-copy) them as it fills. The planner passes the row count of the
// bytes the scan will read, or an estimate of it; a low estimate only brings
// regrowth back, and Commit drops what a high one leaves. Call it before the
// index is shared.
func (x *Index) Reserve(rows int) { x.reserve = rows }

// Restore makes an index of its parts: the row starts and each path's value
// offsets, anchored at them and of their row count (as offsets.Read builds
// them). The vault's decoder restores an index so, replaying no row.
func Restore(rows *offsets.Column, paths map[string]*offsets.Column) *Index {
	return &Index{rows: rows, paths: paths, seeks: new(atomic.Int64)}
}

// NRows returns the number of rows whose starts are recorded; 0 means the
// index is unpopulated and a sequential scan must run first.
func (x *Index) NRows() int64 { return x.rows.Len() }

// RowStarts returns the byte offsets of every row start. The column is shared
// and immutable once committed; callers only read it.
func (x *Index) RowStarts() *offsets.Column { return x.rows }

// RowStart returns the byte offset of the given row.
func (x *Index) RowStart(row int64) int64 { return x.rows.At(row) }

// Tracked reports whether value offsets for the path are recorded.
func (x *Index) Tracked(path string) bool {
	_, ok := x.paths[path]
	return ok
}

// TrackedPaths returns the tracked paths in sorted order.
func (x *Index) TrackedPaths() []string { return slices.Sorted(maps.Keys(x.paths)) }

// Positions returns the per-row value offsets of a tracked path (nil if
// untracked) and counts the seek. The column is shared and never mutated once
// installed; callers only read it.
func (x *Index) Positions(path string) *offsets.Column {
	offs, ok := x.paths[path]
	if ok {
		x.seeks.Add(1)
	}
	return offs
}

// Peek returns a tracked path's offsets like Positions, but counts no seek:
// for readers that serve no query, such as the vault's encoder.
func (x *Index) Peek(path string) *offsets.Column { return x.paths[path] }

// MemoryFootprint returns the bytes the index's encoded offsets take, chunk
// headers and spare room included: what the engine's cache budget charges
// (0 for a nil index).
func (x *Index) MemoryFootprint() int64 {
	if x == nil {
		return 0
	}
	n := x.rows.Bytes()
	for _, offs := range x.paths {
		n += offs.Bytes()
	}
	return n
}

// Merge combines per-morsel fragment indexes into one index over the whole
// file: frags[i] indexes the bytes of the morsel starting at byte offs[i],
// in file order. The fragments' chunks are linked, not copied: only the row
// starts' bases move by their morsel offsets, and path offsets, relative to
// their rows, do not move at all. A path survives only if every fragment
// committed a full recording for it, so the merged index reads like one built
// by a serial scan. Its optional argument, a former per-index byte cap, is
// ignored.
func Merge(frags []*Index, offs []int64, _ ...int64) *Index {
	x := New()
	if len(frags) == 0 {
		return x
	}
	for i, f := range frags {
		x.rows.Link(f.rows, offs[i])
	}
paths:
	for _, p := range frags[0].TrackedPaths() {
		merged := offsets.New(x.rows)
		for _, f := range frags {
			if f.paths[p].Len() != f.rows.Len() {
				continue paths
			}
			merged.Link(f.paths[p], 0)
		}
		x.paths[p] = merged
	}
	return x
}

// A Recorder stages structural observations made by one scan — row starts
// and value offsets for a fixed set of paths. Over an empty index (a first
// scan's private fragment) Commit fills that index when the scan completes;
// over a populated one Publish makes a new index of the recording, and the
// recorded-over index is never written. Either way only complete recordings
// count, so a scan that fails mid-file leaves no partial index behind.
type Recorder struct {
	x     *Index
	paths []string
	rows  *offsets.Column   // the row starts the offsets are relative to
	offs  []*offsets.Column // per staged path, anchored at rows
	// firstScan is true when the index had no rows yet: the recorder is then
	// also responsible for committing row starts, which it stages in rows.
	firstScan bool
}

// Record returns a recorder staging offsets for the given paths (paths
// already tracked are skipped). Pass the paths in the order AppendRow will
// supply offsets. Over a populated index it only reads x, so concurrent scans
// may each take one.
func (x *Index) Record(paths []string) *Recorder {
	r := &Recorder{x: x, rows: x.rows, firstScan: x.rows.Len() == 0}
	reserve := 0
	if r.firstScan {
		reserve, x.reserve = x.reserve, 0
		r.rows = offsets.New(nil)
		r.rows.Reserve(reserve)
	}
	for _, p := range paths {
		if x.Tracked(p) {
			continue
		}
		offs := offsets.New(r.rows)
		offs.Reserve(reserve)
		r.paths = append(r.paths, p)
		r.offs = append(r.offs, offs)
	}
	return r
}

// Paths returns the paths the recorder actually stages (tracked paths were
// dropped), in AppendRow offset order.
func (r *Recorder) Paths() []string { return r.paths }

// AppendRow stages one row: its start offset and the value offsets of the
// recorder's paths (aligned with Paths()).
func (r *Recorder) AppendRow(rowStart int64, offs []int64) {
	if r.firstScan {
		r.rows.Append(rowStart)
	}
	for i, o := range offs {
		r.offs[i].Append(o - rowStart)
	}
}

// AppendPathOffset stages the next row's value offset for staged path i
// (aligned with Paths()), given that row's start. Column-at-a-time scans that
// visit each path in an independent pass use this instead of AppendRow;
// only paths that saw every row are committed or published.
func (r *Recorder) AppendPathOffset(i int, rowStart, off int64) {
	r.offs[i].Append(off - rowStart)
}

// NRows returns the rows the recording covers in full: its row count once
// every staged path has an offset for each row, else 0 (a partial recording
// adds nothing, and a row range's counts no row: Publish links it).
func (r *Recorder) NRows() int64 {
	n := r.rows.Len()
	for _, offs := range r.offs {
		if offs.Len() != n {
			return 0
		}
	}
	return n
}

// Commit installs a first scan's recording into the empty index it was taken
// from, still private to that scan: the row starts and every path recorded
// for each row. It does nothing for a recording over a populated index, which
// only Publish turns into an index, or for a scan that staged no row.
func (r *Recorder) Commit() {
	if !r.firstScan || r.rows.Len() == 0 {
		return
	}
	r.rows.Clip()
	r.x.rows = r.rows
	for i, p := range r.paths {
		if offs := r.offs[i]; offs.Len() == r.rows.Len() {
			offs.Clip()
			r.x.paths[p] = offs
		}
	}
}

// Publish returns the index to install once the recording's query succeeded.
// r records the table's rows, or the first of consecutive row ranges that
// rest record the others of, in order, each taken by a scan of the same
// paths over the same index. The result is cur, when it still indexes the
// recorded rows (the index the recording was taken from, or one published
// from it since), else the recorded-over index, extended by every path the
// ranges together record for each row and it does not track yet: their
// chunks are linked, not copied, as Merge links fragments. It is a new value
// sharing the row starts, the unchanged path columns and the seek counter;
// with nothing to add it is the base itself. Neither cur nor the
// recorded-over index is written.
func (r *Recorder) Publish(cur *Index, rest ...*Recorder) *Index {
	base := r.x
	if cur != nil && cur.rows == r.rows {
		base = cur
	}
	x := base
	for i, p := range r.paths {
		offs := r.offs[i]
		if len(rest) > 0 {
			offs = offsets.New(base.rows)
			for _, q := range append([]*Recorder{r}, rest...) {
				offs.Link(q.offs[i], 0)
			}
		}
		if base.Tracked(p) || offs.Len() != base.rows.Len() {
			continue
		}
		if x == base {
			x = &Index{rows: base.rows, paths: maps.Clone(base.paths), seeks: base.seeks}
		}
		offs.Clip()
		x.paths[p] = offs
	}
	return x
}
