// Package jsonidx implements the structural index, the positional-map idea
// of NoDB/RAW (package posmap) generalized to self-describing formats: an
// index over the *structure* of a JSONL file rather than over its data.
//
// Where a CSV positional map records byte offsets of every K-th column —
// columns have fixed ordinal positions, so a nearby anchor is always useful —
// JSON objects carry their own field names and may order members freely, so
// the index instead records, per row, the byte offset of each *path a query
// actually touched* plus the offset of the row itself. Later queries over a
// tracked path jump straight to its value; queries over an untracked path
// jump to the row start, walk the object once, and record the new path's
// offsets as a side effect (adaptive population, the same
// query-work-becomes-index behaviour positional maps have). Tracked paths
// are evicted least-recently-used beyond a budget, so the index stays
// proportional to the working set of queried paths, not to the file's
// vocabulary.
package jsonidx

import (
	"sort"
	"sync"

	"rawdb/internal/offsets"
)

// DefaultMaxBytes bounds the tracked-path offsets of one index, in bytes.
// The paper sizes positional maps by column-sampling policy; for JSON the
// path working set plays that role and a byte-accounted LRU budget keeps the
// footprint bounded and meaningful under the engine's unified cache budget
// (an entry-counted limit would let footprint scale with file size
// unchecked).
const DefaultMaxBytes = 64 << 20

// Index is the structural index of one JSONL file. The engine serialises
// queries per table, but one query's morsel workers consult the index
// concurrently, so the tracked-path table (and its LRU clock) is internally
// locked. Row starts are written exactly once — by the first committed scan,
// before any concurrent reader can exist — and are read without locking.
// A path's offsets are stored relative to their row's start, so they stay
// as narrow as a row is wide.
type Index struct {
	rows *offsets.Column // byte offset of each row start

	mu    sync.Mutex                 // guards paths, use, clock, bytes, ver
	paths map[string]*offsets.Column // tracked path -> per-row value offsets, anchored at rows
	use   map[string]int64           // logical access clock per path, for LRU
	clock int64
	bytes int64 // accounted bytes of tracked paths (names + offsets)
	max   int64 // byte budget for tracked paths
	ver   uint64

	reserve int // rows the next recorder's columns are reserved for (Reserve)

	// seeks counts Positions lookups that were served (observability: how
	// often queries navigated via the structural index instead of reparsing).
	seeks int64
}

// Seeks returns how many tracked-path lookups this index has served (0 for
// a nil index).
func (x *Index) Seeks() int64 {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.seeks
}

// New returns an empty index; maxBytes <= 0 selects DefaultMaxBytes.
func New(maxBytes int64) *Index {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Index{
		rows:  offsets.New(nil),
		paths: make(map[string]*offsets.Column),
		use:   make(map[string]int64),
		max:   maxBytes,
	}
}

// Reserve makes the next recorder taken from x allocate its row-start and
// per-path columns for rows rows at once (when their first chunks are
// encoded), so a scan that goes on to stage about that many does not regrow
// (and re-copy) them as it fills. The planner passes the row count of the
// bytes the scan will read, or an estimate of it; a low estimate only brings
// regrowth back, and Commit drops what a high one leaves. Call it before the
// index is shared.
func (x *Index) Reserve(rows int) { x.reserve = rows }

// Restore reconstructs an index from its serialised parts: the row-start
// offsets and the per-path value offsets (each of length len(rows); shorter
// or longer recordings are dropped as incomplete). maxBytes <= 0 selects
// DefaultMaxBytes. It is the decode-side counterpart of the vault codec.
func Restore(rows []int64, paths map[string][]int64, maxBytes int64) *Index {
	var names []string
	for p, offs := range paths {
		if len(offs) == len(rows) {
			names = append(names, p)
		}
	}
	sort.Strings(names)
	x := New(maxBytes)
	x.Reserve(len(rows))
	rec, cols, offs := x.Record(names), make([][]int64, len(names)), make([]int64, len(names))
	for i, p := range names {
		cols[i] = paths[p]
	}
	for r, start := range rows {
		for i, col := range cols {
			offs[i] = col[r]
		}
		rec.AppendRow(start, offs)
	}
	rec.Commit()
	return x
}

// pathBytes is the accounted footprint of one tracked path.
func pathBytes(name string, offs *offsets.Column) int64 {
	return int64(len(name)) + offs.Bytes()
}

// NRows returns the number of rows whose starts are recorded; 0 means the
// index is unpopulated and a sequential scan must run first.
func (x *Index) NRows() int64 { return x.rows.Len() }

// RowStarts returns the byte offsets of every row start. The column is shared
// and immutable once committed; callers only read it.
func (x *Index) RowStarts() *offsets.Column { return x.rows }

// Version counts committed mutations of the tracked-path set. The engine's
// vault write-back uses it to detect that an index grew since the last save
// (the index mutates in place, so pointer identity is not enough).
func (x *Index) Version() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.ver
}

// RowStart returns the byte offset of the given row.
func (x *Index) RowStart(row int64) int64 { return x.rows.At(row) }

// Tracked reports whether value offsets for the path are recorded.
func (x *Index) Tracked(path string) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	_, ok := x.paths[path]
	return ok
}

// TrackedPaths returns the tracked paths in sorted order.
func (x *Index) TrackedPaths() []string {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]string, 0, len(x.paths))
	for p := range x.paths {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Positions returns the per-row value offsets of a tracked path (nil if
// untracked) and marks the path recently used. The column is shared and never
// mutated once installed; callers only read it.
func (x *Index) Positions(path string) *offsets.Column {
	x.mu.Lock()
	defer x.mu.Unlock()
	offs, ok := x.paths[path]
	if !ok {
		return nil
	}
	x.clock++
	x.use[path] = x.clock
	x.seeks++
	return offs
}

// Peek returns a tracked path's offsets like Positions, but leaves the LRU
// order and the seek count alone: for readers that serve no query, such as
// the vault's encoder.
func (x *Index) Peek(path string) *offsets.Column {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.paths[path]
}

// MemoryFootprint returns the bytes the index's encoded offsets take, chunk
// headers and spare room included: what the engine's cache budget charges
// (0 for a nil index).
func (x *Index) MemoryFootprint() int64 {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
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
// by a serial scan. Fragments are private to their workers, so no locking is
// needed on them.
func Merge(frags []*Index, offs []int64, maxBytes int64) *Index {
	x := New(maxBytes)
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
		x.clock++
		x.paths[p] = merged
		x.use[p] = x.clock
		x.bytes += pathBytes(p, merged)
		x.ver++
	}
	x.evict()
	return x
}

// A Recorder stages structural observations made by one scan — row starts
// and value offsets for a fixed set of paths — and installs them atomically
// when the scan completes. Scans that fail mid-file therefore never leave a
// partially populated index behind, and concurrent plan/execute interleaving
// within one query never observes half-built state.
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
// supply offsets.
func (x *Index) Record(paths []string) *Recorder {
	x.mu.Lock()
	defer x.mu.Unlock()
	r := &Recorder{x: x, rows: x.rows, firstScan: x.rows.Len() == 0}
	if r.firstScan {
		r.rows = offsets.New(nil)
		r.rows.Reserve(x.reserve)
	}
	for _, p := range paths {
		if _, tracked := x.paths[p]; tracked {
			continue
		}
		offs := offsets.New(r.rows)
		offs.Reserve(x.reserve)
		r.paths = append(r.paths, p)
		r.offs = append(r.offs, offs)
	}
	x.reserve = 0
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
// Commit still verifies that every path saw every row.
func (r *Recorder) AppendPathOffset(i int, rowStart, off int64) {
	r.offs[i].Append(off - rowStart)
}

// Commit seals the staged offsets (offsets.Column.Clip) and installs them
// into the index, evicting least-recently-used paths beyond the budget. It is
// a no-op unless the staged row count matches the index (guarding against
// partial scans, which includes the partial recordings row-range morsel
// workers stage: their counts never match the whole file, so concurrent
// commits discard safely).
func (r *Recorder) Commit() {
	x := r.x
	x.mu.Lock()
	defer x.mu.Unlock()
	if r.firstScan {
		if r.rows.Len() == 0 {
			return
		}
		r.rows.Clip()
		x.rows = r.rows
		x.ver++
	}
	n := x.rows.Len()
	for i, p := range r.paths {
		if r.offs[i].Len() != n {
			continue // partial recording (e.g. errored scan): discard
		}
		r.offs[i].Clip()
		if old, ok := x.paths[p]; ok {
			x.bytes -= pathBytes(p, old)
		}
		x.clock++
		x.paths[p] = r.offs[i]
		x.use[p] = x.clock
		x.bytes += pathBytes(p, r.offs[i])
		x.ver++
	}
	x.evict()
}

// evict drops least-recently-used paths until the byte budget is met,
// always retaining at least the most recently used path (dropping the whole
// working set would force rebuild loops without bounding anything useful).
func (x *Index) evict() {
	for x.bytes > x.max && len(x.paths) > 1 {
		var victim string
		var oldest int64
		first := true
		for p, t := range x.use {
			if first || t < oldest {
				victim, oldest, first = p, t, false
			}
		}
		x.bytes -= pathBytes(victim, x.paths[victim])
		delete(x.paths, victim)
		delete(x.use, victim)
		x.ver++
	}
}
