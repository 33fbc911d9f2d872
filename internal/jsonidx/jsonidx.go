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
type Index struct {
	rows []int64 // byte offset of each row start

	mu    sync.Mutex         // guards paths, use, clock, bytes, ver
	paths map[string][]int64 // tracked path -> per-row value offsets
	use   map[string]int64   // logical access clock per path, for LRU
	clock int64
	bytes int64 // accounted bytes of tracked paths (names + offsets)
	max   int64 // byte budget for tracked paths
	ver   uint64

	reserve int // rows the next recorder allocates its slices for (Reserve)

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
		paths: make(map[string][]int64),
		use:   make(map[string]int64),
		max:   maxBytes,
	}
}

// Reserve makes the next recorder taken from x allocate its row-start and
// per-path slices for rows rows at once (when its first row arrives), so a
// scan that goes on to stage about that many does not regrow (and re-copy)
// them as it fills. The planner passes the row count of the bytes the scan
// will read, or an estimate of it; a low estimate only brings regrowth back,
// and Clip drops what a high one leaves. Call it before the index is shared.
func (x *Index) Reserve(rows int) { x.reserve = rows }

// Clip reallocates the row starts and any tracked path whose spare capacity
// exceeds 1/32 of its length. Called once on a committed fragment that is
// adopted as the table's index, it bounds what a high Reserve (or append's own
// regrowth) leaves allocated but unused for the index's lifetime;
// MemoryFootprint counts lengths and cannot see it.
func (x *Index) Clip() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.rows = clip(x.rows)
	for p, offs := range x.paths {
		x.paths[p] = clip(offs)
	}
}

func clip(s []int64) []int64 {
	if cap(s)-len(s) <= len(s)/32 {
		return s
	}
	return append(make([]int64, 0, len(s)), s...)
}

// Restore reconstructs an index from its serialised parts: the row-start
// offsets and the per-path value offsets (each of length len(rows); shorter
// or longer recordings are dropped as incomplete). maxBytes <= 0 selects
// DefaultMaxBytes. It is the decode-side counterpart of the vault codec.
func Restore(rows []int64, paths map[string][]int64, maxBytes int64) *Index {
	x := New(maxBytes)
	x.rows = rows
	names := make([]string, 0, len(paths))
	for p := range paths {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		if len(paths[p]) != len(rows) {
			continue
		}
		x.clock++
		x.paths[p] = paths[p]
		x.use[p] = x.clock
		x.bytes += pathBytes(p, paths[p])
	}
	x.evict()
	return x
}

// pathBytes is the accounted footprint of one tracked path.
func pathBytes(name string, offs []int64) int64 {
	return int64(len(name)) + int64(len(offs))*8
}

// NRows returns the number of rows whose starts are recorded; 0 means the
// index is unpopulated and a sequential scan must run first.
func (x *Index) NRows() int64 { return int64(len(x.rows)) }

// RowStarts returns the byte offsets of every row start. The slice is shared
// and immutable once committed; callers must not modify it.
func (x *Index) RowStarts() []int64 { return x.rows }

// Version counts committed mutations of the tracked-path set. The engine's
// vault write-back uses it to detect that an index grew since the last save
// (the index mutates in place, so pointer identity is not enough).
func (x *Index) Version() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.ver
}

// RowStart returns the byte offset of the given row.
func (x *Index) RowStart(row int64) int64 { return x.rows[row] }

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
// untracked) and marks the path recently used. The slice is shared and never
// mutated once installed; callers must not modify it.
func (x *Index) Positions(path string) []int64 {
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

// MemoryFootprint returns the approximate byte size of the stored offsets
// (0 for a nil index).
func (x *Index) MemoryFootprint() int64 {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	n := int64(len(x.rows)) * 8
	for _, offs := range x.paths {
		n += int64(len(offs)) * 8
	}
	return n
}

// Merge combines per-morsel fragment indexes into one index over the whole
// file: frags[i] indexes the bytes of the morsel starting at byte offs[i],
// in file order. Row starts concatenate with their morsel offsets applied; a
// path survives only if every fragment committed a full recording for it, so
// the merged index is indistinguishable from one built by a serial scan.
// Fragments are private to their workers, so no locking is needed on them.
func Merge(frags []*Index, offs []int64, maxBytes int64) *Index {
	x := New(maxBytes)
	if len(frags) == 0 {
		return x
	}
	total := 0
	for _, f := range frags {
		total += len(f.rows)
	}
	// shifted concatenates one slice per fragment (nil: some fragment has no
	// full recording) into an exactly-sized destination, each shifted by its
	// fragment's byte offset.
	shifted := func(of func(f *Index) []int64) []int64 {
		for _, f := range frags {
			if len(of(f)) != len(f.rows) {
				return nil
			}
		}
		dst := make([]int64, total)
		at := 0
		for i, f := range frags {
			off := offs[i]
			for j, o := range of(f) {
				dst[at+j] = o + off
			}
			at += len(f.rows)
		}
		return dst
	}
	x.rows = shifted(func(f *Index) []int64 { return f.rows })
	for _, p := range frags[0].TrackedPaths() {
		merged := shifted(func(f *Index) []int64 { return f.paths[p] })
		if merged == nil {
			continue
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
	rows  []int64
	offs  [][]int64
	// firstScan is true when the index had no rows yet: the recorder is then
	// also responsible for committing row starts.
	firstScan bool
	reserve   int // rows to allocate for at the first AppendRow (Index.Reserve)
}

// Record returns a recorder staging offsets for the given paths (paths
// already tracked are skipped). Pass the paths in the order AppendRow will
// supply offsets.
func (x *Index) Record(paths []string) *Recorder {
	x.mu.Lock()
	defer x.mu.Unlock()
	r := &Recorder{x: x, firstScan: len(x.rows) == 0, reserve: x.reserve}
	x.reserve = 0
	for _, p := range paths {
		if _, tracked := x.paths[p]; tracked {
			continue
		}
		r.paths = append(r.paths, p)
		r.offs = append(r.offs, nil)
	}
	return r
}

// Paths returns the paths the recorder actually stages (tracked paths were
// dropped), in AppendRow offset order.
func (r *Recorder) Paths() []string { return r.paths }

// AppendRow stages one row: its start offset and the value offsets of the
// recorder's paths (aligned with Paths()).
func (r *Recorder) AppendRow(rowStart int64, offs []int64) {
	if r.reserve > 0 {
		r.alloc()
	}
	if r.firstScan {
		r.rows = append(r.rows, rowStart)
	}
	for i, o := range offs {
		r.offs[i] = append(r.offs[i], o)
	}
}

// alloc allocates the reserved slices: at the first row rather than at Record,
// so a plan that never runs allocates nothing and each morsel's worker, not
// the planner, touches its fragment's memory first.
func (r *Recorder) alloc() {
	if r.firstScan {
		r.rows = make([]int64, 0, r.reserve)
	}
	for i := range r.offs {
		r.offs[i] = make([]int64, 0, r.reserve)
	}
	r.reserve = 0
}

// AppendPathOffset stages the next row's value offset for staged path i
// (aligned with Paths()). Column-at-a-time scans that visit each path in an
// independent pass use this instead of AppendRow; Commit still verifies that
// every path saw every row.
func (r *Recorder) AppendPathOffset(i int, off int64) {
	r.offs[i] = append(r.offs[i], off)
}

// Commit installs the staged offsets into the index, evicting
// least-recently-used paths beyond the budget. It is a no-op unless the
// staged row count matches the index (guarding against partial scans, which
// includes the partial recordings row-range morsel workers stage: their
// counts never match the whole file, so concurrent commits discard safely).
func (r *Recorder) Commit() {
	x := r.x
	x.mu.Lock()
	defer x.mu.Unlock()
	if r.firstScan {
		if len(r.rows) == 0 {
			return
		}
		x.rows = r.rows
		x.ver++
	}
	n := len(x.rows)
	for i, p := range r.paths {
		if len(r.offs[i]) != n {
			continue // partial recording (e.g. errored scan): discard
		}
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
