// Package posmap implements positional maps, the auxiliary structure NoDB
// introduced and RAW reuses for textual formats: an index over the *structure*
// of a raw file (byte positions of fields) rather than over its data.
//
// A map tracks a configurable subset of columns (the paper evaluates
// "every 10 columns" and "every 7 columns" policies). A later query for a
// tracked column jumps straight to its byte position; a query for an
// untracked column jumps to the nearest tracked column at or before it and
// parses incrementally from there. Maps are populated as a side effect of the
// first scan over a file and consulted by the planner when choosing access
// paths for subsequent queries.
package posmap

import (
	"fmt"
	"slices"
	"sort"

	"rawdb/internal/offsets"
)

// A Policy decides which columns of a file the map tracks.
type Policy struct {
	// EveryK tracks columns 0, K, 2K, ... when K > 0 (the paper's
	// "every 10 columns" heuristic; column numbering here is zero-based, so
	// tracking every 10th column records columns 1, 11, 21, ... in the
	// paper's one-based numbering).
	EveryK int
	// Extra lists additional column indexes to track regardless of EveryK.
	Extra []int
}

// Columns materialises the tracked column set for a file with ncols columns,
// in increasing order.
func (p Policy) Columns(ncols int) []int {
	var out []int
	for c := 0; p.EveryK > 0 && c < ncols; c += p.EveryK {
		out = append(out, c)
	}
	for _, c := range p.Extra {
		if c >= 0 && c < ncols {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// String describes the policy for logs and experiment labels.
func (p Policy) String() string {
	if p.EveryK > 0 {
		return fmt.Sprintf("every%d+%v", p.EveryK, p.Extra)
	}
	return fmt.Sprintf("cols%v", p.Extra)
}

// A Map stores, for each tracked column, the byte offset of that column's
// field in every row of one raw file. The first tracked column's offsets are
// stored as they are; every other column's relative to the first's in the
// same row, so that they stay as narrow as a row is wide.
type Map struct {
	tracked []int             // sorted tracked column indexes
	pos     []*offsets.Column // per tracked column, per row, byte offset
	nrows   int64
}

// New returns an empty map tracking the given columns of an ncols-wide file.
func New(policy Policy, ncols int) *Map {
	tracked := policy.Columns(ncols)
	pos := make([]*offsets.Column, len(tracked))
	for i := range pos {
		pos[i] = offsets.New(pos[0]) // pos[0] itself gets a nil anchor
	}
	m, _ := Restore(tracked, pos, 0)
	return m
}

// Restore makes a map of its parts: the tracked column indexes, strictly
// ascending, their position columns of nrows rows each, the first absolute
// and the others anchored at it (as offsets.Read builds them), and the row
// count. The vault's decoder restores a map so, replaying no row: the map
// holds the columns as they are, indistinguishable from a scan's.
func Restore(tracked []int, pos []*offsets.Column, nrows int64) (*Map, error) {
	if len(tracked) != len(pos) {
		return nil, fmt.Errorf("posmap: %d tracked columns for %d position columns", len(tracked), len(pos))
	}
	if nrows < 0 {
		return nil, fmt.Errorf("posmap: negative row count %d", nrows)
	}
	for i, c := range tracked {
		if c < 0 || i > 0 && c <= tracked[i-1] {
			return nil, fmt.Errorf("posmap: tracked columns %v not ascending from 0", tracked)
		}
		if pos[i].Len() != nrows {
			return nil, fmt.Errorf("posmap: column %d has %d positions for %d rows", c, pos[i].Len(), nrows)
		}
	}
	return &Map{tracked: tracked, pos: pos, nrows: nrows}, nil
}

// Tracked reports whether the map records positions for column c.
func (m *Map) Tracked(c int) bool { return m.Positions(c) != nil }

// slot returns the slot of the greatest tracked column <= c, or -1.
func (m *Map) slot(c int) int { return sort.SearchInts(m.tracked, c+1) - 1 }

// TrackedColumns returns the tracked column indexes in increasing order.
func (m *Map) TrackedColumns() []int { return m.tracked }

// NRows returns the number of rows recorded so far.
func (m *Map) NRows() int64 { return m.nrows }

// Reserve gives every position column room for about rows rows, allocated
// as the first rows arrive, so a scan that goes on to append about that many
// allocates each buffer once instead of regrowing (and re-copying) it as it
// fills. The planner passes the span's row count, or an estimate of it; a low
// estimate only brings regrowth back, and Clip drops what a high one leaves.
func (m *Map) Reserve(rows int) {
	for _, col := range m.pos {
		col.Reserve(rows)
	}
}

// Clip seals the map: it encodes the rows its columns still stage, and
// reallocates any buffer whose spare room exceeds 1/32 of its length. Called
// once on a finished map that is published as it is — concurrent readers
// need a sealed map — it bounds what a high Reserve estimate (or append's own
// regrowth) leaves allocated but unused for the map's lifetime; Merge seals
// the maps it links.
func (m *Map) Clip() {
	for _, col := range m.pos {
		col.Clip()
	}
}

// AppendRow records the byte offsets of the tracked columns for the next row.
// offsets must be ordered like TrackedColumns(). The scan operators call this
// once per row while building the map.
func (m *Map) AppendRow(offs []int64) {
	for i, off := range offs {
		if i > 0 {
			off -= offs[0]
		}
		m.pos[i].Append(off)
	}
	m.nrows++
}

// Positions returns the per-row byte offsets for tracked column c, or nil if
// c is not tracked. The column is shared; callers only read it.
func (m *Map) Positions(c int) *offsets.Column {
	if i := m.slot(c); i >= 0 && m.tracked[i] == c {
		return m.pos[i]
	}
	return nil
}

// Nearest returns the greatest tracked column <= c, for incremental parsing
// from a nearby position ("jump to column 7, parse forward to column 11").
// ok is false when no tracked column precedes c.
func (m *Map) Nearest(c int) (col int, ok bool) {
	if i := m.slot(c); i >= 0 {
		return m.tracked[i], true
	}
	return 0, false
}

// Lookup returns the byte position from which column c of row can be reached
// with the fewest skipped fields: the position of column c itself if tracked
// (skip = 0), else the position of the nearest preceding tracked column with
// skip = c - nearest. ok is false if the map cannot help for this column.
func (m *Map) Lookup(row int64, c int) (pos int64, skip int, ok bool) {
	i := m.slot(c)
	if i < 0 || row >= m.nrows {
		return 0, 0, false
	}
	return m.pos[i].At(row), c - m.tracked[i], true
}

// Merge appends the rows of frag to m, shifting every recorded position by
// byteOff. frag must track the same columns as m. Parallel scans build one
// private fragment map per byte-range morsel and merge them in morsel order
// once all workers finish, so the shared map is never written concurrently
// and, after the merge, reads like one built by a serial scan. The merge
// links frag's chunks instead of copying them, moving only the bases of its
// first column (the others are relative to it); frag is not written again.
func (m *Map) Merge(frag *Map, byteOff int64) error {
	if !slices.Equal(frag.tracked, m.tracked) {
		return fmt.Errorf("posmap: merge of a map tracking columns %v into one tracking %v", frag.tracked, m.tracked)
	}
	for i, col := range frag.pos {
		if i > 0 {
			byteOff = 0
		}
		m.pos[i].Link(col, byteOff)
	}
	m.nrows += frag.nrows
	return nil
}

// MemoryFootprint returns the bytes the map's encoded positions take, chunk
// headers and spare room included: what the engine's cache budget charges
// (0 for a nil map).
func (m *Map) MemoryFootprint() int64 {
	if m == nil {
		return 0
	}
	var n int64
	for _, col := range m.pos {
		n += col.Bytes()
	}
	return n
}
