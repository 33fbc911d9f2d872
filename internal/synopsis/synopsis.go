// Package synopsis implements format-agnostic zone maps: per-block min/max
// summaries of numeric columns, built as a free side effect of sequential
// scans (like positional maps) and consulted by the planner and the generated
// access paths to skip whole blocks and morsels a predicate excludes.
//
// The paper exploits the zone maps the ROOT format stores per basket ("the
// indexes file formats incorporate over their contents can be exploited by
// the generated access paths"); this package generalises that to every
// format: the first scan over a CSV, JSONL or binary file records, per block
// of rows, the minimum and maximum of each observed column. Later selective
// queries compare pushed-down predicates against the blocks and skip the raw
// bytes entirely — scan avoidance the raw file itself cannot offer.
//
// Blocks are variable-length row ranges, not a fixed grid: a serial scan
// closes a block every DefaultBlockRows rows, while each morsel of a parallel
// scan builds its own fragment whose blocks are concatenated (with row
// offsets) on completion. Pruning never depends on block boundaries, only on
// the min/max bounds, so serial and parallel builds prune identically.
package synopsis

import (
	"fmt"
	"sort"
	"sync/atomic"

	"rawdb/internal/exec"
	"rawdb/internal/vector"
)

// DefaultBlockRows is the serial block granularity: coarse enough that the
// per-block bookkeeping vanishes against parsing cost, fine enough that a
// selective predicate over clustered data skips most of a large file.
const DefaultBlockRows = 4096

// Column holds one column's per-block bounds. Exactly one of the int or
// float pairs is populated, selected by Type. All columns of a synopsis
// share its block boundaries.
type Column struct {
	Col  int
	Type vector.Type
	IMin []int64
	IMax []int64
	FMin []float64
	FMax []float64
}

// Synopsis is the zone map of one raw file: shared block boundaries plus
// min/max bounds per observed column. A column is present only when its
// bounds cover every row of the file (partial observations are dropped at
// merge time), so pruning decisions are always sound. Synopses are immutable
// once published to the engine.
type Synopsis struct {
	nrows  int64
	bounds []int64 // len nblocks+1; bounds[0] = 0, bounds[last] = nrows
	cols   map[int]*Column

	// Pruning effectiveness counters (observability): how often this zone
	// map was consulted and how often it excluded a range. Atomic because
	// parallel morsel planning consults one synopsis from the planner while
	// worker-side scans consult it concurrently.
	checks atomic.Int64
	hits   atomic.Int64
}

// PruneStats returns how many range checks this synopsis answered and how
// many of them excluded the range (the engine's metrics registry sums these
// across tables).
func (s *Synopsis) PruneStats() (checks, hits int64) {
	if s == nil {
		return 0, 0
	}
	return s.checks.Load(), s.hits.Load()
}

// NRows returns the number of rows the synopsis covers.
func (s *Synopsis) NRows() int64 { return s.nrows }

// NBlocks returns the number of blocks.
func (s *Synopsis) NBlocks() int { return len(s.bounds) - 1 }

// Bounds returns the shared block boundaries. Callers must not modify it.
func (s *Synopsis) Bounds() []int64 { return s.bounds }

// Tracked reports whether the synopsis holds bounds for column c.
func (s *Synopsis) Tracked(c int) bool {
	_, ok := s.cols[c]
	return ok
}

// Columns returns the observed columns sorted by index, for deterministic
// serialisation.
func (s *Synopsis) Columns() []*Column {
	out := make([]*Column, 0, len(s.cols))
	for _, c := range s.cols {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Col < out[j].Col })
	return out
}

// MemoryFootprint returns the approximate byte size of the stored bounds,
// used by the engine's unified cache accounting (0 for a nil synopsis).
func (s *Synopsis) MemoryFootprint() int64 {
	if s == nil {
		return 0
	}
	b := int64(len(s.bounds)) * 8
	for _, c := range s.cols {
		b += int64(len(c.IMin)+len(c.IMax))*8 + int64(len(c.FMin)+len(c.FMax))*8
	}
	return b
}

// Excludes reports whether the predicate p (whose Col names a column of this
// synopsis and whose literal matches the column's type) can match no row in
// [start, end). It is conservatively false when the column is untracked or
// the range escapes the covered rows.
func (s *Synopsis) Excludes(p exec.Pred, start, end int64) bool {
	if s == nil || start >= end || start < 0 || end > s.nrows {
		return false
	}
	c, ok := s.cols[p.Col]
	if !ok {
		return false
	}
	s.checks.Add(1)
	// First block whose end exceeds start.
	bi := sort.Search(len(s.bounds)-1, func(i int) bool { return s.bounds[i+1] > start })
	for ; bi < len(s.bounds)-1 && s.bounds[bi] < end; bi++ {
		switch c.Type {
		case vector.Int64:
			if !IntRangeExcluded(c.IMin[bi], c.IMax[bi], p.I64, p.Op) {
				return false
			}
		case vector.Float64:
			if !FloatRangeExcluded(c.FMin[bi], c.FMax[bi], p.F64, p.Op) {
				return false
			}
		default:
			return false
		}
	}
	s.hits.Add(1)
	return true
}

// IntRangeExcluded reports whether no value v in [lo, hi] can satisfy
// "v op lit".
func IntRangeExcluded(lo, hi, lit int64, op exec.CmpOp) bool {
	switch op {
	case exec.Lt:
		return lo >= lit
	case exec.Le:
		return lo > lit
	case exec.Gt:
		return hi <= lit
	case exec.Ge:
		return hi < lit
	case exec.Eq:
		return lit < lo || lit > hi
	case exec.Ne:
		return lo == lit && hi == lit
	}
	return false
}

// FloatRangeExcluded is the float twin of IntRangeExcluded.
func FloatRangeExcluded(lo, hi, lit float64, op exec.CmpOp) bool {
	switch op {
	case exec.Lt:
		return lo >= lit
	case exec.Le:
		return lo > lit
	case exec.Gt:
		return hi <= lit
	case exec.Ge:
		return hi < lit
	case exec.Eq:
		return lit < lo || lit > hi
	case exec.Ne:
		return lo == lit && hi == lit
	}
	return false
}

// Concat stitches per-morsel fragments into one synopsis covering their
// concatenated row ranges, offsetting block boundaries as it goes. Columns
// absent from any fragment are dropped (their coverage would have holes).
// nil fragments and empty fragments are skipped.
func Concat(frags []*Synopsis) *Synopsis {
	var live []*Synopsis
	for _, f := range frags {
		if f != nil && f.nrows > 0 {
			live = append(live, f)
		}
	}
	if len(live) == 0 {
		return nil
	}
	out := &Synopsis{bounds: []int64{0}, cols: make(map[int]*Column)}
	// Columns present everywhere survive.
	for col, c0 := range live[0].cols {
		everywhere := true
		for _, f := range live[1:] {
			c, ok := f.cols[col]
			if !ok || c.Type != c0.Type {
				everywhere = false
				break
			}
		}
		if everywhere {
			out.cols[col] = &Column{Col: col, Type: c0.Type}
		}
	}
	for _, f := range live {
		off := out.nrows
		for _, b := range f.bounds[1:] {
			out.bounds = append(out.bounds, b+off)
		}
		for col, oc := range out.cols {
			fc := f.cols[col]
			oc.IMin = append(oc.IMin, fc.IMin...)
			oc.IMax = append(oc.IMax, fc.IMax...)
			oc.FMin = append(oc.FMin, fc.FMin...)
			oc.FMax = append(oc.FMax, fc.FMax...)
		}
		out.nrows += f.nrows
	}
	if len(out.cols) == 0 {
		return nil
	}
	return out
}

// Restore reconstructs a synopsis from its serialised parts, validating every
// shape invariant (the decode-side counterpart of the vault codec; corrupt
// entries must fail here rather than panic a scan later).
func Restore(nrows int64, bounds []int64, cols []*Column) (*Synopsis, error) {
	if nrows < 0 {
		return nil, fmt.Errorf("synopsis: negative row count %d", nrows)
	}
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != nrows {
		return nil, fmt.Errorf("synopsis: bounds do not cover [0, %d)", nrows)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("synopsis: bounds not strictly ascending")
		}
	}
	nb := len(bounds) - 1
	s := &Synopsis{nrows: nrows, bounds: bounds, cols: make(map[int]*Column, len(cols))}
	for _, c := range cols {
		if c.Col < 0 {
			return nil, fmt.Errorf("synopsis: negative column index %d", c.Col)
		}
		if _, dup := s.cols[c.Col]; dup {
			return nil, fmt.Errorf("synopsis: duplicate column %d", c.Col)
		}
		switch c.Type {
		case vector.Int64:
			if len(c.IMin) != nb || len(c.IMax) != nb || c.FMin != nil || c.FMax != nil {
				return nil, fmt.Errorf("synopsis: column %d bounds do not match %d blocks", c.Col, nb)
			}
			for i := range c.IMin {
				if c.IMin[i] > c.IMax[i] {
					return nil, fmt.Errorf("synopsis: column %d block %d min exceeds max", c.Col, i)
				}
			}
		case vector.Float64:
			if len(c.FMin) != nb || len(c.FMax) != nb || c.IMin != nil || c.IMax != nil {
				return nil, fmt.Errorf("synopsis: column %d bounds do not match %d blocks", c.Col, nb)
			}
			for i := range c.FMin {
				// NaNs cannot order; a synopsis containing them could prune
				// rows that compare false-but-present. Reject outright.
				if !(c.FMin[i] <= c.FMax[i]) {
					return nil, fmt.Errorf("synopsis: column %d block %d has unordered float bounds", c.Col, i)
				}
			}
		default:
			return nil, fmt.Errorf("synopsis: unsupported column type %d", uint8(c.Type))
		}
		s.cols[c.Col] = c
	}
	if len(s.cols) == 0 {
		return nil, fmt.Errorf("synopsis: no columns")
	}
	return s, nil
}
