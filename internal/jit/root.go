package jit

import (
	"fmt"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

// RootScan is a JIT access path over the ROOT-like format. Mirroring the
// paper's Higgs implementation, the generated code does not parse bytes
// itself: "the JIT access paths emit code that calls the ROOT I/O API". At
// generation time the branch handles (the paper's "internal ROOT-specific
// identifiers") are resolved from the partial schema and captured; execution
// performs vectorized reads through the library's buffer pool.
type RootScan struct {
	schema    vector.Schema
	batchSize int
	nrows     int64
	readers   []func(start, n int64, out *vector.Vector) error
	emitRID   bool
	ridSlot   int

	// Zone-map pruning (optional): canSkip decides per basket of
	// pruneBranch whether a pushed-down predicate excludes it entirely.
	pruneBranch *rootfile.Branch
	canSkip     func(k int) bool
	skipped     int64

	row int64
	out *vector.Batch
}

// Prune is a predicate pushed down into a root scan. The generated access
// path consults the file's per-basket zone maps (min/max synopses) and skips
// baskets the predicate excludes — the paper's observation that "indexes
// [file formats] incorporate over their contents can be exploited by the
// generated access paths". The predicate is advisory: rows in surviving
// baskets still flow to the regular Filter above.
type Prune struct {
	Col int // table column index the predicate applies to
	Op  exec.CmpOp
	I64 int64
	F64 float64
}

// NewRootScanPruned generates a root access path with an optional pushed
// down predicate used for zone-map basket skipping.
func NewRootScanPruned(tree *rootfile.Tree, t *catalog.Table, need []int, emitRID bool,
	batchSize int, prune *Prune) (*RootScan, error) {
	if t.Format != catalog.Root {
		return nil, fmt.Errorf("jit: root scan got format %s", t.Format)
	}
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	schema, err := scanSchema(t, need, emitRID)
	if err != nil {
		return nil, err
	}
	s := &RootScan{
		schema:    schema,
		batchSize: batchSize,
		nrows:     tree.NEntries(),
		emitRID:   emitRID,
		ridSlot:   len(need),
	}
	s.out = vector.NewBatch(schema.Types(), batchSize)
	for _, c := range need {
		col := t.Schema[c]
		br, err := tree.Branch(col.Name)
		if err != nil {
			return nil, fmt.Errorf("jit: root scan: %w", err)
		}
		if br.Type != col.Type {
			return nil, fmt.Errorf("jit: root scan: branch %q is %s, table declares %s",
				col.Name, br.Type, col.Type)
		}
		switch col.Type {
		case vector.Int64:
			s.readers = append(s.readers, func(start, n int64, out *vector.Vector) error {
				var err error
				out.Int64s, err = br.ReadInt64s(out.Int64s, start, n)
				return err
			})
		case vector.Float64:
			s.readers = append(s.readers, func(start, n int64, out *vector.Vector) error {
				var err error
				out.Float64s, err = br.ReadFloat64s(out.Float64s, start, n)
				return err
			})
		default:
			return nil, fmt.Errorf("jit: unsupported root column type %s", col.Type)
		}
	}
	if prune != nil {
		if prune.Col < 0 || prune.Col >= len(t.Schema) {
			return nil, fmt.Errorf("jit: prune column %d out of range", prune.Col)
		}
		col := t.Schema[prune.Col]
		br, err := tree.Branch(col.Name)
		if err != nil {
			return nil, fmt.Errorf("jit: root scan prune: %w", err)
		}
		s.pruneBranch = br
		// The skip test is resolved at generation time into a monomorphic
		// closure over the branch's zone maps.
		switch col.Type {
		case vector.Int64:
			op, lit := prune.Op, prune.I64
			s.canSkip = func(k int) bool {
				lo, hi := br.IntBounds(k)
				return intRangeExcluded(lo, hi, lit, op)
			}
		case vector.Float64:
			op, lit := prune.Op, prune.F64
			s.canSkip = func(k int) bool {
				lo, hi := br.FloatBounds(k)
				return floatRangeExcluded(lo, hi, lit, op)
			}
		default:
			return nil, fmt.Errorf("jit: cannot prune on %s column", col.Type)
		}
	}
	return s, nil
}

// intRangeExcluded reports whether no value v in [lo, hi] can satisfy
// "v op lit".
func intRangeExcluded(lo, hi, lit int64, op exec.CmpOp) bool {
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

// floatRangeExcluded is the float twin of intRangeExcluded.
func floatRangeExcluded(lo, hi, lit float64, op exec.CmpOp) bool {
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

// SkippedBaskets reports how many baskets zone-map pruning skipped so far.
func (s *RootScan) SkippedBaskets() int64 { return s.skipped }

// Schema implements exec.Operator.
func (s *RootScan) Schema() vector.Schema { return s.schema }

// Open implements exec.Operator.
func (s *RootScan) Open() error {
	s.row = 0
	return nil
}

// Next implements exec.Operator.
func (s *RootScan) Next() (*vector.Batch, error) {
	for s.row < s.nrows {
		end := s.row + int64(s.batchSize)
		if s.canSkip != nil {
			k := s.pruneBranch.BasketOf(s.row)
			first, count := s.pruneBranch.EntryRange(k)
			if s.canSkip(k) {
				s.skipped++
				s.row = first + count
				continue
			}
			// Stay within the basket so the next iteration re-evaluates the
			// zone map at the boundary.
			if basketEnd := first + count; end > basketEnd {
				end = basketEnd
			}
		}
		if end > s.nrows {
			end = s.nrows
		}
		s.out.Reset()
		n := end - s.row
		for i, r := range s.readers {
			if err := r(s.row, n, s.out.Cols[i]); err != nil {
				return nil, err
			}
		}
		if s.emitRID {
			rid := s.out.Cols[s.ridSlot]
			for i := s.row; i < end; i++ {
				rid.AppendInt64(i)
			}
		}
		s.row = end
		return s.out, nil
	}
	return nil, nil
}

// Close implements exec.Operator.
func (s *RootScan) Close() error { return nil }

var _ exec.Operator = (*RootScan)(nil)
