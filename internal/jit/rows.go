package jit

import (
	"fmt"
	"slices"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// colReader reads the values of one column for rows [rowStart, rowEnd) into
// out: the column-at-a-time body of a row-addressed access path, with where
// the field lies and how it converts resolved once, when the reader was
// generated. A non-nil sel restricts the read to the selected batch rows: the
// vector is extended to the full range and only the selected positions are
// written (the selection-vector contract of vector.Batch).
type colReader func(rowStart, rowEnd int64, sel []int32, out *vector.Vector) error

// rowCol is one column of a RowScan. dense marks a reader that reads every
// row whatever the selection — a JSON path recorded adaptively, whose offsets
// must cover the whole file — and so must run even when no row qualifies.
type rowCol struct {
	read  colReader
	dense bool
}

// RowScan is the one operator around every row-addressed JIT access path: CSV
// through a positional map, JSON through a structural index, fixed-width
// binary by arithmetic. The formats differ only in how their column readers
// locate and convert a field; the batch loop is this one. Per batch range it
// consults the zone-map exclusion test, reads the predicate columns dense,
// evaluates the conjunction vectorized, reads the remaining columns only for
// the qualifying rows, and emits the batch with a selection vector.
type RowScan struct {
	schema    vector.Schema
	batchSize int
	nrows     int64
	cols      []rowCol // by output slot
	// pred are the slots predicates test, read first; rest are the others.
	pred, rest []int
	preds      []exec.Pred // Col = output slot
	sel        []int32
	skip       func(start, end int64) bool
	// syn, when set, advances by each batch range after its columns decoded:
	// zone boundaries then align to batches, which the synopsis representation
	// permits (blocks are variable row ranges).
	syn     *synopsis.Builder
	emitRID bool

	rowsPruned    int64
	blocksSkipped int64

	lo, hi int64 // the row range scanned
	row    int64
	out    *vector.Batch
}

// newRowScan generates the scan of columns need over an nrows-row table; read
// generates the reader of one table column. opts.Preds are bound to output
// slots here, once.
func newRowScan(t *catalog.Table, need []int, nrows int64, emitRID bool, batchSize int,
	opts Pushdown, read func(c int) (rowCol, error)) (*RowScan, error) {
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	schema, err := scanSchema(t, need, emitRID)
	if err != nil {
		return nil, err
	}
	preds, err := bindPreds(schema, need, opts.Preds)
	if err != nil {
		return nil, err
	}
	s := &RowScan{schema: schema, batchSize: batchSize, nrows: nrows, preds: preds,
		skip: opts.Skip, syn: opts.Syn, emitRID: emitRID, hi: nrows, cols: make([]rowCol, len(need))}
	for i, c := range need {
		if s.cols[i], err = read(c); err != nil {
			return nil, err
		}
	}
	// pred and rest share one backing array: the tested slots, then the others.
	tested := func(i int) bool {
		return slices.ContainsFunc(preds, func(p exec.Pred) bool { return p.Col == i })
	}
	s.pred = make([]int, 0, len(need))
	for i := range need {
		if tested(i) {
			s.pred = append(s.pred, i)
		}
	}
	s.rest = s.pred[len(s.pred):]
	for i := range need {
		if !tested(i) {
			s.rest = append(s.rest, i)
		}
	}
	s.out = vector.NewBatch(schema.Types(), batchSize)
	return s, nil
}

// bindPreds checks conjuncts on table columns against the scan's schema and
// rebinds each to the output slot of its column in need.
func bindPreds(schema vector.Schema, need []int, preds []exec.Pred) ([]exec.Pred, error) {
	bound := make([]exec.Pred, len(preds))
	for i, p := range preds {
		if p.Col = slices.Index(need, p.Col); p.Col < 0 {
			return nil, fmt.Errorf("jit: pushed predicate on unread column %d", preds[i].Col)
		}
		bound[i] = p
	}
	return bound, exec.CheckPreds(schema, bound)
}

// SetRowRange restricts the scan to rows [start, end), the row-morsel form
// used by parallel plans. The emitted row ids stay absolute.
func (s *RowScan) SetRowRange(start, end int64) error {
	if start < 0 || end < start || end > s.nrows {
		return fmt.Errorf("jit: row range [%d,%d) outside 0..%d", start, end, s.nrows)
	}
	s.lo, s.hi = start, end
	return nil
}

// PushStats reports how many rows pushed-down predicates eliminated and how
// many batch ranges zone-map skip tests excluded inside this scan.
func (s *RowScan) PushStats() (rowsPruned, blocksSkipped int64) {
	return s.rowsPruned, s.blocksSkipped
}

// Schema implements exec.Operator.
func (s *RowScan) Schema() vector.Schema { return s.schema }

// Open implements exec.Operator.
func (s *RowScan) Open() error {
	s.row = s.lo
	return nil
}

// Next implements exec.Operator.
func (s *RowScan) Next() (*vector.Batch, error) {
	for s.row < s.hi {
		lo, hi := s.row, min(s.row+int64(s.batchSize), s.hi)
		s.row = hi
		// Zone-map exclusion: skip the whole range without touching a byte.
		if s.skip != nil && s.skip(lo, hi) {
			s.blocksSkipped++
			s.rowsPruned += hi - lo
			continue
		}
		sel, none, err := s.read(lo, hi)
		if err != nil {
			return nil, err
		}
		if s.syn != nil {
			s.syn.Advance(hi - lo)
		}
		if none {
			continue
		}
		if s.emitRID {
			rid := s.out.Cols[len(s.cols)]
			for r := lo; r < hi; r++ {
				rid.AppendInt64(r)
			}
		}
		s.out.Sel = sel
		return s.out, nil
	}
	return nil, nil
}

// read decodes rows [lo, hi) into the output batch: predicate columns dense,
// then the conjunction, then the other columns under its selection, so rows
// that do not qualify never pay their conversion. sel is nil when every row
// qualifies; none reports that no row does.
func (s *RowScan) read(lo, hi int64) (sel []int32, none bool, err error) {
	s.out.Reset()
	for _, i := range s.pred {
		if err := s.cols[i].read(lo, hi, nil, s.out.Cols[i]); err != nil {
			return nil, false, err
		}
	}
	if len(s.preds) > 0 {
		m := int(hi - lo)
		s.sel = exec.Select(s.sel, s.out.Cols, s.preds, nil, m)
		s.rowsPruned += int64(m - len(s.sel))
		switch len(s.sel) {
		case m:
		case 0:
			none = true
		default:
			sel = s.sel
		}
	}
	for _, i := range s.rest {
		if c := s.cols[i]; !none || c.dense {
			if err := c.read(lo, hi, sel, s.out.Cols[i]); err != nil {
				return nil, false, err
			}
		}
	}
	return sel, none, nil
}

// Close implements exec.Operator.
func (s *RowScan) Close() error { return nil }

var _ exec.Operator = (*RowScan)(nil)
