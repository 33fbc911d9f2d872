package jit

import (
	"fmt"
	"slices"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// RowScan is the one operator around every row-addressed JIT access path: CSV
// through a positional map, JSON through a structural index, fixed-width
// binary by arithmetic. A format contributes only its fetch (exec.Fetch), the
// reader of columns by row id its late scans run too; the batch loop is this
// one. Per batch range it consults the zone-map exclusion test, fetches the
// dense columns — the predicate columns and any the format must read on every
// row, or all when nothing is pushed — for the range's row ids, evaluates the
// conjunction vectorized, fetches the other columns only for the qualifying
// rows and places them at their batch positions, and emits the batch with a
// selection vector.
type RowScan struct {
	schema    vector.Schema
	batchSize int
	nrows     int64
	ncols     int // columns before the row-id column
	// dense and rest fetch the output vectors denseOut and restOut; rest is
	// nil when every column is dense.
	dense, rest       exec.Fetch
	denseOut, restOut []*vector.Vector
	preds             []exec.Pred // Col = output slot
	sel               []int32
	rids, selRids     []int64 // the range's row ids and the qualifying ones
	skip              func(start, end int64) bool
	// syn, when set, advances by each batch range after its dense columns
	// were fetched, accs observing them (aligned with denseOut): zone
	// boundaries then align to batches, which the synopsis representation
	// permits (blocks are variable row ranges).
	syn     *synopsis.Builder
	accs    []*synopsis.Acc
	emitRID bool

	rowsPruned    int64
	blocksSkipped int64

	lo, hi int64 // the row range scanned
	row    int64
	out    *vector.Batch
}

// newRowScan generates the scan of columns need over an nrows-row table.
// fetch generates the format's fetch of table columns cols; dense lists the
// columns it must read on every row whatever the selection. opts.Preds are
// bound to output slots here, once.
func newRowScan(t *catalog.Table, need []int, nrows int64, emitRID bool, batchSize int,
	opts Pushdown, dense []int, fetch func(cols []int) (exec.Fetch, error)) (*RowScan, error) {
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
	s := &RowScan{schema: schema, batchSize: batchSize, nrows: nrows, ncols: len(need), preds: preds,
		skip: opts.Skip, syn: opts.Syn, emitRID: emitRID, hi: nrows}
	s.out = vector.NewBatch(schema.Types(), batchSize)
	isDense := func(i int) bool {
		return len(preds) == 0 || slices.Contains(dense, need[i]) ||
			slices.ContainsFunc(preds, func(p exec.Pred) bool { return p.Col == i })
	}
	// The columns and their output vectors, the nd dense ones first. With
	// every column dense the fetch reads need straight into the batch.
	cols, outs, nd := need, s.out.Cols[:len(need)], 0
	for i := range need {
		if isDense(i) {
			nd++
		}
	}
	if nd < len(need) {
		cols, outs = make([]int, 0, len(need)), make([]*vector.Vector, 0, len(need))
		for _, first := range []bool{true, false} {
			for i, c := range need {
				if isDense(i) == first {
					cols, outs = append(cols, c), append(outs, s.out.Cols[i])
				}
			}
		}
		if s.rest, err = fetch(cols[nd:]); err != nil {
			return nil, err
		}
		s.restOut = outs[nd:]
	}
	if nd > 0 {
		if s.dense, err = fetch(cols[:nd]); err != nil {
			return nil, err
		}
		s.denseOut = outs[:nd]
	}
	if emitRID {
		s.rids = s.out.Cols[s.ncols].Int64s // the range's ids are the row-id column
	}
	if s.syn != nil {
		for _, c := range cols[:nd] {
			s.accs = append(s.accs, s.syn.Acc(c))
		}
	}
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
		if none {
			continue
		}
		if s.emitRID {
			s.out.Cols[s.ncols].Int64s = s.rids
		}
		s.out.Sel = sel
		return s.out, nil
	}
	return nil, nil
}

// read decodes rows [lo, hi) into the output batch: the dense columns, then
// the conjunction, then the other columns for the qualifying rows only, so
// rows that do not qualify never pay their conversion. sel is nil when every
// row qualifies; none reports that no row does.
func (s *RowScan) read(lo, hi int64) (sel []int32, none bool, err error) {
	s.out.Reset()
	m := int(hi - lo)
	rids := slices.Grow(s.rids[:0], m)[:m]
	for i := range rids {
		rids[i] = lo + int64(i)
	}
	s.rids = rids
	if s.dense != nil {
		if err := s.dense(s.rids, s.denseOut); err != nil {
			return nil, false, err
		}
	}
	if s.syn != nil {
		for i, acc := range s.accs {
			if acc != nil {
				observe(acc, s.denseOut[i])
			}
		}
		s.syn.Advance(hi - lo)
	}
	if len(s.preds) > 0 {
		s.sel = exec.Select(s.sel, s.out.Cols, s.preds, nil, m)
		s.rowsPruned += int64(m - len(s.sel))
		switch len(s.sel) {
		case m:
		case 0:
			return nil, true, nil
		default:
			sel = s.sel
		}
	}
	if s.rest == nil {
		return sel, false, nil
	}
	if sel != nil {
		rids = slices.Grow(s.selRids[:0], m)
		for _, i := range sel {
			rids = append(rids, s.rids[i])
		}
		s.selRids = rids
	}
	if err := s.rest(rids, s.restOut); err != nil {
		return nil, false, err
	}
	if sel != nil {
		for _, v := range s.restOut {
			v.Int64s, v.Float64s = spread(v.Int64s, sel, m), spread(v.Float64s, sel, m)
		}
	}
	return sel, false, nil
}

// spread moves the values fetched for the selected rows, vals[k] for sel[k],
// to their batch positions in a vector of the range's m rows. A vector of the
// other type is empty and stays so.
func spread[T any](vals []T, sel []int32, m int) []T {
	if len(vals) == 0 {
		return vals
	}
	vals = slices.Grow(vals, m-len(vals))[:m]
	for k := len(sel) - 1; k >= 0; k-- { // sel[k] >= k: no value is overwritten before it moves
		vals[sel[k]] = vals[k]
	}
	return vals
}

// observe folds the values of v into acc.
func observe(acc *synopsis.Acc, v *vector.Vector) {
	for _, x := range v.Int64s {
		acc.ObserveInt64(x)
	}
	for _, x := range v.Float64s {
		acc.ObserveFloat64(x)
	}
}

// Close implements exec.Operator.
func (s *RowScan) Close() error { return nil }

var _ exec.Operator = (*RowScan)(nil)
