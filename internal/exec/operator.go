// Package exec implements the vectorized relational operators of the engine:
// selection, projection, hash join, and aggregation, plus the in-memory scan
// (over the load-first DBMS baseline's columns and cached shreds) and the
// late-append shell every column-shred access path runs in.
//
// Operators follow the Volcano model the paper links its generated scan
// operators into, but exchange vector.Batch values (batch-at-a-time) rather
// than tuples, in the MonetDB/X100 style of the Supersonic library RAW is
// built on.
package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"rawdb/internal/vector"
)

// An Operator is one node of a physical query plan. Next returns the next
// batch of rows or nil at end of stream. Returned batches remain valid only
// until the following Next call; consumers that need to retain data must
// copy it.
type Operator interface {
	// Schema describes the columns of the batches Next produces.
	Schema() vector.Schema
	// Open prepares the operator (and its inputs) for execution.
	Open() error
	// Next returns the next batch, or (nil, nil) at end of stream.
	Next() (*vector.Batch, error)
	// Close releases resources. It is safe to call after an error.
	Close() error
}

// MemScan streams a fully materialised table (a set of equal-length columns)
// in batches. The DBMS baseline queries loaded tables through it, the planner
// streams resident columns and cached full column shreds through it, and
// tests use it as a deterministic source. With predicates bound
// (NewMemScanPred) the scan evaluates them vectorized per batch and emits a
// selection vector instead of feeding a separate Filter; with a skip test
// bound it drops the batch ranges a zone map excludes before reading them.
// Flat columns are read through views; narrow ones are decoded, a batch
// range only when a row of it survives, into buffers the scan owns.
type MemScan struct {
	schema    vector.Schema
	cols      []Column
	emit      int // cols[:emit] are the batch's columns, the rest only predicates read
	batchSize int
	preds     []Pred
	sel       []int32
	// base is the table row of cols' first row: row ids and the ranges skip
	// tests count from it.
	base          int64
	skip          func(lo, hi int64) bool
	rowsPruned    int64
	blocksSkipped int64
	// emitRID says the schema's last column is the row ids of the batch,
	// built in rid.
	emitRID bool
	rid     vector.Vector
	pos     int
	out     vector.Batch
	// views are the batch's column headers, reused so a batch allocates
	// nothing; vecs points at them, as predicates index them.
	views []vector.Vector
	vecs  []*vector.Vector
	buf   *[]int64 // the rows of the row ids and the decoded columns
}

// PushStats reports how many rows the bound predicates and skip test
// eliminated inside the scan so far, and how many batch ranges the skip test
// excluded.
func (s *MemScan) PushStats() (rowsPruned, blocksSkipped int64) {
	return s.rowsPruned, s.blocksSkipped
}

// NewMemScanPred returns a scan over cols, table rows [base, base+len), that
// absorbs the given conjunctive predicates (Col indexes cols) and, when skip
// is non-nil, drops each batch range of table rows [lo, hi) for which skip
// reports true. The scan emits the columns schema names: the first of cols,
// then, if schema is one Int64 column longer than those, the row ids; the
// cols after them are read only by predicates, and never reach a batch.
// Batches with a partial match carry a selection vector; fully filtered batch
// ranges are skipped.
func NewMemScanPred(schema vector.Schema, cols []Column, emitRID bool, batchSize int, preds []Pred,
	base int64, skip func(lo, hi int64) bool) (*MemScan, error) {
	emit := len(schema)
	if emitRID {
		emit--
	}
	if len(cols) == 0 || emit < 0 || emit > len(cols) || emitRID && schema[emit].Type != vector.Int64 {
		return nil, fmt.Errorf("exec: memscan: %d schema columns, %d columns", len(schema), len(cols))
	}
	n := cols[0].Len()
	types := make(vector.Schema, len(cols))
	for i, c := range cols {
		if i < emit && schema[i].Type != c.Type() {
			return nil, fmt.Errorf("exec: memscan: column %q type mismatch", schema[i].Name)
		}
		if c.Len() != n {
			return nil, fmt.Errorf("exec: memscan: ragged columns (%d vs %d)", c.Len(), n)
		}
		types[i].Type = c.Type()
	}
	if err := CheckPreds(types, preds); err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		batchSize = vector.DefaultBatchSize
	}
	return &MemScan{schema: schema, cols: cols, emit: emit, emitRID: emitRID, batchSize: batchSize,
		preds: preds, base: base, skip: skip}, nil
}

// NewMemScan returns a scan over cols with the given schema. A schema one
// Int64 column longer than cols (at least one) names the row-id column the
// scan then emits last; this package does not know the name hidden row-id
// columns go by. batchSize <= 0 selects vector.DefaultBatchSize.
func NewMemScan(schema vector.Schema, cols []*vector.Vector, batchSize int) (*MemScan, error) {
	emitRID := len(cols) > 0 && len(schema) == len(cols)+1 && schema[len(cols)].Type == vector.Int64
	if len(schema) != len(cols) && !emitRID {
		return nil, fmt.Errorf("exec: memscan: %d schema columns, %d vectors", len(schema), len(cols))
	}
	if len(cols) == 0 {
		return &MemScan{schema: schema}, nil
	}
	flat := make([]Column, len(cols))
	for i, c := range cols {
		flat[i] = Flat{c}
	}
	return NewMemScanPred(schema, flat, emitRID, batchSize, nil, 0, nil)
}

// Schema implements Operator.
func (s *MemScan) Schema() vector.Schema { return s.schema }

// Open implements Operator.
func (s *MemScan) Open() error {
	s.pos = 0
	return nil
}

// Next implements Operator. Per batch range: the skip test, then the first
// predicate on its column, the others on the columns they read, and only for
// a range some row survives, the emitted columns and the row ids.
func (s *MemScan) Next() (*vector.Batch, error) {
	n := 0
	if len(s.cols) > 0 {
		n = s.cols[0].Len()
	}
	for s.pos < n {
		lo, end := s.pos, min(s.pos+s.batchSize, n)
		m := end - lo
		s.pos = end
		if s.skip != nil && s.skip(s.base+int64(lo), s.base+int64(end)) {
			s.blocksSkipped++
			s.rowsPruned += int64(m)
			continue
		}
		if s.views == nil {
			s.alloc()
		}
		s.out.Sel = nil
		if len(s.preds) > 0 {
			p := s.preds[0]
			s.sel = s.cols[p.Col].Select(s.sel[:m], p, lo, end)
			for _, q := range s.preds[1:] {
				s.cols[q.Col].Read(s.vecs[q.Col], lo, end, s.sel)
			}
			if len(s.preds) > 1 {
				s.sel = Select(s.sel, s.vecs, s.preds[1:], s.sel, m)
			}
			s.rowsPruned += int64(m - len(s.sel))
			if len(s.sel) == 0 {
				continue // fully filtered range: advance to the next one
			}
			if len(s.sel) < m {
				s.out.Sel = s.sel
			}
		}
		for i, c := range s.cols[:s.emit] {
			if !slices.ContainsFunc(s.preds[min(1, len(s.preds)):], func(q Pred) bool { return q.Col == i }) {
				c.Read(s.vecs[i], lo, end, s.out.Sel)
			}
		}
		if s.emitRID {
			ids := s.rid.Int64s[:m]
			for i := range ids {
				ids[i] = s.base + int64(lo+i)
			}
			s.rid.Int64s = ids
		}
		return &s.out, nil
	}
	return nil, nil
}

// alloc makes the scan's batch: its column lists, their views, the selection
// and one buffer holding the row ids and the decoded rows of every narrow
// column, a batch each. Predicates index all of cols, the batch only the
// emitted ones and the row ids: the two lists share one allocation.
func (s *MemScan) alloc() {
	bufs := 0
	if s.emitRID {
		bufs++
	}
	for _, c := range s.cols {
		if _, ok := c.(Flat); !ok {
			bufs++
		}
	}
	var buf []int64
	if need := bufs * s.batchSize; need > 0 {
		if s.buf, _ = batchBufs.Get().(*[]int64); s.buf == nil || cap(*s.buf) < need {
			s.buf = &[]int64{}
			*s.buf = make([]int64, need)
		}
		buf = (*s.buf)[:need]
	}
	s.views = make([]vector.Vector, len(s.cols))
	lists := make([]*vector.Vector, len(s.cols)+len(s.schema))
	s.vecs, s.out.Cols = lists[:len(s.cols)], lists[len(s.cols):]
	for i, c := range s.cols {
		if _, ok := c.(Flat); !ok {
			s.views[i].Int64s, buf = buf[:0:s.batchSize], buf[s.batchSize:]
		}
		s.vecs[i] = &s.views[i]
	}
	copy(s.out.Cols, s.vecs[:s.emit])
	if s.emitRID {
		s.rid = vector.Vector{Type: vector.Int64, Int64s: buf[:0:s.batchSize]}
		s.out.Cols[s.emit] = &s.rid
	}
	if len(s.preds) > 0 {
		s.sel = make([]int32, s.batchSize)
	}
}

// batchBufs holds the row-id and decode buffers of closed scans: a scan over
// narrow columns would otherwise allocate and clear a batch per column for
// every query.
var batchBufs sync.Pool

// Close implements Operator. It hands the scan's buffers back; a scan opened
// again allocates its batch anew.
func (s *MemScan) Close() error {
	if s.buf != nil {
		batchBufs.Put(s.buf)
		s.buf, s.views = nil, nil
	}
	return nil
}

// Project reorders/selects columns of its input by index and can rename them.
type Project struct {
	child  Operator
	idxs   []int
	schema vector.Schema
	out    vector.Batch
}

// NewProject returns a projection of child onto the columns at idxs, renamed
// to names (names may be nil to keep the child's names).
func NewProject(child Operator, idxs []int, names []string) (*Project, error) {
	cs := child.Schema()
	schema := make(vector.Schema, len(idxs))
	for i, ix := range idxs {
		if ix < 0 || ix >= len(cs) {
			return nil, fmt.Errorf("exec: project: column index %d out of range", ix)
		}
		schema[i] = cs[ix]
		if names != nil {
			schema[i].Name = names[i]
		}
	}
	return &Project{child: child, idxs: idxs, schema: schema}, nil
}

// Schema implements Operator.
func (p *Project) Schema() vector.Schema { return p.schema }

// Open implements Operator.
func (p *Project) Open() error { return p.child.Open() }

// Next implements Operator. Selection vectors pass through untouched (the
// projected vectors keep their physical row alignment).
func (p *Project) Next() (*vector.Batch, error) {
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if p.out.Cols == nil {
		p.out.Cols = make([]*vector.Vector, len(p.idxs))
	}
	for i, ix := range p.idxs {
		p.out.Cols[i] = b.Cols[ix]
	}
	p.out.Sel = b.Sel
	return &p.out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.child.Close() }

// Collect drains op and returns all of its output copied into fresh vectors.
// It is the standard way tests and result presentation consume a plan.
func Collect(op Operator) ([]*vector.Vector, error) {
	return CollectCtx(context.Background(), op)
}

// CollectCtx is Collect with a per-batch cancellation check: when ctx is
// cancelled (or its deadline passes) the drain stops before pulling the next
// batch, so a runaway pipeline is abandoned within one batch of work. The
// returned error wraps ctx.Err(), so callers can errors.Is against
// context.Canceled / context.DeadlineExceeded.
func CollectCtx(ctx context.Context, op Operator) ([]*vector.Vector, error) {
	return CollectCtxCount(ctx, op, nil)
}

// CollectCtxCount is CollectCtx plus a live progress counter: after each
// batch the number of rows drained so far is added to rows (when non-nil),
// so an observer reading the atomic concurrently sees the query's output
// grow while it executes. The counter costs one atomic add per batch, not
// per row.
func CollectCtxCount(ctx context.Context, op Operator, rows *atomic.Int64) ([]*vector.Vector, error) {
	cancellable := ctx.Done() != nil
	if cancellable {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	schema := op.Schema()
	out := make([]*vector.Vector, len(schema))
	for i, c := range schema {
		out[i] = vector.New(c.Type, vector.DefaultBatchSize)
	}
	for {
		if cancellable {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		if b.Sel != nil {
			for i, c := range b.Cols {
				out[i].Gather(c, b.Sel)
			}
			if rows != nil {
				rows.Add(int64(len(b.Sel)))
			}
			continue
		}
		for i, c := range b.Cols {
			out[i].AppendVector(c)
		}
		if rows != nil {
			rows.Add(int64(b.Len()))
		}
	}
}

func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("exec: query abandoned: %w", err)
	}
	return nil
}

// ctxOp injects a cancellation check under every Next of its child. The
// planner wraps base scans with it, so even plans whose upper operators drain
// their input inside a single Next call (aggregation, hash-join builds) stop
// within one batch of a cancelled scan.
type ctxOp struct {
	child Operator
	ctx   context.Context
}

// WithContext wraps op so every Open/Next first checks ctx. When ctx can
// never be cancelled (Background/TODO), op is returned unwrapped and the hot
// path stays untouched.
func WithContext(op Operator, ctx context.Context) Operator {
	if ctx == nil || ctx.Done() == nil {
		return op
	}
	return &ctxOp{child: op, ctx: ctx}
}

func (c *ctxOp) Schema() vector.Schema { return c.child.Schema() }

func (c *ctxOp) Open() error {
	if err := ctxErr(c.ctx); err != nil {
		return err
	}
	return c.child.Open()
}

func (c *ctxOp) Next() (*vector.Batch, error) {
	if err := ctxErr(c.ctx); err != nil {
		return nil, err
	}
	return c.child.Next()
}

func (c *ctxOp) Close() error { return c.child.Close() }

var _ Operator = (*ctxOp)(nil)
