package engine

import (
	"fmt"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/obs"
	"rawdb/internal/shred"
	"rawdb/internal/vector"
)

// countColumn picks the column an unfiltered COUNT(*) materialises: batches
// need one column to carry a row count, and a fixed-width numeric column is
// the cheapest to parse — never a wide string column just because it sits
// first in the schema.
func countColumn(tab *catalog.Table) int {
	for i, c := range tab.Schema {
		if c.Type == vector.Int64 || c.Type == vector.Float64 {
			return i
		}
	}
	return 0
}

// gather puts the parts of a cut pipeline behind an exchange — a worker pool
// (exec.Parallel) that runs them concurrently and replays their output in part
// order — leaving a one-operator pipeline. Each part gets its own span, one
// chrome://tracing lane per morsel so concurrent workers render side by side;
// the exchange's span is named name and adopts them and under. One part needs
// no exchange.
func (pc *planCtx) gather(p *pipe, name string, under ...*obs.Span) error {
	if !p.par {
		return nil
	}
	if pc.trace != nil {
		for i := range p.ops {
			s := pc.trace.NewSpan(fmt.Sprintf("morsel[%d]", i))
			s.SetLane(i + 1)
			p.ops[i] = exec.WithSpan(p.ops[i], s)
			under = append(under, s)
		}
	}
	par, err := exec.NewParallel(p.ops, pc.workers, pc.e.cfg.BatchSize, nil)
	if err != nil {
		return err
	}
	par.SetContext(pc.ctx)
	op, span := pc.opSpan(par, fmt.Sprintf("%s[workers=%d morsels=%d]", name, pc.workers, len(p.ops)), under...)
	p.ops, p.span, p.par = []exec.Operator{op}, span, false
	return nil
}

// skipMorsels drops row ranges a zone map excludes before they are ever
// dispatched to a worker, counting them in the query stats. Every scan takes
// the same skip test itself, per batch range: a lone range is not even
// tested, and when every range is excluded the first is kept (operator
// shapes need one part) for its scan to empty.
func (pc *planCtx) skipMorsels(ranges []span, skip func(lo, hi int64) bool) []span {
	if skip == nil || len(ranges) < 2 {
		return ranges
	}
	kept := make([]span, 0, len(ranges))
	for _, rr := range ranges {
		if skip(rr.lo, rr.hi) {
			pc.stats.MorselsSkipped++
			continue
		}
		kept = append(kept, rr)
	}
	if len(kept) == 0 {
		pc.stats.MorselsSkipped--
		kept = append(kept, ranges[0])
	}
	return kept
}

// colSchema is the batch schema of cols of tab, in order.
func colSchema(tab *catalog.Table, cols []int) vector.Schema {
	schema := make(vector.Schema, len(cols), len(cols)+1) // room for a row-id column
	for i, c := range cols {
		schema[i] = vector.Col{Name: tab.Schema[c].Name, Type: tab.Schema[c].Type}
	}
	return schema
}

// residentScans builds one (predicate-absorbing) MemScan per span over
// resident vectors aligned with cols: a memory table's or the DBMS baseline's
// loaded columns, or full column shreds. preds are bound to the output slots;
// skip, when non-nil, tests ranges of table rows. emitRID (whole-table scans
// only) appends the hidden row-id column.
func residentScans(tab *catalog.Table, cols []int, vecs []*vector.Vector, spans []span,
	preds []exec.Pred, skip func(lo, hi int64) bool, bs int, emitRID bool) ([]exec.Operator, error) {
	schema := colSchema(tab, cols)
	if emitRID {
		schema = append(schema, vector.Col{Name: insitu.RowIDColumn, Type: vector.Int64})
	}
	parts := make([]exec.Operator, 0, len(spans))
	for _, sp := range spans {
		part, base := vecs, int64(0)
		if sp != wholeTable {
			base = sp.lo
			part = make([]*vector.Vector, len(vecs))
			for i, v := range vecs {
				part[i] = v.Slice(int(sp.lo), int(sp.hi))
			}
		}
		ms, err := exec.NewMemScanPred(schema, part, bs, preds, base, skip)
		if err != nil {
			return nil, err
		}
		parts = append(parts, ms)
	}
	return parts, nil
}

// morselCapture tees every batch of one raw-file scan into private per-column
// vectors (copies — batches are reused by the scans beneath); rawScans'
// completion hook publishes them as full columns to the shred pool — merge on
// completion, so workers never write shared cache state.
type morselCapture struct {
	child   exec.Operator
	types   []vector.Type
	reserve int // rows to allocate for at Open (the span's row hint)
	vecs    []*vector.Vector
	// eof says the child was drained: only then are vecs full columns.
	eof bool
}

func newMorselCapture(child exec.Operator, tab *catalog.Table, cols []int, reserve int) *morselCapture {
	c := &morselCapture{child: child, types: make([]vector.Type, len(cols)), reserve: reserve}
	for i, col := range cols {
		c.types[i] = tab.Schema[col].Type
	}
	return c
}

// publishCaptures puts the columns the captures teed — one capture per span,
// in span order — into the shred pool as full columns. One capture is adopted
// as it filled, clipped; several concatenate into a column allocated at its
// final size. A capture the plan did not drain holds no full column: nothing
// is put.
func (pc *planCtx) publishCaptures(tab *catalog.Table, cols []int, caps []*morselCapture) {
	if len(caps) == 0 {
		return
	}
	for _, mc := range caps {
		if !mc.eof {
			return
		}
	}
	for ci, c := range cols {
		full := caps[0].vecs[ci]
		if len(caps) > 1 {
			total := 0
			for _, mc := range caps {
				total += mc.vecs[ci].Len()
			}
			full = vector.New(tab.Schema[c].Type, total)
			for _, mc := range caps {
				full.AppendVector(mc.vecs[ci])
			}
		} else {
			full.Clip()
		}
		pc.e.shreds.Put(shred.Key{Table: tab.Name, Col: c}, nil, full)
	}
}

// Schema implements exec.Operator.
func (c *morselCapture) Schema() vector.Schema { return c.child.Schema() }

// Open implements exec.Operator.
func (c *morselCapture) Open() error {
	c.eof = false
	if c.vecs == nil {
		n := vector.DefaultBatchSize
		if c.reserve > n {
			n = c.reserve
		}
		c.vecs = make([]*vector.Vector, len(c.types))
		for i, t := range c.types {
			c.vecs[i] = vector.New(t, n)
		}
	}
	for _, v := range c.vecs {
		v.Reset()
	}
	return c.child.Open()
}

// Next implements exec.Operator.
func (c *morselCapture) Next() (*vector.Batch, error) {
	b, err := c.child.Next()
	if err != nil || b == nil {
		c.eof = err == nil
		return b, err
	}
	for i, v := range c.vecs {
		v.AppendVector(b.Cols[i])
	}
	return b, nil
}

// Close implements exec.Operator.
func (c *morselCapture) Close() error { return c.child.Close() }

var _ exec.Operator = (*morselCapture)(nil)

// splitRows cuts [0, nrows) into at most n contiguous non-empty row ranges.
func splitRows(nrows int64, n int) []span {
	if nrows <= 0 || n < 1 {
		return nil
	}
	if int64(n) > nrows {
		n = int(nrows)
	}
	ranges := make([]span, 0, n)
	var start int64
	for i := 1; i <= n; i++ {
		end := nrows * int64(i) / int64(n)
		if end <= start {
			continue
		}
		ranges = append(ranges, span{start, end})
		start = end
	}
	return ranges
}
