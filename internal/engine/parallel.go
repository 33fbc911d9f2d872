package engine

import (
	"cmp"
	"fmt"
	"slices"

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
// (exec.Parallel) that runs them concurrently and streams their output in part
// order — leaving a one-operator pipeline. Each part gets its own span, one
// chrome://tracing lane per morsel so concurrent workers render side by side;
// the exchange's span is named name and adopts them, under and the pipe's
// span (a cut join's build side). One part needs no exchange.
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
	op, span := pc.opSpan(par, fmt.Sprintf("%s[workers=%d morsels=%d]", name, pc.workers, len(p.ops)), append(under, p.span)...)
	p.ops, p.span, p.par = []exec.Operator{op}, span, false
	return nil
}

// skipMorsels drops the row ranges a zone map excludes before they are ever
// dispatched to a worker, and counts them. Every scan takes the same skip
// test itself, per batch range: a lone range is not even tested, and when
// every range is excluded the first is kept (operator shapes need one part)
// for its scan to empty.
func skipMorsels(ranges []span, skip func(lo, hi int64) bool) (kept []span, skipped int) {
	if skip == nil || len(ranges) < 2 {
		return ranges, 0
	}
	kept = make([]span, 0, len(ranges))
	for _, rr := range ranges {
		if !skip(rr.lo, rr.hi) {
			kept = append(kept, rr)
		}
	}
	if len(kept) == 0 {
		kept = append(kept, ranges[0])
	}
	return kept, len(ranges) - len(kept)
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

// morselCapture tees the columns of one scan part at pos — the rows each
// batch's selection keeps — into private vectors (copies: batches are reused
// by the scans beneath), with their row ids from column rid (-1: none, the
// part is a span of whole rows in table order). publishTees puts them into
// the shred pool when the query succeeded — merge on completion, so workers
// never write shared cache state and a failed query installs nothing.
type morselCapture struct {
	child   exec.Operator
	pos     []int
	rid     int
	reserve int // rows to allocate for at Open (the span's row hint)
	vecs    []*vector.Vector
	rids    []int64
	// eof says the child was drained: only then are vecs complete.
	eof bool
}

// tee is one scan's capture of cols of tab into the shred pool: one
// morselCapture per part, in part order.
type tee struct {
	tab  *catalog.Table
	cols []int
	caps []*morselCapture
}

// publishTees puts what the query's tees captured into the shred pool, then
// reports each shred the pool installed as captured, in build order. The
// row-keyed tees are put first: a query's partial shreds are then less
// recently used than its full columns, and the budget evicts them first.
func (pc *planCtx) publishTees() {
	got := make([][]*shred.Shred, len(pc.tees))
	for pass := 0; pass < 2; pass++ {
		for i, t := range pc.tees {
			if rowKeyed := t.caps[0].rid >= 0; rowKeyed == (pass == 0) {
				got[i] = pc.putTee(t)
			}
		}
	}
	for i, t := range pc.tees {
		for _, s := range got[i] {
			pc.captured("shred", t.tab, s.SizeBytes())
		}
	}
}

// putTee puts the columns t teed into the shred pool, as full columns or
// keyed by the row ids it teed, reports each shred they replace as evicted,
// and returns the ones the pool installed. One capture is adopted as it
// filled, clipped; several concatenate into a column allocated at its final
// size. Row ids a tee above a join saw in probe order, a row repeated per
// match, are sorted and made distinct first, each keeping its row's values.
// A capture the plan did not drain holds no complete column: nothing is put.
func (pc *planCtx) putTee(t tee) (installed []*shred.Shred) {
	for _, mc := range t.caps {
		if !mc.eof {
			return nil
		}
	}
	var rids []int64
	if t.caps[0].rid >= 0 {
		// Never nil: nil row ids mean the full column, and zero rows cached
		// as the full column would erase it for every later query.
		rids = []int64{}
		for _, mc := range t.caps {
			rids = append(rids, mc.rids...)
		}
	}
	rids, sel := distinctRowIDs(rids)
	for ci, c := range t.cols {
		vec := t.caps[0].vecs[ci]
		if len(t.caps) > 1 {
			total := 0
			for _, mc := range t.caps {
				total += mc.vecs[ci].Len()
			}
			vec = vector.New(vec.Type, total)
			for _, mc := range t.caps {
				vec.AppendVector(mc.vecs[ci])
			}
		} else {
			vec.Clip()
		}
		if sel != nil {
			sorted := vector.New(vec.Type, len(sel))
			sorted.Gather(vec, sel)
			vec = sorted
		}
		s, replaced := pc.e.shreds.Put(shred.Key{Table: t.tab.Name, Col: c}, rids, vec)
		if replaced != nil {
			pc.event(obs.EventEvicted, "shred", t.tab.Name, replaced.SizeBytes(), "replaced")
		}
		if s != nil {
			installed = append(installed, s)
		}
	}
	return installed
}

// distinctRowIDs returns rids sorted ascending without repeats, and the
// positions in rids each of them came from; sel is nil when rids already
// ascend strictly, as every capture below a join's probe does.
func distinctRowIDs(rids []int64) (out []int64, sel []int32) {
	ordered := true
	for i := 1; i < len(rids) && ordered; i++ {
		ordered = rids[i-1] < rids[i]
	}
	if ordered {
		return rids, nil
	}
	sel = make([]int32, len(rids))
	for i := range sel {
		sel[i] = int32(i)
	}
	slices.SortStableFunc(sel, func(x, y int32) int { return cmp.Compare(rids[x], rids[y]) })
	sel = slices.CompactFunc(sel, func(x, y int32) bool { return rids[x] == rids[y] })
	out = make([]int64, len(sel))
	for i, at := range sel {
		out[i] = rids[at]
	}
	return out, sel
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
		c.vecs = make([]*vector.Vector, len(c.pos))
		for i, at := range c.pos {
			c.vecs[i] = vector.New(c.child.Schema()[at].Type, n)
		}
	}
	for _, v := range c.vecs {
		v.Reset()
	}
	c.rids = c.rids[:0]
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
		if b.Sel != nil {
			v.Gather(b.Cols[c.pos[i]], b.Sel)
		} else {
			v.AppendVector(b.Cols[c.pos[i]])
		}
	}
	if c.rid >= 0 {
		ids := b.Cols[c.rid].Int64s
		if b.Sel == nil {
			c.rids = append(c.rids, ids...)
		}
		for _, i := range b.Sel {
			c.rids = append(c.rids, ids[i])
		}
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
