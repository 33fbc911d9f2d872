package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/obs"
	"rawdb/internal/offsets"
	"rawdb/internal/shred"
	"rawdb/internal/synopsis"
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
func skipMorsels(ranges []span, skip *synopsis.Test) (kept []span, skipped int) {
	if skip == nil || len(ranges) < 2 {
		return ranges, 0
	}
	defer skip.Close()
	kept = make([]span, 0, len(ranges))
	for _, rr := range ranges {
		if !skip.Excludes(rr.lo, rr.hi) {
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
// resident columns: a memory table's or the DBMS baseline's loaded vectors,
// or full column shreds. The scans emit the first len(cols) of res, aligned
// with cols; the others are read only by preds, which are bound to res.
// skip, when non-nil, tests ranges of table rows, each scan through its own
// (scanSkip). emitRID (whole-table scans only) appends the hidden row-id
// column. A scan that prunes is a prune probe.
func (pc *planCtx) residentScans(tab *catalog.Table, cols []int, res []exec.Column, spans []span,
	preds []exec.Pred, skip *synopsis.Test, emitRID bool) ([]exec.Operator, error) {
	schema := colSchema(tab, cols)
	if emitRID {
		schema = append(schema, vector.Col{Name: insitu.RowIDColumn, Type: vector.Int64})
	}
	parts := make([]exec.Operator, 0, len(spans))
	for _, sp := range spans {
		part, base := res, int64(0)
		if sp != wholeTable {
			base = sp.lo
			part = make([]exec.Column, len(res))
			for i, c := range res {
				part[i] = c.Slice(int(sp.lo), int(sp.hi))
			}
		}
		test, zone := scanSkip(skip, len(spans))
		ms, err := exec.NewMemScanPred(schema, part, emitRID, pc.e.cfg.BatchSize, preds, base, test)
		if err != nil {
			return nil, err
		}
		if len(preds) > 0 || skip != nil {
			pc.probes = append(pc.probes, pruneProbe{scan: ms, zone: zone})
		}
		parts = append(parts, ms)
	}
	return parts, nil
}

// morselCapture tees the columns of one scan part at pos — the rows each
// batch's selection keeps — with their row ids from column rid (-1: none,
// the part is a span of whole rows in table order). Int64 columns and the
// row ids are encoded into chunked columns as they come, on the part's
// worker; other types are copied into flat vectors (batches are reused by the
// scans beneath). publishTees puts them into the shred pool when the query
// succeeded — merge on completion, so workers never write shared cache state
// and a failed query installs nothing.
type morselCapture struct {
	child   exec.Operator
	pos     []int
	rid     int
	reserve int // rows to allocate for at Open (the span's row hint)
	// vecs and ints are the captured columns: ints[i] for an Int64 one,
	// vecs[i] for any other.
	vecs []*vector.Vector
	ints []*offsets.Column
	rids *offsets.Column
	// ordered says the row ids ascend strictly, from first to last.
	ordered     bool
	first, last int64
	// eof says the child was drained: only then are the columns complete.
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
// and returns the ones the pool installed. The parts' chunked columns are
// linked, not copied (one part's is adopted), and flat ones concatenate into
// a vector allocated at its final size. Row ids a tee above a join saw in
// probe order, a row repeated per match, are sorted and made distinct first,
// each keeping its row's values: those columns are decoded and put flat. A
// capture the plan did not drain holds no complete column: nothing is put.
func (pc *planCtx) putTee(t tee) (installed []*shred.Shred) {
	ordered, last := true, int64(math.MinInt64)
	for _, mc := range t.caps {
		if !mc.eof {
			return nil
		}
		if mc.rids.Len() > 0 {
			ordered = ordered && mc.ordered && mc.first > last
			last = mc.last
		}
	}
	var rows *offsets.Column
	var rids []int64
	var sel []int32
	switch {
	case t.caps[0].rid < 0:
	case ordered:
		// Never nil: nil row ids mean the full column, and zero rows cached
		// as the full column would erase it for every later query.
		rows = link(t.caps, func(mc *morselCapture) *offsets.Column { return mc.rids })
	default:
		rids = []int64{}
		for _, mc := range t.caps {
			rids = append(rids, mc.rids.Decode(nil, 0, mc.rids.Len())...)
		}
		rids, sel = distinctRowIDs(rids)
	}
	for ci, c := range t.cols {
		key := shred.Key{Table: t.tab.Name, Col: c}
		var s, replaced *shred.Shred
		switch ints := t.caps[0].ints[ci]; {
		case ints != nil && sel == nil:
			s, replaced = pc.e.shreds.PutNarrow(key, rows, link(t.caps, func(mc *morselCapture) *offsets.Column { return mc.ints[ci] }), nil)
		case sel == nil:
			s, replaced = pc.e.shreds.PutNarrow(key, rows, nil, concatVecs(t.caps, ci))
		default:
			vec := concatVecs(t.caps, ci)
			sorted := vector.New(vec.Type, len(sel))
			sorted.Gather(vec, sel)
			s, replaced = pc.e.shreds.Put(key, rids, sorted)
		}
		if replaced != nil {
			pc.event(obs.EventEvicted, "shred", t.tab.Name, replaced.SizeBytes(), "replaced")
		}
		if s != nil {
			installed = append(installed, s)
		}
	}
	return installed
}

// link returns the parts' chunked columns of one kind as one, sealed: one
// part's adopted, several linked.
func link(caps []*morselCapture, of func(*morselCapture) *offsets.Column) *offsets.Column {
	col := of(caps[0])
	if len(caps) > 1 {
		col = offsets.New(nil)
		for _, mc := range caps {
			col.Link(of(mc), 0)
		}
	}
	col.Clip()
	return col
}

// concatVecs returns the parts' column ci as one flat vector: one part's
// adopted, clipped, several concatenated into a vector allocated at its final
// size. An Int64 column is decoded.
func concatVecs(caps []*morselCapture, ci int) *vector.Vector {
	if ints := caps[0].ints[ci]; ints != nil {
		vec := vector.New(vector.Int64, 0)
		for _, mc := range caps {
			vec.Int64s = append(vec.Int64s, mc.ints[ci].Decode(nil, 0, mc.ints[ci].Len())...)
		}
		return vec
	}
	vec := caps[0].vecs[ci]
	if len(caps) == 1 {
		vec.Clip()
		return vec
	}
	total := 0
	for _, mc := range caps {
		total += mc.vecs[ci].Len()
	}
	vec = vector.New(vec.Type, total)
	for _, mc := range caps {
		vec.AppendVector(mc.vecs[ci])
	}
	return vec
}

// distinctRowIDs returns rids sorted ascending without repeats, and the
// positions in rids each of them came from; sel is nil when rids already
// ascend strictly.
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
	schema := c.child.Schema()
	if c.vecs == nil {
		c.vecs = make([]*vector.Vector, len(c.pos))
		for i, at := range c.pos {
			if typ := schema[at].Type; typ != vector.Int64 {
				c.vecs[i] = vector.New(typ, max(c.reserve, vector.DefaultBatchSize))
			}
		}
		c.ints = make([]*offsets.Column, len(c.pos))
	}
	for i, v := range c.vecs {
		if v != nil {
			v.Reset()
		} else {
			c.ints[i] = offsets.New(nil)
			c.ints[i].Reserve(c.reserve)
		}
	}
	if c.rid >= 0 {
		c.rids, c.ordered = offsets.New(nil), true
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
		col := b.Cols[c.pos[i]]
		switch {
		case v == nil && b.Sel == nil:
			c.ints[i].AppendAll(col.Int64s)
		case v == nil:
			for _, j := range b.Sel {
				c.ints[i].Append(col.Int64s[j])
			}
		case b.Sel != nil:
			v.Gather(col, b.Sel)
		default:
			v.AppendVector(col)
		}
	}
	if c.rid >= 0 {
		ids := b.Cols[c.rid].Int64s
		if b.Sel == nil {
			for _, r := range ids {
				c.appendRID(r)
			}
		}
		for _, i := range b.Sel {
			c.appendRID(ids[i])
		}
	}
	return b, nil
}

// appendRID appends row id r, and notes whether the ids still ascend.
func (c *morselCapture) appendRID(r int64) {
	if c.rids.Len() == 0 {
		c.first = r
	} else {
		c.ordered = c.ordered && r > c.last
	}
	c.last = r
	c.rids.Append(r)
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
