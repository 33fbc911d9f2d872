package engine

import (
	"context"
	"fmt"
	"slices"
	"time"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/jit"
	"rawdb/internal/obs"
	"rawdb/internal/shred"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// planCtx carries one planning attempt: the query's resolved options, the
// query record every plan site writes what it decides to (record.go), and
// whether the shred pool is consulted and fed (Config.DisableShredCache
// clears it). Build one with queryRecord.newPlanCtx.
type planCtx struct {
	planOpts
	*queryRecord
	useCache bool
	// ctx is the query's cancellation context: base scans are wrapped with a
	// per-batch check and exchanges hand it to their worker pools. nil (or a
	// never-cancelled context) leaves the plan untouched.
	ctx context.Context
	// looked are the pool's answers for the columns planSingle looked up
	// ahead (lookAhead), which the plan consumes instead of asking again.
	looked map[shred.Key]*shred.Shred

	// Publication hooks. Execution runs without the table locks (the engine
	// releases them after planning and re-acquires them to publish), so
	// EVERY mutation of shared per-table state a query performs is deferred
	// to one of these lists, both of which run under the re-acquired locks
	// and on success only — an aborted query publishes nothing:
	//
	//   - onMerge: the merge-on-completion hooks of parallel plans (positional
	//     map / structural index fragments, zone-map fragments, captured
	//     column shreds). They can fail and run first, so the install/event
	//     hooks below observe the merged state.
	//   - onComplete: installs of serially built structures and "captured"
	//     lifecycle events.
	//
	// The runtime counters are not hooks: the record reads every scan's
	// prune probes once the plan ran, on success and failure alike.
	onMerge    []func() error
	onComplete []func()
}

// Structured parallel-fallback reasons. With joins, HAVING, AVG, float SUM,
// and bare GROUP BY parallel-native, these are the only ways a workers > 1
// query still runs as one part.
const (
	// fallbackRootTable: ROOT files are accessed through the library pacing
	// the paper measures; there is no splittable raw byte range.
	fallbackRootTable = "root-table"
	// fallbackSmallFile: the file (or dataset) yields fewer than two
	// morsels, so an exchange would only add overhead over the one-part scan.
	fallbackSmallFile = "small-file"
	// fallbackUnsupportedFormat: the strategy has no reader for this format
	// at all (building the plan then fails).
	fallbackUnsupportedFormat = "unsupported-format"
	// fallbackInternal: the strategy is not one the planner knows (building
	// the plan then fails).
	fallbackInternal = "planner-internal"
)

// morselsPerWorker oversubscribes the morsel count so slow morsels (denser
// rows, colder cache lines) do not leave workers idle at the tail.
const morselsPerWorker = 2

// unitCut is one scan unit — a table, a join side, a dataset partition — as
// cut divided it.
type unitCut struct {
	// bt is the unit bound as a table: the query's own, or a partition under
	// its dataset's alias with its own snapshot of the positional structures.
	bt *boundTable
	// spans are the parts the unit is scanned in: [wholeTable] for the
	// one-part plan; else row ranges (resident vectors, positional modes) or
	// record-aligned byte ranges (a cold text image), each one input of an
	// exchange. nil: a partition pruned without opening its file.
	spans []span
	// shreds, when set, are the full shreds of every scan column: the spans
	// are row ranges over them and the raw file is not read.
	shreds []*shred.Shred
}

func (u unitCut) whole() bool { return len(u.spans) == 1 && u.spans[0] == wholeTable }

// tableCut is one table of the query: the columns a cut scan or a dataset scan
// of it materialises (sorted), and its units — itself, or one per partition in
// manifest order.
type tableCut struct {
	cols  []int
	units []unitCut
}

// cutPlan is cut's decision for a query.
type cutPlan struct {
	tables []tableCut
	// par: the units are cut into exchange inputs; otherwise every one of
	// them is [wholeTable].
	par bool
	// reason and detail say why a workers > 1 query is not cut. The first
	// decline wins: it is the most specific.
	reason, detail string
	// loaded names the tables the DBMS baseline had to load to count their
	// rows.
	loaded []string
}

func (c *cutPlan) decline(reason, detailf string, args ...any) {
	if c.reason == "" {
		c.reason, c.detail = reason, fmt.Sprintf(detailf, args...)
	}
}

// cut decides, before any operator, span, stat or hook exists, how each scan
// unit of the query is divided: into the spans of a morsel-parallel plan, or
// — with one worker, or when any unit declines — [wholeTable] everywhere,
// which is the serial plan. It reads what both shapes need anyway (worker
// count, strategy, the rows of resident vectors and full shreds, the plug-in's
// access and split, manifest sizes, partition pruning) and changes nothing but
// what every plan over these tables first needs resident: surviving
// partitions' raw bytes and the DBMS baseline's loaded columns.
func (pc *planCtx) cut(r *resolvedQuery) (cutPlan, error) {
	c := cutPlan{tables: make([]tableCut, len(r.tables))}
	// The build side of a join goes first, as it does when the plan is built.
	for t := len(r.tables) - 1; t >= 0; t-- {
		r.tables[t].pos = r.tables[t].st.positions()
		if err := pc.cutTable(&c, r, t); err != nil {
			return c, err
		}
	}
	c.par = pc.workers > 1 && c.reason == ""
	if c.reason != "" {
		for _, tc := range c.tables {
			for i := range tc.units {
				if u := &tc.units[i]; u.spans != nil {
					u.spans, u.shreds = []span{wholeTable}, nil
				}
			}
		}
	}
	return c, nil
}

// cutTable cuts table t. A plain table needs two spans to be worth an
// exchange — one is the serial plan with exchange overhead — except as the
// build side of a join, where the probe side provides the parallelism and one
// will do. A dataset spreads the query's span budget over its surviving
// partitions by file size, at least one span each — so parallelism scales
// with file count even when no file is large enough to split — and needs two
// spans in all.
func (pc *planCtx) cutTable(c *cutPlan, r *resolvedQuery, t int) error {
	bt := r.tables[t]
	tc := &c.tables[t]
	n := 0
	if pc.workers > 1 {
		n = pc.workers * morselsPerWorker
	}
	ds := bt.st.ds
	if n > 0 || ds != nil {
		tc.cols = scanCols(r, t) // a one-part plan of a plain table picks its own
	}
	if ds == nil {
		min := 2
		if t == 1 {
			min = 1
		}
		u, err := pc.cutUnit(c, bt, tc.cols, n, min)
		tc.units = []unitCut{u}
		return err
	}
	tc.units = make([]unitCut, len(ds.parts))
	weight := func(i int) int64 { return max(ds.manifest.Parts[i].Size, 1) }
	var total int64
	for i, ps := range ds.parts {
		pos := ps.positions()
		if pc.prunePartition(pos.syn, r.filters[t]) {
			continue
		}
		if err := pc.e.loadPartData(ps, pc.id); err != nil {
			return err
		}
		tc.units[i].bt = &boundTable{alias: bt.alias, st: ps, pos: pos}
		total += weight(i)
	}
	if n > 0 && total == 0 {
		c.decline(fallbackSmallFile, "every partition of %s pruned", bt.st.tab.Name)
	}
	nspans := 0
	for i := range tc.units {
		u := &tc.units[i]
		if u.bt == nil {
			continue
		}
		target := int(int64(n) * weight(i) / total)
		if n > 0 && target < 1 {
			target = 1
		}
		var err error
		if *u, err = pc.cutUnit(c, u.bt, tc.cols, target, 1); err != nil {
			return err
		}
		nspans += len(u.spans)
	}
	if n > 0 && nspans < 2 {
		c.decline(fallbackSmallFile, "%s yields %d morsels across its partitions (need 2)",
			bt.st.tab.Name, nspans)
	}
	return nil
}

// cutUnit divides one table or partition into at most n spans (0, or a query
// that already declined: the whole table), declining under min.
func (pc *planCtx) cutUnit(c *cutPlan, bt *boundTable, cols []int, n, min int) (unitCut, error) {
	st := bt.st
	tab := st.tab
	u := unitCut{bt: bt, spans: []span{wholeTable}}
	dbms := pc.strategy == StrategyDBMS && tab.Format != catalog.Memory
	if dbms {
		loaded, err := pc.e.ensureLoaded(st)
		if err != nil {
			return u, err
		}
		if loaded {
			c.loaded = append(c.loaded, tab.Name)
		}
	}
	if n == 0 || c.reason != "" {
		return u, nil
	}

	// Resident vectors — memory tables, what the DBMS baseline loaded, columns
	// all cached as full shreds — are cut into row ranges.
	kind, known := pc.scanKind()
	resident, rows := "", 0
	switch {
	case tab.Format == catalog.Memory:
		resident, rows = "memory table %s yields", st.loaded[cols[0]].Len()
	case dbms:
		resident, rows = "loaded table %s yields", st.loaded[cols[0]].Len()
	case !known:
		c.decline(fallbackInternal, "no parallel planner for strategy %s", pc.strategy)
		return u, nil
	case kind == scanGenerated && pc.useCache:
		// A partially cached column set reads the raw file, still the source
		// of truth: an unpruned pass recaptures every column as a full shred
		// (Put overwrites the partial entries harmlessly).
		for _, col := range cols {
			s := pc.e.shreds.LookupFull(shred.Key{Table: tab.Name, Col: col})
			if s == nil {
				break
			}
			u.shreds = append(u.shreds, s)
		}
		if len(u.shreds) < len(cols) {
			u.shreds = nil
			break
		}
		resident, rows = "cached columns of %s yield", u.shreds[0].Vector().Len()
	}
	if resident != "" {
		spans := splitRows(int64(rows), n)
		if len(spans) < min {
			c.decline(fallbackSmallFile, resident+" fewer than %d morsels", tab.Name, min)
			return u, nil
		}
		u.spans = spans
		return u, nil
	}

	// Raw file: row ranges where rows are addressable (through the positional
	// structure, or natively), record-aligned byte ranges over a cold text
	// image.
	a, err := st.src.access(tab, bt.pos, cols, kind)
	if _, noReader := err.(noReaderError); noReader {
		c.decline(fallbackUnsupportedFormat, "%s tool has no parallel %s scan", kind, tab.Format)
		return u, nil
	}
	if err != nil {
		return u, err
	}
	spans, splittable := st.src.split(bt.pos, a.mode, n)
	if !splittable {
		c.decline(fallbackRootTable, "%s tables page through the format library at its own pace", tab.Format)
		return u, nil
	}
	if len(spans) < min {
		c.decline(fallbackSmallFile, "%s splits into %d morsels (need %d)", tab.Name, len(spans), min)
		return u, nil
	}
	u.spans = spans
	return u, nil
}

// scanKind is the family of scan operators the strategy reads raw files with;
// ok is false for a strategy that has none.
func (pc *planCtx) scanKind() (kind scanKind, ok bool) {
	switch pc.strategy {
	case StrategyExternal:
		return scanExternal, true
	case StrategyInSitu:
		return scanGeneric, true
	case StrategyJIT, StrategyShreds:
		return scanGenerated, true
	}
	return 0, false
}

// captureActive reports whether raw-file scans of this query capture column
// shreds. Capture and row pruning are mutually exclusive on one scan — a
// scan that eliminates rows cannot publish full columns — and the engine
// resolves the conflict in favour of the cache: the adaptation arc (cold
// scan pays full parse once, later queries hit shreds) is the paper's core
// warm-up behaviour and must not silently degrade. Pushdown and zone-map
// skipping therefore apply to raw-file scans only when capture is off
// (DisableShredCache, or a no-capture query); scans over already-cached
// shreds absorb predicates unconditionally, since no capture is involved.
func (pc *planCtx) captureActive() bool {
	return pc.capture && pc.useCache
}

// execPred converts a bound predicate to its exec form keyed by the table
// column index (the form pushed-down scans and zone maps consume).
func execPred(bp boundPred) exec.Pred {
	return exec.Pred{Col: bp.col, Op: bp.op, I64: bp.i64, F64: bp.f64}
}

// execPreds converts a slice of bound predicates.
func execPreds(bps []boundPred) []exec.Pred {
	out := make([]exec.Pred, len(bps))
	for i, bp := range bps {
		out[i] = execPred(bp)
	}
	return out
}

// synSkip compiles the zone-map exclusion closure for a scan over rows of a
// table: any conjunct excluding a row range (tracked columns only) lets the
// whole range be skipped. nil when the synopsis covers no predicate column.
func synSkip(syn *synopsis.Synopsis, preds []boundPred) func(start, end int64) bool {
	if syn == nil {
		return nil
	}
	var sps []exec.Pred
	for _, bp := range preds {
		if syn.Tracked(bp.col) {
			sps = append(sps, execPred(bp))
		}
	}
	if len(sps) == 0 {
		return nil
	}
	return func(start, end int64) bool {
		for _, p := range sps {
			if syn.Excludes(p, start, end) {
				return true
			}
		}
		return false
	}
}

// observableCols selects which scanned columns a synopsis builder may
// observe: only columns the generated code is guaranteed to parse for every
// row. Without pushed predicates that is every scanned column; vectorized
// paths (binary) parse all predicate columns dense; sequential paths with
// short-circuiting only guarantee full observation of a single predicate
// column (a later predicate column is skipped once an earlier one fails).
func observableCols(tab *catalog.Table, cols []int, absorbed []exec.Pred,
	vectorized bool) map[int]vector.Type {
	obs := make(map[int]vector.Type)
	add := func(c int) {
		t := tab.Schema[c].Type
		if t == vector.Int64 || t == vector.Float64 {
			obs[c] = t
		}
	}
	if len(absorbed) == 0 {
		for _, c := range cols {
			add(c)
		}
		return obs
	}
	predCols := make(map[int]bool)
	for _, p := range absorbed {
		predCols[p.Col] = true
	}
	if !vectorized && len(predCols) > 1 {
		return nil
	}
	for c := range predCols {
		add(c)
	}
	return obs
}

// blockRows returns the configured zone-map block granularity.
func (pc *planCtx) blockRows() int64 {
	if pc.e.cfg.SynopsisBlockRows > 0 {
		return int64(pc.e.cfg.SynopsisBlockRows)
	}
	return synopsis.DefaultBlockRows
}

// synCovered reports whether the table's current synopsis already tracks
// every column of obs (an empty obs counts as covered).
func (pc *planCtx) synCovered(cur *synopsis.Synopsis, obs map[int]vector.Type) bool {
	if cur == nil {
		return len(obs) == 0
	}
	for c := range obs {
		if !cur.Tracked(c) {
			return false
		}
	}
	return true
}

// deferMerge schedules a parallel plan's merge-on-completion hook to run
// under the re-acquired table locks once execution succeeded. Merge hooks
// publish shared cache state (fragment merges, shred publication), which must
// never happen while other queries run unlocked against the same table.
func (pc *planCtx) deferMerge(done func() error) {
	if done != nil {
		pc.onMerge = append(pc.onMerge, done)
	}
}

// learnRows records a text table's row count from a scan that visited every
// row. Only publication calls it: no query counts, a failed one leaves -1.
func (st *tableState) learnRows(rows int64) {
	if st.nrows < 0 && rows > 0 {
		st.nrows = rows
	}
}

// rowHint is the row count to allocate one scan's positional fragment and
// full-column captures for, once: exact where it is known — a row-range span's
// length, the whole table's count once the format states it or a scan learned
// it — else the access's estimate over the span's bytes; 0 (no reservation)
// under one batch.
func rowHint(st *tableState, a access, sp span) int {
	var n int64
	switch {
	case sp != wholeTable && a.mode != jit.Sequential:
		n = sp.hi - sp.lo
	case sp == wholeTable && st.nrows >= 0:
		n = st.nrows
	case a.estRows != nil:
		n = a.estRows(sp)
	}
	if n < vector.DefaultBatchSize {
		return 0
	}
	return int(n)
}

// shredsCaptured records the columns a raw-file scan published into the
// shred pool as captured, once the query completed. ShredsOf is used instead
// of a lookup so the event probe does not perturb the pool's hit/miss
// statistics or its LRU order.
func (pc *planCtx) shredsCaptured(tab *catalog.Table, cols []int) {
	want := append([]int(nil), cols...)
	pc.onComplete = append(pc.onComplete, func() {
		shs := pc.e.shreds.ShredsOf(tab.Name)
		for _, c := range want {
			for _, s := range shs {
				if s.Key().Col == c {
					pc.captured("shred", tab, s.SizeBytes())
					break
				}
			}
		}
	})
}

// pipe is a partially built pipeline over one or two tables, tracking where
// each bound column currently lives in the batch and where each table's
// hidden row-id column is (-1 if absent).
type pipe struct {
	// ops is the pipeline, once per part: one operator, or with par set the
	// inputs of an exchange — one per span of a cut table, all of one layout —
	// until gather merges them.
	ops []exec.Operator
	par bool
	pos map[boundRef]int
	rid map[int]int
	// span is the trace span of the pipeline's topmost wrapped operator
	// (nil when tracing is off). Wrapping sites re-parent it under each new
	// span so the rendered trace recovers the plan tree.
	span *obs.Span
}

func (p *pipe) width() int { return len(p.ops[0].Schema()) }

// layout registers table t's columns at the head of the batch, in order, and
// its row-id column (-1: none).
func (p *pipe) layout(t int, order []int, ridIdx int) {
	for i, c := range order {
		p.pos[boundRef{t, c}] = i
	}
	p.rid[t] = ridIdx
}

// parLabel prefixes the access-path label of a cut scan with its part count.
func (p *pipe) parLabel() string {
	if !p.par {
		return ""
	}
	return fmt.Sprintf("par[%d]:", len(p.ops))
}

// traceWrap wraps the pipe's current operator in a named span and makes it
// the pipe's top span. No-op (returns nil) when tracing is off, and on the
// inputs of an exchange: gather gives each a span over the whole part.
func (pc *planCtx) traceWrap(p *pipe, name string) *obs.Span {
	if pc.trace == nil || p.par {
		return nil
	}
	s := pc.trace.NewSpan(name)
	p.span.SetParent(s)
	p.span = s
	p.ops[0] = exec.WithSpan(p.ops[0], s)
	return s
}

// opSpan wraps a free-standing operator in a named span, re-parenting the
// given child spans beneath it. Returns the operator unchanged (and a nil
// span) when tracing is off.
func (pc *planCtx) opSpan(op exec.Operator, name string, children ...*obs.Span) (exec.Operator, *obs.Span) {
	if pc.trace == nil {
		return op, nil
	}
	s := pc.trace.NewSpan(name)
	for _, c := range children {
		c.SetParent(s)
	}
	return exec.WithSpan(op, s), s
}

// scanMark snapshots the access-path and probe lists before a scan-building
// call so the wrapping site can name the scan's span after the labels the
// call appended and attach its prune probes.
type scanMark struct{ paths, probes int }

func (pc *planCtx) markScan() scanMark {
	return scanMark{paths: len(pc.stats.AccessPaths), probes: len(pc.probes)}
}

// scanSpan wraps the pipe in a span named after the access-path labels
// recorded since mark, attaching the prune probes registered since mark.
func (pc *planCtx) scanSpan(p *pipe, mark scanMark) {
	if pc.trace == nil || p.par {
		return
	}
	labels := pc.stats.AccessPaths[mark.paths:]
	name := "scan"
	if len(labels) > 0 {
		name = labels[0]
	}
	s := pc.traceWrap(p, name)
	for _, l := range labels[1:] {
		s.AddAttr("path", l)
	}
	for i := mark.probes; i < len(pc.probes); i++ {
		if pc.probes[i].span == nil {
			pc.probes[i].span = s
		}
	}
}

// plan builds the physical operator tree for a resolved query: cut decides
// the parts, then each plan shape is built once over them. A workers > 1
// query that runs as one part says why — Explain, Stats, the trace and an obs
// event carry the reason, so the fallback is never silent.
func (pc *planCtx) plan(r *resolvedQuery) (exec.Operator, error) {
	c, err := pc.cut(r)
	if err != nil {
		return nil, err
	}
	pc.stats.LoadedTables = append(pc.stats.LoadedTables, c.loaded...)
	if c.reason != "" {
		pc.stats.ParallelFallback = c.reason
		pc.stats.ParallelFallbackDetail = c.detail
		s := pc.span("parallel-fallback")
		s.AddAttr("reason", c.reason)
		s.AddAttr("detail", c.detail)
		s.End()
	}
	var p *pipe
	switch {
	case r.join != nil:
		p, err = pc.planJoin(r, &c)
	case r.tables[0].st.ds != nil:
		p, err = pc.datasetScan(r, 0, &c.tables[0])
	default:
		p, err = pc.planSingle(r, c.tables[0].units[0])
	}
	if err != nil {
		return nil, err
	}
	return pc.finish(r, p)
}

// planSingle plans a one-table query over scan unit u (r's table, or the
// partition a shadow query wraps). Under StrategyShreds a one-part plan whose
// columns are not all cached as full shreds cascades its filters: the base
// scan reads only the first filter column; each further filter column is
// fetched by a late scan right before its predicate; output columns are
// fetched last (one late scan per column, or a single multi-column late scan
// when the option is set). Every other plan — one whose columns are all full
// shreds, and every cut one, whose parts carry no row ids past the exchange —
// reads all of its columns in the base scan, once per span, and filters each
// part.
func (pc *planCtx) planSingle(r *resolvedQuery, u unitCut) (*pipe, error) {
	filterCols, outputCols := r.neededColumns()
	t := 0
	bt := u.bt

	// The cascade shreds against the first filter column and fetches the
	// other columns late, so it needs a filter column and one more; it is left
	// when every column is cached as a full shred (lookAhead).
	late := pc.strategy == StrategyShreds && u.whole() && pc.lateCapable(bt) &&
		len(filterCols[t]) > 0 && len(filterCols[t])+len(outputCols[t]) > 1
	var baseCols, lateFilterCols, lateOutputCols []int
	if late {
		baseCols, lateFilterCols, lateOutputCols = filterCols[t][:1], filterCols[t][1:], outputCols[t]
		late = !pc.useCache || !pc.lookAhead(bt.st.tab.Name, baseCols, lateFilterCols, lateOutputCols)
	}
	if !late {
		baseCols = append(append([]int{}, filterCols[t]...), outputCols[t]...)
		sortInts(baseCols)
	}

	// A query touching no columns at all (unfiltered COUNT(*)) still needs
	// one materialised column: zero-column batches cannot carry a row count.
	if len(baseCols) == 0 {
		baseCols = []int{countColumn(bt.st.tab)}
	}

	// Predicates over base columns are candidates for pushdown into the
	// generated scan; whatever the access path cannot absorb comes back as
	// the residual and runs in a Filter above, exactly as before.
	basePreds, latePreds := splitPreds(r.filters[t], baseCols)
	p, residual, err := pc.baseScan(t, u, baseCols, late, basePreds)
	if err != nil {
		return nil, err
	}
	if err := pc.applyFilter(p, t, residual); err != nil {
		return nil, err
	}
	if !late {
		if len(latePreds) > 0 {
			return nil, fmt.Errorf("engine: internal: unfiltered predicates in full-column plan")
		}
		return p, nil
	}
	if pc.multi {
		// One speculative late scan for every remaining column, then the
		// remaining predicates.
		all := append(append([]int{}, lateFilterCols...), lateOutputCols...)
		sortInts(all)
		if err := pc.lateScan(p, r, t, all); err != nil {
			return nil, err
		}
		if err := pc.applyFilter(p, t, latePreds); err != nil {
			return nil, err
		}
		return p, nil
	}
	// Strict cascade: fetch each filter column, filter, repeat; then fetch
	// output columns one at a time.
	for _, c := range lateFilterCols {
		if err := pc.lateScan(p, r, t, []int{c}); err != nil {
			return nil, err
		}
		var preds []boundPred
		for _, bp := range latePreds {
			if bp.col == c {
				preds = append(preds, bp)
			}
		}
		if err := pc.applyFilter(p, t, preds); err != nil {
			return nil, err
		}
	}
	for _, c := range lateOutputCols {
		if err := pc.lateScan(p, r, t, []int{c}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// planJoin plans a two-table query: table 0 is the probe (pipelined) side,
// table 1 the build side. Local filters apply below the join; the placement
// option governs where output-only columns are created relative to the join.
// Every plan collects the build side into one hash table (exec.SharedBuild)
// and probes it with exec.HashProbe: the serial plan with one probe, a cut
// plan with one probe pipeline per probe-side
// part on the exchange's worker pool. Probe parts replay in file order with
// matches in build stream order, so the joined stream — and everything
// finish stacks above it — is byte-identical to the serial plan.
func (pc *planCtx) planJoin(r *resolvedQuery, c *cutPlan) (*pipe, error) {
	filterCols, outputCols := r.neededColumns()
	sides := make([]*pipe, 2)
	lateAfterJoin := make([][]int, 2)
	order := [2]int{0, 1}
	if c.par {
		order = [2]int{1, 0} // the shared build is planned first
	}
	for _, t := range order {
		bt := r.tables[t]
		if bt.st.ds != nil {
			// Dataset join sides materialise every needed column early and
			// filter inside the per-partition pipelines (row ids are
			// partition-local, so post-join late scans cannot span the
			// concat).
			p, err := pc.datasetScan(r, t, &c.tables[t])
			if err != nil {
				return nil, err
			}
			sides[t] = p
			continue
		}
		canLate := pc.lateCapable(bt)
		place := pc.place
		if pc.strategy != StrategyShreds || !canLate || c.par {
			place = PlaceEarly
		}
		baseCols := append([]int{}, filterCols[t]...) // includes the join key
		var intermediate []int
		switch place {
		case PlaceEarly:
			baseCols = append(baseCols, outputCols[t]...)
		case PlaceIntermediate:
			intermediate = outputCols[t]
		case PlaceLate:
			lateAfterJoin[t] = outputCols[t]
		}
		sortInts(baseCols)
		needRID := canLate && (len(intermediate) > 0 || len(lateAfterJoin[t]) > 0)
		p, residual, err := pc.baseScan(t, c.tables[t].units[0], baseCols, needRID, r.filters[t])
		if err != nil {
			return nil, err
		}
		if err := pc.applyFilter(p, t, residual); err != nil {
			return nil, err
		}
		if len(intermediate) > 0 {
			if err := pc.lateScan(p, r, t, intermediate); err != nil {
				return nil, err
			}
		}
		sides[t] = p
	}
	left, right := sides[0], sides[1]
	lk, ok := left.pos[boundRef{0, r.join.leftCol}]
	if !ok {
		return nil, fmt.Errorf("engine: internal: left join key not materialised")
	}
	rk, ok := right.pos[boundRef{1, r.join.rightCol}]
	if !ok {
		return nil, fmt.Errorf("engine: internal: right join key not materialised")
	}
	// Merge layouts: right positions shift by the left width.
	merged := &pipe{pos: make(map[boundRef]int), rid: map[int]int{0: -1, 1: -1}}
	off := left.width()
	for ref, i := range left.pos {
		merged.pos[ref] = i
	}
	for ref, i := range right.pos {
		merged.pos[ref] = off + i
	}
	if i, ok := left.rid[0]; ok && i >= 0 {
		merged.rid[0] = i
	}
	if i, ok := right.rid[1]; ok && i >= 0 {
		merged.rid[1] = off + i
	}
	// The serial plan is the one-probe case of the shared build.
	workers := 1
	if c.par {
		// The build side's parts feed a private exchange under the shared
		// build, whose parse overlaps the probe scans.
		if err := pc.gather(right, "build-exchange"); err != nil {
			return nil, err
		}
		workers = pc.workers
	}
	build, err := exec.NewSharedBuild(right.ops[0], rk, workers)
	if err != nil {
		return nil, err
	}
	for i, part := range left.ops {
		if left.ops[i], err = exec.NewHashProbe(part, build, lk); err != nil {
			return nil, err
		}
	}
	if c.par {
		if err := pc.gather(left, "probe-exchange", right.span); err != nil {
			return nil, err
		}
		pc.pathf("par:hashjoin(%s,%s)", r.tables[0].st.tab.Name, r.tables[1].st.tab.Name)
		merged.ops, merged.span = left.ops, left.span
	} else {
		jop, jspan := pc.opSpan(left.ops[0], "hashjoin", left.span, right.span)
		merged.ops, merged.span = []exec.Operator{jop}, jspan
	}
	for t := 0; t < 2; t++ {
		if len(lateAfterJoin[t]) > 0 {
			if err := pc.lateScan(merged, r, t, lateAfterJoin[t]); err != nil {
				return nil, err
			}
		}
	}
	return merged, nil
}

// lateCapable reports whether column shreds can be used for this table under
// the current cache state: rows must be addressable by row id — through a
// populated positional map or structural index for text formats (built by a
// previous query), natively for binary and ROOT.
func (pc *planCtx) lateCapable(bt *boundTable) bool {
	if bt.st.src == nil {
		return false
	}
	a, err := bt.st.src.access(bt.st.tab, bt.pos, nil, scanGenerated)
	return err == nil && a.mode != jit.Sequential
}

// lookAhead looks each column of a cascade up once, in the cascade's order
// and with its pool call: the base columns as full shreds, the late ones as
// any shred (in column order when one late scan fetches them all). The plan
// consumes the answers instead of asking again (lookup); full reports that
// all of them are full shreds, which makes the plan one resident scan.
func (pc *planCtx) lookAhead(table string, base, lateFilter, lateOutput []int) (full bool) {
	all := slices.Concat(base, lateFilter, lateOutput)
	if pc.multi {
		sortInts(all[len(base):])
	}
	pc.looked = make(map[shred.Key]*shred.Shred, len(all))
	full = true
	for i, c := range all {
		s := pc.lookup(table, c, i >= len(base))
		pc.looked[shred.Key{Table: table, Col: c}] = s
		full = full && s != nil && s.Full()
	}
	return full
}

// lookup asks the pool for a full shred of column col, or with partial set for
// the best shred there is (a partial one is checked at runtime). A column
// lookAhead asked for is answered from its memo, once.
func (pc *planCtx) lookup(table string, col int, partial bool) *shred.Shred {
	k := shred.Key{Table: table, Col: col}
	if s, ok := pc.looked[k]; ok {
		delete(pc.looked, k)
		return s
	}
	if partial {
		return pc.e.shreds.LookupAny(k)
	}
	return pc.e.shreds.LookupFull(k)
}

// splitPreds partitions predicates into those whose column is in cols and
// the rest.
func splitPreds(preds []boundPred, cols []int) (in, out []boundPred) {
	set := make(map[int]bool, len(cols))
	for _, c := range cols {
		set[c] = true
	}
	for _, p := range preds {
		if set[p.col] {
			in = append(in, p)
		} else {
			out = append(out, p)
		}
	}
	return in, out
}

// applyFilter adds a Filter operator for preds to every part (no-op when
// empty).
func (pc *planCtx) applyFilter(p *pipe, t int, preds []boundPred) error {
	if len(preds) == 0 {
		return nil
	}
	eps := make([]exec.Pred, len(preds))
	for i, bp := range preds {
		pos, ok := p.pos[boundRef{t, bp.col}]
		if !ok {
			return fmt.Errorf("engine: internal: filter column %d not materialised", bp.col)
		}
		eps[i] = exec.Pred{Col: pos, Op: bp.op, I64: bp.i64, F64: bp.f64}
	}
	for i, op := range p.ops {
		f, err := exec.NewFilter(op, eps)
		if err != nil {
			return err
		}
		p.ops[i] = f
	}
	pc.traceWrap(p, fmt.Sprintf("filter[%d]", len(preds)))
	return nil
}

// baseScan builds the bottom access path of scan unit u, one operator per span,
// as table t of the pipeline. A one-part scan checks for cancellation under
// every batch and, when tracing, is wrapped in a span named after the access
// path the strategy chose, with the scan's prune probes attached so runtime
// counters land on the span; the parts of a cut one get both from their
// exchange.
func (pc *planCtx) baseScan(t int, u unitCut, cols []int, needRID bool,
	candidates []boundPred) (*pipe, []boundPred, error) {
	mark := pc.markScan()
	p, residual, err := pc.baseScanInner(t, u, cols, needRID, candidates)
	if err != nil {
		return nil, nil, err
	}
	if st := u.bt.st; st.src != nil { // not a memory table
		pc.scans = append(pc.scans, scanHeat{st: st, first: mark.probes, end: len(pc.probes)})
	}
	if pc.ctx != nil && !p.par {
		// Cancellation check under every batch the scan emits: even plans
		// whose upper operators drain their input inside one Next call
		// (aggregates, hash-join builds) then stop within one batch.
		p.ops[0] = exec.WithContext(p.ops[0], pc.ctx)
	}
	pc.scanSpan(p, mark)
	return p, residual, nil
}

// baseScanInner builds the scans of unit u materialising cols (sorted),
// optionally emitting the hidden row-id column (one-part plans only), and
// registers the resulting layout. candidates are the predicates on cols; the
// access path absorbs what it can (JIT strategies) and returns the rest as the
// residual the caller must still filter.
func (pc *planCtx) baseScanInner(t int, u unitCut, cols []int, needRID bool,
	candidates []boundPred) (*pipe, []boundPred, error) {
	st := u.bt.st
	tab := st.tab
	p := &pipe{pos: make(map[boundRef]int), rid: map[int]int{t: -1}, par: !u.whole()}

	// Memory tables (staged results) are strategy-independent; the DBMS
	// baseline scans what cut loaded.
	if tab.Format == catalog.Memory || pc.strategy == StrategyDBMS {
		label := "memory:scan"
		if tab.Format != catalog.Memory {
			label = "dbms:memscan"
		}
		vecs := make([]*vector.Vector, len(cols))
		for i, c := range cols {
			vecs[i] = st.loaded[c]
		}
		var err error
		if p.ops, err = residentScans(tab, cols, vecs, u.spans, nil, nil, pc.e.cfg.BatchSize, false); err != nil {
			return nil, nil, err
		}
		p.layout(t, cols, -1)
		pc.pathf("%s%s(%s)", p.parLabel(), label, tab.Name)
		return p, candidates, nil
	}
	kind, ok := pc.scanKind()
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown strategy %d", pc.strategy)
	}
	return pc.baseScanFile(p, t, u, kind, cols, needRID, candidates)
}

// rawScan says what one read of a table's raw file must deliver.
type rawScan struct {
	bt   *boundTable
	kind scanKind
	cols []int // columns to materialise, sorted
	// pushable are the predicates on cols the scans may absorb; skip are all
	// the predicates a zone map may exclude row ranges by (in a one-part plan
	// that includes those on cached columns appended above the scan).
	pushable, skip []boundPred
	emitRID        bool // whole-table scans only
}

// rawScans builds one scan per span over a table's raw file — cut's
// [wholeTable], or the plug-in's split — through the
// access path a the plug-in described, plus the completion hook that
// publishes what the scans built on the side. It is the one place that
// arbitrates between pushdown and capture, applies zone maps, attaches
// synopsis builders, charges the template cache, labels the path and tees
// full columns into the shred pool, for every format and either plan shape.
//
// absorbed are the predicates the scans evaluate exactly (all of rs.pushable
// or none; the caller filters the rest). pruned says the scans may drop rows
// — absorbed predicates, zone skipping, advisory pruning — so their output is
// no full column. done (nil when nothing is built) runs under the
// re-acquired table locks once execution succeeded, so a failed or cancelled
// query publishes nothing.
func (pc *planCtx) rawScans(rs rawScan, a access, spans []span) (parts []exec.Operator,
	done func() error, absorbed []boundPred, pruned bool, err error) {
	st := rs.bt.st
	tab := st.tab
	whole := len(spans) == 1 && spans[0] == wholeTable
	generated := rs.kind == scanGenerated

	// A scan that eliminates rows cannot publish full columns, and capture
	// wins that conflict (see captureActive): predicates are absorbed and
	// zone maps consulted only when this scan captures nothing.
	capturing := generated && pc.captureActive()
	var push []exec.Pred
	if generated && (a.advisory || pc.pushdown && !capturing) {
		push = execPreds(rs.pushable)
		if !a.advisory {
			absorbed = rs.pushable
		}
	}
	var skip func(lo, hi int64) bool
	if generated && a.zoneSkip && (whole || !a.recording) && pc.zonemaps && !capturing {
		skip = synSkip(rs.bt.pos.syn, rs.skip)
	}
	spans = pc.skipMorsels(spans, skip)
	pruned = len(push) > 0 || skip != nil

	// A pass that parses every value builds the table's zone maps on the side,
	// one fragment per span — unless a zone map already steers it (a skipped
	// range never advances a builder) or the current synopsis tracks all it
	// could observe. A fuller pass replaces a synopsis an earlier selective
	// query narrowed: the columns of the latest build are the ones current
	// queries filter on.
	var synObs map[int]vector.Type
	if generated && a.buildsSyn && skip == nil && pc.zonemaps && pc.capture {
		synObs = observableCols(tab, rs.cols, push, a.mode != jit.Sequential)
		if pc.synCovered(rs.bt.pos.syn, synObs) {
			synObs = nil
		}
	}

	var frags []fragment
	var synFrags []*synopsis.Builder
	var caps []*morselCapture
	for _, sp := range spans {
		hint := rowHint(st, a, sp)
		req := scanReq{kind: rs.kind, mode: a.mode, span: sp, cols: rs.cols, emitRID: rs.emitRID,
			push: jit.Pushdown{Preds: push, Skip: skip}, batch: pc.e.cfg.BatchSize,
			track: true, rowHint: hint}
		if synObs != nil {
			req.push.Syn = synopsis.NewBuilder(pc.blockRows(), synObs)
			synFrags = append(synFrags, req.push.Syn)
		}
		op, frag, err := st.src.scan(tab, rs.bt.pos, req)
		if err != nil {
			return nil, nil, nil, false, err
		}
		if frag != nil {
			frags = append(frags, frag)
		}
		if ps, ok := op.(pushStats); ok {
			pc.probes = append(pc.probes, pruneProbe{scan: ps})
		}
		if capturing && !pruned {
			mc := newMorselCapture(op, tab, rs.cols, hint)
			caps = append(caps, mc)
			op = mc
		}
		parts = append(parts, op)
	}

	label, par := a.label, ""
	if a.advisory && len(push) > 0 {
		label += "+zonemap"
	}
	if !whole {
		par = fmt.Sprintf("par[%d]:", len(parts))
	}
	pc.pathf("%s%s:%s(%s)", par, rs.kind, label, tab.Name)
	if a.mode == jit.ViaMap {
		pc.hit(tab.Name, a.structure, 1)
	}
	pc.pushed(tab.Name, len(absorbed), skip != nil)
	if generated {
		spec := st.src.spec(tab, rs.bt.pos, a.mode, rs.cols)
		spec.EmitRID = rs.emitRID
		if len(absorbed) > 0 {
			spec.Preds = push
		}
		pc.ensureTemplate(spec)
	}
	if len(caps) > 0 {
		pc.shredsCaptured(tab, rs.cols)
	}
	if len(frags) == 0 && len(synFrags) == 0 && len(caps) == 0 {
		return parts, nil, absorbed, pruned, nil
	}

	return parts, func() error {
		if len(frags) > 0 {
			// The scans visited every row: the table's row count is known
			// from here on, whether or not anything may be published.
			var rows int64
			for _, f := range frags {
				rows += f.NRows()
			}
			st.learnRows(rows)
			if a.structure != "" && pc.capture && rows > 0 {
				bytes, err := st.src.publish(st, frags, spans)
				if err != nil {
					return err
				}
				pc.captured(a.structure, tab, bytes)
			}
		}
		if len(synFrags) > 0 {
			fins := make([]*synopsis.Synopsis, len(synFrags))
			for i, fb := range synFrags {
				fins[i] = fb.Finish()
			}
			syn := fins[0]
			if len(fins) > 1 {
				syn = synopsis.Concat(fins)
			}
			if syn != nil && (st.nrows < 0 || syn.NRows() == st.nrows) {
				st.syn.set(syn)
				pc.captured("synopsis", tab, syn.MemoryFootprint())
			}
		}
		pc.publishCaptures(tab, rs.cols, caps)
		return nil
	}, absorbed, pruned, nil
}

// baseScanFile scans a raw-file table under kind. The baselines' kinds — the
// NoDB-style in-situ scan, the external table — read every column from the
// file: nothing pushed down, nothing captured. The generated kind serves
// columns from the shred pool where possible and captures file-read columns
// into it; candidate predicates on uncached columns are pushed into the
// generated scan (conversion-time checks, vectorized selection, zone-map
// skipping). The returned residual holds whatever must still run in a Filter
// above.
func (pc *planCtx) baseScanFile(p *pipe, t int, u unitCut, kind scanKind, cols []int, needRID bool,
	candidates []boundPred) (*pipe, []boundPred, error) {
	bt := u.bt
	st := bt.st
	tab := st.tab
	bs := pc.e.cfg.BatchSize

	// A one-part plan looks each column up and reads only the rest from the
	// file; a cut one has them all as full shreds (cut looked) or reads them
	// all from the file.
	var cached []int
	uncached, cachedShreds := cols, u.shreds
	if cachedShreds != nil {
		cached, uncached = cols, nil
	} else if !p.par && kind == scanGenerated && pc.useCache {
		uncached = nil
		for _, c := range cols {
			if s := pc.lookup(tab.Name, c, false); s != nil {
				cached = append(cached, c)
				cachedShreds = append(cachedShreds, s)
			} else {
				uncached = append(uncached, c)
			}
		}
	}
	pc.hit(tab.Name, "shred", len(cached))

	// Everything cached: stream from the pool, no raw access at all.
	// Predicates on the cached columns are still absorbed — the scans evaluate
	// them vectorized and emit selection-vector batches — and, when the
	// synopsis covers exactly the shreds' rows, zone maps exclude batch ranges
	// inside every scan and whole spans of a cut one before dispatch.
	if len(uncached) == 0 {
		slotOf := make(map[int]int, len(cached))
		for i, c := range cached {
			slotOf[c] = i
		}
		var preds []exec.Pred
		residual := candidates
		if pc.pushdown {
			residual = nil
			for _, bp := range candidates {
				preds = append(preds, exec.Pred{Col: slotOf[bp.col], Op: bp.op, I64: bp.i64, F64: bp.f64})
			}
		}
		vecs := make([]*vector.Vector, len(cached))
		for i, s := range cachedShreds {
			vecs[i] = s.Vector()
		}
		// A range is excluded only when one predicate excludes every block it
		// overlaps: when the zone map excludes no block, the scans (and
		// morsels) are handed no test, and unsorted columns pay nothing.
		var skip, scanSkip func(lo, hi int64) bool
		if syn := bt.pos.syn; pc.zonemaps && syn != nil && len(vecs) > 0 && syn.NRows() == int64(vecs[0].Len()) {
			if skip = synSkip(syn, candidates); skip != nil {
				b := syn.Bounds()
				for i := 0; i+1 < len(b); i++ {
					if skip(b[i], b[i+1]) {
						scanSkip = skip
						break
					}
				}
			}
		}
		var err error
		if p.ops, err = residentScans(tab, cols, vecs, pc.skipMorsels(u.spans, scanSkip), preds, scanSkip, bs, needRID); err != nil {
			return nil, nil, err
		}
		ridIdx := -1
		if needRID {
			ridIdx = len(cached)
		}
		p.layout(t, cached, ridIdx)
		pc.pathf("%sshred:scan(%s)", p.parLabel(), tab.Name)
		pc.pushed(tab.Name, len(preds), skip != nil)
		if len(preds) > 0 || scanSkip != nil {
			for _, op := range p.ops {
				pc.probes = append(pc.probes, pruneProbe{scan: op.(*exec.MemScan)})
			}
		}
		return p, residual, nil
	}

	// Read uncached columns from the raw file, one scan per span, through the
	// access path the plug-in describes. A generated one may absorb the
	// candidates on them; predicates on cached (late-appended) columns always
	// stay in the Filter above. If cached columns must be appended, the scan
	// emits row ids for the (sequential) shred late-scan doing the appending.
	pushable, rest := splitPreds(candidates, uncached)
	emitRID := needRID || len(cached) > 0
	a, err := st.src.access(tab, bt.pos, uncached, kind)
	if err != nil {
		return nil, nil, err
	}
	var done func() error
	var absorbed []boundPred
	var pruned bool
	p.ops, done, absorbed, pruned, err = pc.rawScans(rawScan{bt: bt, kind: kind,
		cols: uncached, pushable: pushable, skip: candidates, emitRID: emitRID}, a, u.spans)
	if err != nil {
		return nil, nil, err
	}
	pc.deferMerge(done)
	residual := candidates
	if len(absorbed) > 0 {
		residual = rest
	}
	ridIdx := -1
	if emitRID {
		ridIdx = len(uncached)
	}
	p.layout(t, uncached, ridIdx)

	// rawScans captured the columns of an unpruned scan in full. A pruned
	// scan's output is NOT a full column: capture it keyed by row ids instead
	// (requires the rid column), or not at all.
	if pruned && emitRID && pc.captureActive() {
		specs := make([]shred.CaptureSpec, len(uncached))
		for i, c := range uncached {
			specs[i] = shred.CaptureSpec{Key: shred.Key{Table: tab.Name, Col: c}, ColIdx: i, RIDIdx: ridIdx}
		}
		cap, err := shred.NewCapture(p.ops[0], pc.e.shreds, specs)
		if err != nil {
			return nil, nil, err
		}
		p.ops[0] = cap
		pc.shredsCaptured(tab, uncached)
	}

	// Append cached columns via their row ids, after uncached+rid.
	if len(cached) > 0 {
		if err := appendLate(p, t, tab, ridIdx, cached, shred.NewLateFill(cachedShreds, nil).Fetch); err != nil {
			return nil, nil, err
		}
		pc.pathf("shred:append(%s)", tab.Name)
	}
	return p, residual, nil
}

// appendLate stacks on p the late scan appending cols of table t, fetched by
// fetch: the one place the planner builds a late scan.
func appendLate(p *pipe, t int, tab *catalog.Table, ridIdx int, cols []int, fetch exec.Fetch) error {
	base := p.width()
	ls, err := exec.NewLateScan(p.ops[0], ridIdx, insitu.RowIDColumn, colSchema(tab, cols), fetch)
	if err != nil {
		return err
	}
	p.ops[0] = ls
	for i, c := range cols {
		p.pos[boundRef{t, c}] = base + i
	}
	return nil
}

// lateScan appends the given columns of table t via a column-shred access
// path, wrapping the result in a span named after the chosen path.
func (pc *planCtx) lateScan(p *pipe, r *resolvedQuery, t int, cols []int) error {
	mark := pc.markScan()
	if err := pc.lateScanInner(p, r, t, cols); err != nil {
		return err
	}
	pc.scanSpan(p, mark)
	return nil
}

// lateScanInner appends the given columns of table t to the pipeline in one
// late scan. A column is served from the best shred the pool holds — a
// partial one completed from the raw file by the table's own late reader,
// never replanned — and read from the file otherwise; file-read columns are
// captured into the pool as shreds keyed by row id.
func (pc *planCtx) lateScanInner(p *pipe, r *resolvedQuery, t int, cols []int) error {
	st, pos := r.tables[t].st, r.tables[t].pos
	tab := st.tab
	ridIdx := p.rid[t]
	if ridIdx < 0 {
		return fmt.Errorf("engine: internal: late scan without row ids for table %q", tab.Name)
	}
	var fromCache, fromFile []int
	var cachedShreds []*shred.Shred
	var raw []exec.Fetch
	for _, c := range cols {
		var s *shred.Shred
		if pc.useCache {
			s = pc.lookup(tab.Name, c, true)
		}
		if s == nil {
			fromFile = append(fromFile, c)
			continue
		}
		var f exec.Fetch
		if !s.Full() {
			var err error
			if f, err = st.src.late(tab, pos, []int{c}); err != nil {
				return err
			}
		}
		fromCache, cachedShreds, raw = append(fromCache, c), append(cachedShreds, s), append(raw, f)
	}
	pc.hit(tab.Name, "shred", len(fromCache))

	var fetch exec.Fetch
	if len(fromCache) > 0 {
		fill := shred.NewLateFill(cachedShreds, raw)
		fetch = fill.Fetch
		pc.probes = append(pc.probes, pruneProbe{fill: fill})
		pc.pathf("shred:late(%s)", shredKeys(tab.Name, fromCache))
	}
	if len(fromFile) > 0 {
		sortInts(fromFile)
		file, err := st.src.late(tab, pos, fromFile)
		if err != nil {
			return err
		}
		lateSpec := st.src.spec(tab, pos, jit.Late, fromFile)
		lateSpec.EmitRID = true
		pc.ensureTemplate(lateSpec)
		pc.pathf("jit:late(%s)", shredKeys(tab.Name, fromFile))
		if cached, k := fetch, len(fromCache); cached == nil {
			fetch = file
		} else {
			fetch = func(rids []int64, outs []*vector.Vector) error {
				if err := cached(rids, outs[:k]); err != nil {
					return err
				}
				return file(rids, outs[k:])
			}
		}
	}
	if err := appendLate(p, t, tab, ridIdx, slices.Concat(fromCache, fromFile), fetch); err != nil {
		return err
	}

	// Capture the file-read columns (partial columns keyed by row id).
	if len(fromFile) > 0 && pc.captureActive() {
		specs := make([]shred.CaptureSpec, len(fromFile))
		for i, c := range fromFile {
			specs[i] = shred.CaptureSpec{Key: shred.Key{Table: tab.Name, Col: c},
				ColIdx: p.pos[boundRef{t, c}], RIDIdx: ridIdx}
		}
		cap, err := shred.NewCapture(p.ops[0], pc.e.shreds, specs)
		if err != nil {
			return err
		}
		p.ops[0] = cap
		pc.shredsCaptured(tab, fromFile)
	}
	return nil
}

// outRef locates one query aggregate in the aggregation's output: either a
// final aggregate column or a divide column appended above them (AVG of a
// two-stage plan).
type outRef struct {
	div bool
	idx int
}

// finish adds aggregation/grouping, HAVING filters and the final projection.
// Over one part the aggregate runs in one stage. Over the parts of a cut
// table it is split into a partial aggregate per part and a final combining
// aggregate above the exchange: COUNT partials merge by summation; MIN/MAX and
// integer SUM merge by re-applying the same function. Float SUM travels as a
// (Sum, SumErr) pair — the correctly rounded part sum plus the residue
// rounding dropped — merged exactly by MergeSum, so the total is
// bit-identical to the one-stage sum. AVG is decomposed into final SUM and
// COUNT combined by a Divide column above the final aggregate, and HAVING
// filters above that. Group keys stay in first-encounter order because the
// parts partition the file in order and the exchange replays partial outputs
// in part order.
func (pc *planCtx) finish(r *resolvedQuery, p *pipe) (exec.Operator, error) {
	names := make([]string, len(r.items))
	hasAgg := len(r.groupBy) > 0 || len(r.having) > 0
	for i, it := range r.items {
		names[i] = it.name
		hasAgg = hasAgg || it.isAgg
	}
	if !hasAgg {
		// Plain projection.
		if err := pc.gather(p, "exchange"); err != nil {
			return nil, err
		}
		idxs := make([]int, len(r.items))
		for i, it := range r.items {
			pos, ok := p.pos[it.ref]
			if !ok {
				return nil, fmt.Errorf("engine: internal: output column %q not materialised", it.name)
			}
			idxs[i] = pos
		}
		pr, err := exec.NewProject(p.ops[0], idxs, names)
		if err != nil {
			return nil, err
		}
		op, _ := pc.opSpan(pr, "project", p.span)
		return op, nil
	}

	twoStage := p.par
	groupIdx := make([]int, len(r.groupBy))
	for i, g := range r.groupBy {
		pos, ok := p.pos[g]
		if !ok {
			return nil, fmt.Errorf("engine: internal: group column not materialised")
		}
		groupIdx[i] = pos
	}

	// Three registries, each deduplicating identical entries: the final
	// aggregates — over the pipeline itself in one stage, over the partials in
	// two —, the partial aggregates computed per part, and the divide columns
	// (AVG = final SUM ÷ final COUNT) appended above the final aggregate.
	var partials, finals []exec.AggSpec
	type divSpec struct {
		num, den int // final-aggregate spec indexes
		name     string
	}
	var divides []divSpec
	addPartial := func(f exec.AggFunc, col int, name string) int {
		for i, s := range partials {
			if s.Func == f && s.Col == col {
				return i
			}
		}
		partials = append(partials, exec.AggSpec{Func: f, Col: col, As: name})
		return len(partials) - 1
	}
	// pcol maps a partial spec index onto its column in the exchange stream
	// (group keys first, then the partials in registration order).
	pcol := func(pi int) int { return len(groupIdx) + pi }
	addFinal := func(f exec.AggFunc, col, col2 int, name string) int {
		for i, s := range finals {
			if s.Func == f && s.Col == col && s.Col2 == col2 {
				return i
			}
		}
		finals = append(finals, exec.AggSpec{Func: f, Col: col, Col2: col2, As: name})
		return len(finals) - 1
	}
	addDivide := func(num, den int, name string) int {
		for i, d := range divides {
			if d.num == num && d.den == den {
				return i
			}
		}
		divides = append(divides, divSpec{num: num, den: den, name: name})
		return len(divides) - 1
	}

	// decompose registers the specs implementing one query aggregate and
	// returns where its value lands.
	decompose := func(it boundItem) (outRef, error) {
		col := -1
		isFloat := false
		if !it.star {
			pos, ok := p.pos[it.ref]
			if !ok {
				return outRef{}, fmt.Errorf("engine: internal: aggregate input %q not materialised", it.name)
			}
			col = pos
			isFloat = r.tables[it.ref.table].st.tab.Schema[it.ref.col].Type == vector.Float64
		}
		switch {
		case !twoStage:
			return outRef{idx: addFinal(it.agg, col, -1, it.name)}, nil
		case it.agg == exec.Count:
			p := addPartial(exec.Count, col, it.name)
			return outRef{idx: addFinal(exec.Sum, pcol(p), -1, it.name)}, nil
		case it.agg == exec.Min || it.agg == exec.Max:
			p := addPartial(it.agg, col, it.name)
			return outRef{idx: addFinal(it.agg, pcol(p), -1, it.name)}, nil
		case it.agg == exec.Sum && !isFloat:
			p := addPartial(exec.Sum, col, it.name)
			return outRef{idx: addFinal(exec.Sum, pcol(p), -1, it.name)}, nil
		case it.agg == exec.Sum:
			hi := addPartial(exec.Sum, col, it.name)
			lo := addPartial(exec.SumErr, col, it.name+"#err")
			return outRef{idx: addFinal(exec.MergeSum, pcol(hi), pcol(lo), it.name)}, nil
		case it.agg == exec.Avg && isFloat:
			hi := addPartial(exec.Sum, col, it.name+"#sum")
			lo := addPartial(exec.SumErr, col, it.name+"#err")
			n := addPartial(exec.Count, -1, "#rows")
			fs := addFinal(exec.MergeSum, pcol(hi), pcol(lo), it.name+"#sum")
			fn := addFinal(exec.Sum, pcol(n), -1, "#rows")
			return outRef{div: true, idx: addDivide(fs, fn, it.name)}, nil
		case it.agg == exec.Avg:
			s := addPartial(exec.Sum, col, it.name+"#sum")
			n := addPartial(exec.Count, -1, "#rows")
			fs := addFinal(exec.Sum, pcol(s), -1, it.name+"#sum")
			fn := addFinal(exec.Sum, pcol(n), -1, "#rows")
			return outRef{div: true, idx: addDivide(fs, fn, it.name)}, nil
		}
		return outRef{}, fmt.Errorf("engine: internal: no parallel form for aggregate %s", it.agg)
	}

	refs := make([]outRef, len(r.items))
	aggOut := make([]int, len(r.items)) // result position per item
	for i, it := range r.items {
		if !it.isAgg {
			// Bare group column: position within the aggregate output is its
			// index in groupBy.
			for gi, g := range r.groupBy {
				if g == it.ref {
					aggOut[i] = gi
				}
			}
			continue
		}
		ref, err := decompose(it)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
	}
	// HAVING aggregates may add hidden specs.
	havingRefs := make([]outRef, len(r.having))
	for i, h := range r.having {
		ref, err := decompose(h.item)
		if err != nil {
			return nil, err
		}
		havingRefs[i] = ref
	}
	if len(finals) == 0 {
		// Bare GROUP BY projection (SELECT g FROM t GROUP BY g): stage a
		// hidden COUNT so the aggregate has a spec; the projection drops it.
		if _, err := decompose(boundItem{agg: exec.Count, isAgg: true, star: true, name: "#rows"}); err != nil {
			return nil, err
		}
	}

	// Every output position is now known: the final aggregate emits the group
	// keys then the finals, and each Divide appends one column above that.
	finalBase := len(groupIdx)
	posOf := func(ref outRef) int {
		if ref.div {
			return finalBase + len(finals) + ref.idx
		}
		return finalBase + ref.idx
	}
	for i, it := range r.items {
		if it.isAgg {
			aggOut[i] = posOf(refs[i])
		}
	}

	stage := "aggregate"
	if twoStage {
		// Ungrouped partials emit one row even when their part filtered down
		// to nothing (COUNT = 0 with identity-less zero aggregates); those
		// rows must not feed MIN/MAX/SUM merging. Reuse any registered COUNT
		// partial as the guard, or stage a hidden one, and filter empty
		// partials out. Grouped partials only emit groups that saw rows, so
		// no guard is needed there.
		guard := -1
		if len(groupIdx) == 0 {
			for i, s := range partials {
				if s.Func == exec.Count {
					guard = i
					break
				}
			}
			if guard < 0 {
				guard = addPartial(exec.Count, -1, "#partial_rows")
			}
		}
		for i, part := range p.ops {
			agg, err := exec.NewAggregate(part, partials, groupIdx)
			if err != nil {
				return nil, err
			}
			p.ops[i] = agg
		}
		if err := pc.gather(p, "exchange"); err != nil {
			return nil, err
		}
		if guard >= 0 {
			f, err := exec.NewFilter(p.ops[0], []exec.Pred{{Col: pcol(guard), Op: exec.Gt, I64: 0}})
			if err != nil {
				return nil, err
			}
			p.ops[0] = f
		}
		// The exchange stream leads with the group keys.
		groupIdx = make([]int, len(groupIdx))
		for i := range groupIdx {
			groupIdx[i] = i
		}
		stage = "final-aggregate"
	}
	agg, err := exec.NewAggregate(p.ops[0], finals, groupIdx)
	if err != nil {
		return nil, err
	}
	out, top := pc.opSpan(agg,
		fmt.Sprintf("%s[groups=%d aggs=%d]", stage, len(groupIdx), len(finals)), p.span)
	if len(divides) > 0 {
		for _, d := range divides {
			dv, err := exec.NewDivide(out, finalBase+d.num, finalBase+d.den, d.name)
			if err != nil {
				return nil, err
			}
			out = dv
		}
		out, top = pc.opSpan(out, fmt.Sprintf("divide[%d]", len(divides)), top)
	}
	if len(r.having) > 0 {
		preds := make([]exec.Pred, len(r.having))
		for i, h := range r.having {
			preds[i] = exec.Pred{Col: posOf(havingRefs[i]), Op: h.op, I64: h.i64, F64: h.f64}
		}
		f, err := exec.NewFilter(out, preds)
		if err != nil {
			return nil, err
		}
		out, top = pc.opSpan(f, fmt.Sprintf("having[%d]", len(preds)), top)
	}
	// Re-order to the SELECT list.
	pr, err := exec.NewProject(out, aggOut, names)
	if err != nil {
		return nil, err
	}
	fin, _ := pc.opSpan(pr, "project", top)
	return fin, nil
}

// ensureTemplate consults the JIT template cache, charging simulated compile
// latency on a miss (which, when tracing, shows up as a jit-compile span).
func (pc *planCtx) ensureTemplate(sp jit.Spec) {
	start := time.Now()
	_, hit := pc.e.templates.Ensure(sp)
	if hit {
		pc.stats.TemplateHits++
		return
	}
	pc.stats.TemplateMisses++
	if pc.trace != nil {
		s := pc.trace.NewSpan("jit-compile")
		s.AddAttr("table", sp.Table)
		s.Window(start, time.Now())
	}
}

func shredKeys(table string, cols []int) string {
	s := table + ".cols"
	for _, c := range cols {
		s += fmt.Sprintf("%d,", c)
	}
	return s
}

// ensureLoaded materialises every column of a table in memory (the DBMS
// baseline's loading step), charged to the first query that touches it:
// loaded says this call did the loading.
func (e *Engine) ensureLoaded(st *tableState) (loaded bool, err error) {
	if st.loaded != nil {
		return false, nil
	}
	cols, err := loadAll(st)
	if err != nil {
		return false, err
	}
	st.loaded = cols
	if len(cols) > 0 {
		st.nrows = int64(cols[0].Len())
	}
	return true, nil
}
