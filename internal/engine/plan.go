package engine

import (
	"context"
	"fmt"
	"time"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/jit"
	"rawdb/internal/obs"
	"rawdb/internal/shred"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// planCtx carries the per-query planning state: effective options, the
// running stats record and the cache-reuse switch (cleared on retry when an
// optimistic partial-shred choice fails at runtime).
type planCtx struct {
	e        *Engine
	strategy Strategy
	place    JoinPlacement
	multi    bool
	workers  int // morsel-parallel worker count; <= 1 plans serially
	useCache bool
	// capture allows this query to build and publish NEW adaptive structures
	// (positional maps, structural indexes, synopses, shreds). False — the
	// memory governor's degraded mode — still reuses everything already
	// cached; the query simply leaves no new resident state behind.
	capture  bool
	pushdown bool // absorb eligible predicates into generated access paths
	zonemaps bool // build and consult per-block min/max synopses
	stats    *Stats
	// ctx is the query's cancellation context: base scans are wrapped with a
	// per-batch check and exchanges hand it to their worker pools. nil (or a
	// never-cancelled context) leaves the plan untouched.
	ctx context.Context

	// morselTarget overrides the morsel count of the next morselScans call
	// (0 keeps workers * morselsPerWorker); the dataset planner sets it per
	// partition to spread the query's morsel budget by partition size.
	morselTarget int
	// allowSingleMorsel accepts a single morsel as a valid parallel unit:
	// a dataset partition too small to split still interleaves with its
	// siblings on the worker pool.
	allowSingleMorsel bool

	// Completion hooks. Execution runs without the table locks (the engine
	// releases them after planning and re-acquires them to publish), so
	// EVERY mutation of shared per-table state a query performs is deferred
	// to one of these lists, all of which run under the re-acquired locks:
	//
	//   - onMerge: the merge-on-completion hooks of parallel plans (positional
	//     map / structural index fragments, zone-map fragments, captured
	//     column shreds). They can fail and run first, so the install/event
	//     hooks below observe the merged state. Success only.
	//   - onComplete: installs of serially built structures and "captured"
	//     lifecycle events. Success only — an aborted query publishes nothing.
	//   - onFinish: stats folding (pushdown/prune runtime counters, span
	//     annotations). Runs exactly once whether the query succeeded or
	//     failed, so an aborted scan's counters are never silently dropped.
	onMerge    []func() error
	onComplete []func()
	onFinish   []func()

	// trace, when non-nil, collects operator spans: plan sites wrap the
	// operators they build (exec.WithSpan) and phase work is timed. A nil
	// trace leaves the plan untouched — the zero-cost disabled path.
	trace *obs.Trace
	// probes pairs each registered pushdown-counter closure with the scan
	// span it belongs to (assigned when the enclosing scan site finishes
	// building), so per-operator prune counts land on the right span.
	probes []*pruneProbe

	// fallbackReason/fallbackDetail record why planParallel declined a
	// workers > 1 query (the first decline site wins — it is the innermost
	// and most specific); plan() copies them into Stats, the trace, and an
	// obs event whenever the serial plan runs instead.
	fallbackReason string
	fallbackDetail string

	// qid is the engine-assigned query ID, stamped on query-scoped events.
	qid int64
	// heat accumulates this query's per-table workload-heat deltas (see
	// heat.go); populated by onFinish hooks and emitCaptured, folded into
	// the engine registry once by foldHeat.
	heat map[string]*obs.HeatDelta
}

// Structured parallel-fallback reasons. With joins, HAVING, AVG, float SUM,
// and bare GROUP BY parallel-native, these are the only ways a workers > 1
// query still runs serial.
const (
	// fallbackRootTable: ROOT files are accessed through the library pacing
	// the paper measures; there is no splittable raw byte range.
	fallbackRootTable = "root-table"
	// fallbackSmallFile: the file (or dataset) yields fewer than two
	// morsels, so an exchange would only add overhead over the serial scan.
	fallbackSmallFile = "small-file"
	// fallbackUnsupportedFormat: the strategy has no reader for this format
	// at all (the serial plan errors too).
	fallbackUnsupportedFormat = "unsupported-format"
	// fallbackInternal marks decline paths that should be unreachable.
	fallbackInternal = "planner-internal"
)

// declineParallel records the structured reason the parallel planner is
// declining this query. The first recorded reason wins. It always returns
// false so decline sites can return it directly as their ok value.
func (pc *planCtx) declineParallel(reason, detailf string, args ...any) bool {
	if pc.fallbackReason == "" {
		pc.fallbackReason = reason
		pc.fallbackDetail = fmt.Sprintf(detailf, args...)
	}
	return false
}

// pruneProbe defers a scan's runtime prune counters to onComplete time and
// remembers which span should be annotated with them.
type pruneProbe struct {
	f    func() (rows, blocks int64)
	span *obs.Span
}

// captureActive reports whether raw-file scans of this query capture column
// shreds. Capture and row pruning are mutually exclusive on one scan — a
// scan that eliminates rows cannot publish full columns — and the engine
// resolves the conflict in favour of the cache: the adaptation arc (cold
// scan pays full parse once, later queries hit shreds) is the paper's core
// warm-up behaviour and must not silently degrade. Pushdown and zone-map
// skipping therefore apply to raw-file scans only when capture is off
// (DisableShredCache, or the no-cache replan); scans over already-cached
// shreds absorb predicates unconditionally, since no capture is involved.
func (pc *planCtx) captureActive() bool {
	return pc.capture && pc.useCache && !pc.e.cfg.DisableShredCache
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
func (pc *planCtx) synCovered(st *tableState, obs map[int]vector.Type) bool {
	cur := st.synopsis()
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

// notePush records absorbed predicates and zone-skip activity in the stats
// and the access-path list (shared by every scan-building site).
func (pc *planCtx) notePush(table string, npush int, zmap bool) {
	if npush > 0 {
		pc.stats.PredsPushed += npush
		pc.pathf("push[%d](%s)", npush, table)
	}
	if zmap {
		pc.pathf("zmap(%s)", table)
		pc.noteStructHit(table, "synopsis", 1)
	}
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

// noteShredCapture emits captured lifecycle events for the columns a raw-file
// scan published into the shred pool, once the query completed. ShredsOf is
// used instead of a lookup so the event probe does not perturb the pool's
// hit/miss statistics or its LRU order.
func (pc *planCtx) noteShredCapture(tab *catalog.Table, cols []int) {
	want := append([]int(nil), cols...)
	pc.onComplete = append(pc.onComplete, func() {
		shs := pc.e.shreds.ShredsOf(tab.Name)
		for _, c := range want {
			for _, s := range shs {
				if s.Key().Col == c {
					pc.emitCaptured("shred", tab, s.SizeBytes())
					break
				}
			}
		}
	})
}

// pushStats folds a scan's runtime pushdown counters into the query stats
// once execution finished, and annotates the scan's span (assigned later by
// the wrapping site) with the same counts.
func (pc *planCtx) pushStats(f func() (int64, int64)) {
	probe := &pruneProbe{f: f}
	pc.probes = append(pc.probes, probe)
	pc.onFinish = append(pc.onFinish, func() {
		rows, blocks := probe.f()
		pc.stats.RowsPruned += rows
		pc.stats.BlocksSkipped += blocks
		if probe.span != nil && (rows > 0 || blocks > 0) {
			probe.span.AddAttrInt("rows_pruned", rows)
			probe.span.AddAttrInt("blocks_skipped", blocks)
		}
	})
}

// pipe is a partially built pipeline over one or two tables, tracking where
// each bound column currently lives in the batch and where each table's
// hidden row-id column is (-1 if absent).
type pipe struct {
	op  exec.Operator
	pos map[boundRef]int
	rid map[int]int
	// span is the trace span of the pipeline's topmost wrapped operator
	// (nil when tracing is off). Wrapping sites re-parent it under each new
	// span so the rendered trace recovers the plan tree.
	span *obs.Span
}

func (p *pipe) width() int { return len(p.op.Schema()) }

// traceWrap wraps the pipe's current operator in a named span and makes it
// the pipe's top span. No-op (returns nil) when tracing is off.
func (pc *planCtx) traceWrap(p *pipe, name string) *obs.Span {
	if pc.trace == nil {
		return nil
	}
	s := pc.trace.NewSpan(name)
	p.span.SetParent(s)
	p.span = s
	p.op = exec.WithSpan(p.op, s)
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
	if pc.trace == nil {
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
	for _, probe := range pc.probes[mark.probes:] {
		if probe.span == nil {
			probe.span = s
		}
	}
}

// plan builds the physical operator tree for a resolved query, preferring
// the morsel-parallel plan when the query and cache state are eligible.
func (pc *planCtx) plan(r *resolvedQuery) (exec.Operator, error) {
	for _, bt := range r.tables {
		bt.pos = bt.st.positions()
	}
	if pc.workers > 1 {
		mark := pc.trace.Mark()
		savedStats := *pc.stats // slice headers snapshot current lengths
		savedMerges := len(pc.onMerge)
		savedHooks := len(pc.onComplete)
		savedFinish := len(pc.onFinish)
		savedProbes := len(pc.probes)
		op, ok, err := pc.planParallel(r)
		if err != nil {
			return nil, err
		}
		if ok {
			return op, nil
		}
		// The attempt fell back to serial: its spans, stats entries, and
		// completion hooks describe a plan that never runs, so roll them
		// back — and record the structured reason so the fallback is never
		// silent (Explain, Stats, trace, obs event).
		pc.trace.Rewind(mark)
		*pc.stats = savedStats
		pc.onMerge = pc.onMerge[:savedMerges]
		pc.onComplete = pc.onComplete[:savedHooks]
		pc.onFinish = pc.onFinish[:savedFinish]
		pc.probes = pc.probes[:savedProbes]
		if pc.fallbackReason == "" {
			pc.fallbackReason = fallbackInternal
			pc.fallbackDetail = "parallel planner declined without a recorded reason"
		}
		pc.stats.ParallelFallback = pc.fallbackReason
		pc.stats.ParallelFallbackDetail = pc.fallbackDetail
		if pc.trace != nil {
			s := pc.trace.NewSpan("parallel-fallback")
			s.AddAttr("reason", pc.fallbackReason)
			if pc.fallbackDetail != "" {
				s.AddAttr("detail", pc.fallbackDetail)
			}
			now := time.Now()
			s.Window(now, now)
		}
	}
	var p *pipe
	var err error
	switch {
	case r.join == nil && r.tables[0].st.ds != nil:
		p, err = pc.datasetPipe(r, 0)
	case r.join == nil:
		p, err = pc.planSingle(r)
	default:
		p, err = pc.planJoin(r)
	}
	if err != nil {
		return nil, err
	}
	return pc.finish(r, p)
}

// planSingle plans a one-table query. Under StrategyShreds the filters
// cascade: the base scan reads only the first filter column; each further
// filter column is fetched by a late scan right before its predicate; output
// columns are fetched last (one late scan per column, or a single
// multi-column late scan when the option is set).
func (pc *planCtx) planSingle(r *resolvedQuery) (*pipe, error) {
	filterCols, outputCols := r.neededColumns()
	t := 0
	bt := r.tables[t]

	late := pc.strategy == StrategyShreds && pc.lateCapable(bt)
	var baseCols, lateFilterCols, lateOutputCols []int
	if late {
		if len(filterCols[t]) > 0 {
			baseCols = filterCols[t][:1]
			lateFilterCols = filterCols[t][1:]
		}
		lateOutputCols = outputCols[t]
		if len(baseCols) == 0 && len(lateOutputCols) > 0 {
			// No filters: nothing to shred against; read everything early.
			baseCols = lateOutputCols
			lateOutputCols = nil
		}
	} else {
		baseCols = append(append([]int{}, filterCols[t]...), outputCols[t]...)
		sortInts(baseCols)
	}
	needRID := late && (len(lateFilterCols)+len(lateOutputCols) > 0)

	// A query touching no columns at all (unfiltered COUNT(*)) still needs
	// one materialised column: zero-column batches cannot carry a row count.
	if len(baseCols) == 0 && len(lateFilterCols)+len(lateOutputCols) == 0 {
		baseCols = []int{countColumn(bt.st.tab)}
	}

	// Predicates over base columns are candidates for pushdown into the
	// generated scan; whatever the access path cannot absorb comes back as
	// the residual and runs in a Filter above, exactly as before.
	basePreds, latePreds := splitPreds(r.filters[t], baseCols)
	p, residual, err := pc.baseScan(r, t, baseCols, needRID, basePreds)
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
		if len(all) > 0 {
			if err := pc.lateScan(p, r, t, all); err != nil {
				return nil, err
			}
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
func (pc *planCtx) planJoin(r *resolvedQuery) (*pipe, error) {
	filterCols, outputCols := r.neededColumns()
	sides := make([]*pipe, 2)
	lateAfterJoin := make([][]int, 2)
	for t := 0; t < 2; t++ {
		bt := r.tables[t]
		if bt.st.ds != nil {
			// Dataset join sides materialise every needed column early and
			// filter inside the per-partition pipelines (row ids are
			// partition-local, so post-join late scans cannot span the
			// concat).
			p, err := pc.datasetPipe(r, t)
			if err != nil {
				return nil, err
			}
			sides[t] = p
			continue
		}
		canLate := pc.lateCapable(bt)
		place := pc.place
		if pc.strategy != StrategyShreds || !canLate {
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
		p, residual, err := pc.baseScan(r, t, baseCols, needRID, r.filters[t])
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
	join, err := exec.NewHashJoin(left.op, right.op, lk, rk)
	if err != nil {
		return nil, err
	}
	jop, jspan := pc.opSpan(join, "hashjoin", left.span, right.span)
	// Merge layouts: right positions shift by the left width.
	merged := &pipe{op: jop, pos: make(map[boundRef]int), rid: map[int]int{0: -1, 1: -1}, span: jspan}
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

// applyFilter adds a Filter operator for preds (no-op when empty).
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
	f, err := exec.NewFilter(p.op, eps)
	if err != nil {
		return err
	}
	p.op = f
	pc.traceWrap(p, fmt.Sprintf("filter[%d]", len(preds)))
	return nil
}

// baseScan builds the bottom access path for table t and, when tracing,
// wraps it in a span named after the access path the strategy chose, with
// the scan's prune probes attached so runtime counters land on the span.
func (pc *planCtx) baseScan(r *resolvedQuery, t int, cols []int, needRID bool,
	candidates []boundPred) (*pipe, []boundPred, error) {
	mark := pc.markScan()
	p, residual, err := pc.baseScanInner(r, t, cols, needRID, candidates)
	if err != nil {
		return nil, nil, err
	}
	if st := r.tables[t].st; st.tab.Format != catalog.Memory {
		pc.noteScanHeat(st, mark.probes)
	}
	if pc.ctx != nil {
		// Cancellation check under every batch the scan emits: even plans
		// whose upper operators drain their input inside one Next call
		// (aggregates, hash-join builds) then stop within one batch.
		p.op = exec.WithContext(p.op, pc.ctx)
	}
	pc.scanSpan(p, mark)
	return p, residual, nil
}

// baseScanInner builds the bottom access path for table t materialising cols
// (sorted), optionally emitting the hidden row-id column, and registers the
// resulting layout. candidates are the predicates on cols; the access path
// absorbs what it can (JIT strategies) and returns the rest as the residual
// the caller must still filter.
func (pc *planCtx) baseScanInner(r *resolvedQuery, t int, cols []int, needRID bool,
	candidates []boundPred) (*pipe, []boundPred, error) {
	bt := r.tables[t]
	st := bt.st
	tab := st.tab
	bs := pc.e.cfg.BatchSize

	p := &pipe{pos: make(map[boundRef]int), rid: map[int]int{t: -1}}
	layout := func(order []int, ridIdx int) {
		for i, c := range order {
			p.pos[boundRef{t, c}] = i
		}
		p.rid[t] = ridIdx
	}

	// Memory tables (staged results) are strategy-independent.
	if tab.Format == catalog.Memory {
		schema := make(vector.Schema, len(cols))
		vecs := make([]*vector.Vector, len(cols))
		for i, c := range cols {
			schema[i] = vector.Col{Name: tab.Schema[c].Name, Type: tab.Schema[c].Type}
			vecs[i] = st.loaded[c]
		}
		ms, err := exec.NewMemScan(schema, vecs, bs)
		if err != nil {
			return nil, nil, err
		}
		p.op = ms
		layout(cols, -1)
		pc.pathf("memory:scan(%s)", tab.Name)
		return p, candidates, nil
	}

	switch pc.strategy {
	case StrategyDBMS:
		if err := pc.e.ensureLoaded(st, pc.stats); err != nil {
			return nil, nil, err
		}
		schema := make(vector.Schema, len(cols))
		vecs := make([]*vector.Vector, len(cols))
		for i, c := range cols {
			schema[i] = vector.Col{Name: tab.Schema[c].Name, Type: tab.Schema[c].Type}
			vecs[i] = st.loaded[c]
		}
		ms, err := exec.NewMemScan(schema, vecs, bs)
		if err != nil {
			return nil, nil, err
		}
		p.op = ms
		layout(cols, -1)
		pc.pathf("dbms:memscan(%s)", tab.Name)
		return p, candidates, nil

	case StrategyExternal:
		pp, err := pc.baseScanGeneric(p, bt, scanExternal, cols, layout)
		return pp, candidates, err

	case StrategyInSitu:
		pp, err := pc.baseScanGeneric(p, bt, scanGeneric, cols, layout)
		return pp, candidates, err

	case StrategyJIT, StrategyShreds:
		return pc.baseScanJIT(p, r, t, cols, needRID, candidates, layout)
	}
	return nil, nil, fmt.Errorf("engine: unknown strategy %d", pc.strategy)
}

// rawScan says what one read of a table's raw file must deliver.
type rawScan struct {
	bt   *boundTable
	kind scanKind
	cols []int // columns to materialise, sorted
	// pushable are the predicates on cols the scans may absorb; skip are all
	// the predicates a zone map may exclude row ranges by (in a serial plan
	// that includes those on cached columns appended above the scan).
	pushable, skip []boundPred
	emitRID        bool // whole-table scans only
}

// rawScans builds one scan per span over a table's raw file — the serial
// plans pass wholeTable, the morsel planner the plug-in's split — through the
// access path a the plug-in described, plus the completion hook that
// publishes what the scans built on the side. It is the one place that
// arbitrates between pushdown and capture, applies zone maps, attaches
// synopsis builders, charges the template cache, labels the path and tees
// full columns into the shred pool, for every format and both planners.
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
		skip = synSkip(st.synopsis(), rs.skip)
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
		if pc.synCovered(st, synObs) {
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
		if ps, ok := op.(interface{ PushStats() (int64, int64) }); ok {
			pc.pushStats(ps.PushStats)
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
		pc.noteStructHit(tab.Name, a.structure, 1)
	}
	pc.notePush(tab.Name, len(absorbed), skip != nil)
	if generated {
		spec := st.src.spec(tab, rs.bt.pos, a.mode, rs.cols)
		spec.EmitRID = rs.emitRID
		if len(absorbed) > 0 {
			spec.Preds = push
		}
		pc.ensureTemplate(spec)
	}
	if len(caps) > 0 {
		pc.noteShredCapture(tab, rs.cols)
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
				pc.emitCaptured(a.structure, tab, bytes)
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
				st.setSynopsis(syn)
				pc.emitCaptured("synopsis", tab, syn.MemoryFootprint())
			}
		}
		pc.publishCaptures(tab, rs.cols, caps)
		return nil
	}, absorbed, pruned, nil
}

// baseScanGeneric builds a baseline's whole-file scan — the NoDB-style
// in-situ scan or the external table: nothing pushed down, nothing captured.
func (pc *planCtx) baseScanGeneric(p *pipe, bt *boundTable, kind scanKind, cols []int,
	layout func([]int, int)) (*pipe, error) {
	rs := rawScan{bt: bt, kind: kind, cols: cols}
	a, err := bt.st.src.access(bt.st.tab, bt.pos, cols, kind)
	if err != nil {
		return nil, err
	}
	parts, done, _, _, err := pc.rawScans(rs, a, []span{wholeTable})
	if err != nil {
		return nil, err
	}
	pc.deferMerge(done)
	p.op = parts[0]
	layout(cols, -1)
	return p, nil
}

// baseScanJIT builds the JIT access path, serving columns from the shred
// pool where possible and capturing file-read columns into it. Candidate
// predicates on uncached columns are pushed into the generated scan
// (conversion-time checks, vectorized selection, zone-map skipping); the
// returned residual holds whatever must still run in a Filter above.
func (pc *planCtx) baseScanJIT(p *pipe, r *resolvedQuery, t int, cols []int, needRID bool,
	candidates []boundPred, layout func([]int, int)) (*pipe, []boundPred, error) {
	st := r.tables[t].st
	tab := st.tab
	bs := pc.e.cfg.BatchSize

	var cached, uncached []int
	var cachedShreds []*shred.Shred
	for _, c := range cols {
		var s *shred.Shred
		if pc.useCache {
			s = pc.e.shreds.LookupFull(shred.Key{Table: tab.Name, Col: c})
		}
		if s != nil {
			cached = append(cached, c)
			cachedShreds = append(cachedShreds, s)
		} else {
			uncached = append(uncached, c)
		}
	}
	pc.stats.ShredHits += len(cached)
	pc.noteStructHit(tab.Name, "shred", len(cached))

	// Everything cached: stream from the pool, no raw access at all.
	// Predicates on the cached columns are still absorbed — the shred scan
	// evaluates them vectorized and emits selection-vector batches.
	if len(uncached) == 0 && len(cached) > 0 {
		names := make([]string, len(cached))
		slotOf := make(map[int]int, len(cached))
		for i, c := range cached {
			names[i] = tab.Schema[c].Name
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
		sc, err := shred.NewScanPred(cachedShreds, names, needRID, bs, preds)
		if err != nil {
			return nil, nil, err
		}
		p.op = sc
		order := append([]int{}, cached...)
		ridIdx := -1
		if needRID {
			ridIdx = len(cached)
		}
		layout(order, ridIdx)
		pc.pathf("shred:scan(%s)", tab.Name)
		if len(preds) > 0 {
			pc.notePush(tab.Name, len(preds), false)
			pc.pushStats(func() (int64, int64) { return sc.RowsPruned(), 0 })
		}
		return p, residual, nil
	}

	// Read uncached columns from the raw file with a generated access path,
	// which may absorb the candidates on them; predicates on cached
	// (late-appended) columns always stay in the Filter above. If cached
	// columns must be appended, the scan emits row ids for the (sequential)
	// shred late-scan doing the appending.
	pushable, rest := splitPreds(candidates, uncached)
	emitRID := needRID || len(cached) > 0
	a, err := st.src.access(tab, r.tables[t].pos, uncached, scanGenerated)
	if err != nil {
		return nil, nil, err
	}
	parts, done, absorbed, pruned, err := pc.rawScans(rawScan{bt: r.tables[t], kind: scanGenerated,
		cols: uncached, pushable: pushable, skip: candidates, emitRID: emitRID}, a, []span{wholeTable})
	if err != nil {
		return nil, nil, err
	}
	pc.deferMerge(done)
	op := parts[0]
	residual := candidates
	if len(absorbed) > 0 {
		residual = rest
	}
	order := append([]int{}, uncached...)
	ridIdx := -1
	if emitRID {
		ridIdx = len(uncached)
	}

	// rawScans captured the columns of an unpruned scan in full. A pruned
	// scan's output is NOT a full column: capture it keyed by row ids instead
	// (requires the rid column), or not at all.
	if pruned && emitRID && pc.captureActive() {
		specs := make([]shred.CaptureSpec, len(uncached))
		for i, c := range uncached {
			specs[i] = shred.CaptureSpec{Key: shred.Key{Table: tab.Name, Col: c}, ColIdx: i, RIDIdx: ridIdx}
		}
		cap, err := shred.NewCapture(op, pc.e.shreds, specs)
		if err != nil {
			return nil, nil, err
		}
		op = cap
		pc.noteShredCapture(tab, uncached)
	}

	// Append cached columns via their row ids.
	if len(cached) > 0 {
		names := make([]string, len(cached))
		for i, c := range cached {
			names[i] = tab.Schema[c].Name
		}
		ls, err := shred.NewLateScan(op, ridIdx, cachedShreds, names)
		if err != nil {
			return nil, nil, err
		}
		op = ls
		order = append(order, cached...)
		// Layout: cached columns sit after uncached+rid.
		p.op = ls
		for i, c := range uncached {
			p.pos[boundRef{t, c}] = i
		}
		base := len(uncached)
		if emitRID {
			base++
		}
		for i, c := range cached {
			p.pos[boundRef{t, c}] = base + i
		}
		p.rid[t] = ridIdx
		pc.pathf("shred:append(%s)", tab.Name)
		return p, residual, nil
	}

	p.op = op
	layout(order, ridIdx)
	return p, residual, nil
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

// lateScanInner appends the given columns of table t to the pipeline via a
// column-shred access path, preferring cached shreds over raw access, and
// captures newly read shreds into the pool.
func (pc *planCtx) lateScanInner(p *pipe, r *resolvedQuery, t int, cols []int) error {
	st := r.tables[t].st
	tab := st.tab
	ridIdx := p.rid[t]
	if ridIdx < 0 {
		return fmt.Errorf("engine: internal: late scan without row ids for table %q", tab.Name)
	}
	var fromCache []int
	var cachedShreds []*shred.Shred
	var fromFile []int
	for _, c := range cols {
		var s *shred.Shred
		if pc.useCache {
			s = pc.e.shreds.LookupAny(shred.Key{Table: tab.Name, Col: c})
		}
		if s != nil {
			fromCache = append(fromCache, c)
			cachedShreds = append(cachedShreds, s)
		} else {
			fromFile = append(fromFile, c)
		}
	}
	pc.stats.ShredHits += len(fromCache)
	pc.noteStructHit(tab.Name, "shred", len(fromCache))

	if len(fromCache) > 0 {
		names := make([]string, len(fromCache))
		for i, c := range fromCache {
			names[i] = tab.Schema[c].Name
		}
		ls, err := shred.NewLateScan(p.op, ridIdx, cachedShreds, names)
		if err != nil {
			return err
		}
		base := p.width()
		p.op = ls
		for i, c := range fromCache {
			p.pos[boundRef{t, c}] = base + i
		}
		pc.pathf("shred:late(%s)", shredKeys(tab.Name, fromCache))
	}
	if len(fromFile) == 0 {
		return nil
	}

	pos := r.tables[t].pos
	ls, err := st.src.late(p.op, tab, pos, fromFile, ridIdx)
	if err != nil {
		return err
	}
	lateSpec := st.src.spec(tab, pos, jit.Late, fromFile)
	lateSpec.EmitRID = true
	pc.ensureTemplate(lateSpec)
	pc.pathf("jit:late(%s)", shredKeys(tab.Name, fromFile))

	// NewCSVLateScan sorts its columns; recover the output order.
	sorted := append([]int{}, fromFile...)
	sortInts(sorted)
	base := p.width()
	p.op = ls
	for i, c := range sorted {
		p.pos[boundRef{t, c}] = base + i
	}

	// Capture the shreds (partial columns keyed by row id).
	if pc.capture && pc.useCache && !pc.e.cfg.DisableShredCache {
		specs := make([]shred.CaptureSpec, len(sorted))
		for i, c := range sorted {
			specs[i] = shred.CaptureSpec{
				Key:    shred.Key{Table: tab.Name, Col: c},
				ColIdx: base + i,
				RIDIdx: ridIdx,
			}
		}
		cap, err := shred.NewCapture(p.op, pc.e.shreds, specs)
		if err != nil {
			return err
		}
		p.op = cap
		pc.noteShredCapture(tab, sorted)
	}
	return nil
}

// finish adds aggregation/grouping, HAVING filters and the final projection.
func (pc *planCtx) finish(r *resolvedQuery, p *pipe) (exec.Operator, error) {
	hasAgg := false
	for _, it := range r.items {
		if it.isAgg {
			hasAgg = true
			break
		}
	}
	if !hasAgg && len(r.groupBy) == 0 && len(r.having) == 0 {
		// Plain projection.
		idxs := make([]int, len(r.items))
		names := make([]string, len(r.items))
		for i, it := range r.items {
			pos, ok := p.pos[it.ref]
			if !ok {
				return nil, fmt.Errorf("engine: internal: output column %q not materialised", it.name)
			}
			idxs[i] = pos
			names[i] = it.name
		}
		pr, err := exec.NewProject(p.op, idxs, names)
		if err != nil {
			return nil, err
		}
		op, _ := pc.opSpan(pr, "project", p.span)
		return op, nil
	}

	groupIdx := make([]int, len(r.groupBy))
	for i, g := range r.groupBy {
		pos, ok := p.pos[g]
		if !ok {
			return nil, fmt.Errorf("engine: internal: group column not materialised")
		}
		groupIdx[i] = pos
	}
	var specs []exec.AggSpec
	// addSpec registers an aggregate (deduplicating identical ones) and
	// returns its position in the Aggregate output.
	addSpec := func(it boundItem) (int, error) {
		col := -1
		if !it.star {
			pos, ok := p.pos[it.ref]
			if !ok {
				return 0, fmt.Errorf("engine: internal: aggregate input %q not materialised", it.name)
			}
			col = pos
		}
		for si, s := range specs {
			if s.Func == it.agg && s.Col == col {
				return len(r.groupBy) + si, nil
			}
		}
		specs = append(specs, exec.AggSpec{Func: it.agg, Col: col, As: it.name})
		return len(r.groupBy) + len(specs) - 1, nil
	}

	aggOut := make([]int, len(r.items)) // result position per item
	for i, it := range r.items {
		if !it.isAgg {
			// Bare group column: position within the Aggregate output is its
			// index in groupBy.
			for gi, g := range r.groupBy {
				if g == it.ref {
					aggOut[i] = gi
				}
			}
			continue
		}
		pos, err := addSpec(it)
		if err != nil {
			return nil, err
		}
		aggOut[i] = pos
	}
	// HAVING aggregates may add hidden specs.
	havingPos := make([]int, len(r.having))
	for i, h := range r.having {
		pos, err := addSpec(h.item)
		if err != nil {
			return nil, err
		}
		havingPos[i] = pos
	}
	if len(specs) == 0 {
		// Bare GROUP BY projection (SELECT g FROM t GROUP BY g): stage a
		// hidden COUNT so the aggregate has a spec; the projection drops it.
		if _, err := addSpec(boundItem{agg: exec.Count, isAgg: true, star: true, name: "#rows"}); err != nil {
			return nil, err
		}
	}
	agg, err := exec.NewAggregate(p.op, specs, groupIdx)
	if err != nil {
		return nil, err
	}
	out, top := pc.opSpan(agg,
		fmt.Sprintf("aggregate[groups=%d aggs=%d]", len(groupIdx), len(specs)), p.span)
	if len(r.having) > 0 {
		preds := make([]exec.Pred, len(r.having))
		for i, h := range r.having {
			preds[i] = exec.Pred{Col: havingPos[i], Op: h.op, I64: h.i64, F64: h.f64}
		}
		f, err := exec.NewFilter(out, preds)
		if err != nil {
			return nil, err
		}
		out, top = pc.opSpan(f, fmt.Sprintf("having[%d]", len(preds)), top)
	}
	// Re-order to the SELECT list.
	names := make([]string, len(r.items))
	for i, it := range r.items {
		names[i] = it.name
	}
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

func (pc *planCtx) pathf(format string, args ...any) {
	pc.stats.AccessPaths = append(pc.stats.AccessPaths, fmt.Sprintf(format, args...))
}

func shredKeys(table string, cols []int) string {
	s := table + ".cols"
	for _, c := range cols {
		s += fmt.Sprintf("%d,", c)
	}
	return s
}

// ensureLoaded materialises every column of a table in memory (the DBMS
// baseline's loading step), charged to the first query that touches it.
func (e *Engine) ensureLoaded(st *tableState, stats *Stats) error {
	if st.loaded != nil {
		return nil
	}
	cols, err := loadAll(st)
	if err != nil {
		return err
	}
	st.loaded = cols
	if len(cols) > 0 {
		st.nrows = int64(cols[0].Len())
	}
	stats.LoadedTables = append(stats.LoadedTables, st.tab.Name)
	return nil
}
