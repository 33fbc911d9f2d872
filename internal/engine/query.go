package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"

	"rawdb/internal/exec"
	"rawdb/internal/obs"
	"rawdb/internal/sql"
)

// planOpts is the fully resolved per-query planning configuration: every
// Config default with the per-query Options overrides applied. One struct —
// produced only by resolveOptions — so Query, Explain, and the server always
// resolve the same fields the same way.
type planOpts struct {
	strategy Strategy
	place    JoinPlacement
	multi    bool
	workers  int  // morsel-parallel worker count; <= 1 plans serially
	pushdown bool // absorb eligible predicates into generated access paths
	zonemaps bool // build and consult per-block min/max synopses
	// capture: this query may build and publish new adaptive structures
	// (positional maps, structural indexes, synopses, shreds). The memory
	// governor clears it under pressure (see Options.NoCapture): everything
	// cached is still reused, the query just leaves no new resident state.
	capture bool
}

// resolveOptions merges per-query Options over the engine Config. It is the
// single resolution point shared by QueryOpt and Explain (through newRecord).
func resolveOptions(cfg Config, opts Options) planOpts {
	po := planOpts{
		strategy: cfg.Strategy,
		place:    cfg.JoinPlacement,
		multi:    cfg.MultiColumnShreds,
		workers:  cfg.Parallelism,
		pushdown: !cfg.DisablePushdown,
		zonemaps: !cfg.DisableZoneMaps,
		capture:  true,
	}
	override(&po.strategy, opts.Strategy)
	override(&po.place, opts.JoinPlacement)
	override(&po.multi, opts.MultiColumnShreds)
	override(&po.workers, opts.Parallelism)
	override(&po.pushdown, opts.Pushdown)
	override(&po.zonemaps, opts.ZoneMaps)
	if opts.NoCapture != nil {
		po.capture = !*opts.NoCapture
	}
	return po
}

// override sets *dst to the option's value when the option is set.
func override[T any](dst, opt *T) {
	if opt != nil {
		*dst = *opt
	}
}

// Query parses, plans and executes one SQL statement with the engine's
// default options.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryOptCtx(context.Background(), src, Options{})
}

// QueryOpt executes one SQL statement with per-query option overrides.
func (e *Engine) QueryOpt(src string, opts Options) (*Result, error) {
	return e.QueryOptCtx(context.Background(), src, opts)
}

// QueryCtx is Query with a cancellation context: when ctx is cancelled or its
// deadline passes, the running plan is abandoned within one batch of work
// (scans and exchange workers check between batches), no cache structure is
// published, and the table locks and any budget bytes the query would have
// claimed are released. The returned error wraps ctx.Err().
func (e *Engine) QueryCtx(ctx context.Context, src string) (*Result, error) {
	return e.QueryOptCtx(ctx, src, Options{})
}

// QueryOptCtx is QueryCtx with per-query option overrides.
func (e *Engine) QueryOptCtx(ctx context.Context, src string, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Every query is listed in flight with its own cancel function, so
	// CancelQuery(id) reaches it through the same context path caller
	// cancellation uses.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rec := e.beginQuery(src, opts, cancel)
	defer e.inflight.remove(rec.id)

	rec.enter(phaseParse)
	q, err := sql.Parse(src)
	var r *resolvedQuery
	var res *Result
	if err == nil {
		rec.enter(phaseAnalyze)
		r, err = e.analyze(q)
	}
	if err == nil {
		res, err = e.run(ctx, rec, r)
		var pl *partLostError
		if errors.As(err, &pl) {
			// A dataset partition vanished or changed between manifest
			// refresh and load, or a mapped file under the query. Retry
			// exactly once: the rerun's refresh reconciles first, so the
			// query either answers against the new state or fails with a
			// plain error (never a torn snapshot).
			e.metrics.Counter("query.partition_retries").Inc()
			rec.event(obs.EventRetry, "partition", pl.part, 0,
				"replan after partition lost: "+pl.err.Error())
			rec.span("replan: partition lost").End()
			res, err = e.run(ctx, rec, r)
		}
	}
	rec.enter(phaseDone)
	if res != nil {
		res.Stats = rec.stats
	}
	if ql := e.cfg.QueryLog; ql != nil {
		ql.Emit(rec.logLine(r, err))
	}
	return res, err
}

// run executes one attempt at a resolved query through the engine's three
// lock phases (DESIGN.md, "The three-phase query lifecycle"):
//
//  1. plan (locks held): datasets are refreshed and the plan is built against
//     a consistent snapshot of the per-table caches; whatever the query
//     builds stays private to it.
//  2. execute (locks released): operators touch only state that is immutable
//     after planning or internally locked, so read-only queries over the same
//     table overlap.
//  3. publish (locks re-acquired): on success the onMerge hooks, then the
//     tees' shred publication install what the query built and vault
//     write-backs are scheduled;
//     on failure, a mapped file changed under the query included, nothing is
//     installed. The record folds the attempt either way.
//
// The result's Stats are the record's, filled in once the query ended.
func (e *Engine) run(ctx context.Context, rec *queryRecord, r *resolvedQuery) (res *Result, err error) {
	pc := rec.attempt(ctx)
	defer pc.images.Release()
	// Panic containment for the serial path (the exchange recovers its own
	// workers): a bug in a generated access path or operator fails this one
	// query instead of the process, as does (retryably) a fault on a file
	// truncated under its mapping. Declared before the lock defer, so
	// unwinding releases the table locks first; the publication hooks below
	// never ran, so no partial structure survives the panic.
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, pc.recovered(p, r)
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	locks := lockTables(r)
	locks.lock()
	held := true
	defer func() {
		if held {
			locks.unlock()
		}
	}()
	// Incremental discovery: datasets re-stat their directories under the
	// query locks, so newly-arrived files join this query and rewritten or
	// truncated ones are invalidated per partition before planning reads any
	// cached structure. Refresh swaps in fresh partition states; a query
	// already executing against the old ones keeps its snapshot.
	if err := e.refreshDatasets(rec, r); err != nil {
		return nil, err
	}
	rec.enter(phasePlan)
	op, err := pc.plan(r)
	if err != nil {
		return nil, fmt.Errorf("engine: planning %s: %w", r.describe(), err)
	}
	if reason := rec.stats.ParallelFallback; reason != "" {
		rec.event(obs.EventFallback, "planner", r.tables[0].st.tab.Name, 0, reason)
	}

	held = false
	locks.unlock()
	rec.enter(phaseExec)
	cols, err := collectSerial(ctx, op, &rec.rows)
	locks.lock()
	held = true
	rec.enter(phasePublish)

	// Publication phase (locks re-acquired). A mapped file changed under the
	// query fails it; so does a failed merge hook, like an execution error.
	if lost := pc.lost(err); lost != nil {
		err = lost
	}
	if err == nil {
		for _, m := range pc.onMerge {
			if err = m(); err != nil {
				break
			}
		}
	}
	if err != nil {
		// Deterministic error path: nothing is installed or written back,
		// but the attempt's runtime counters still fold.
		var pe *exec.PanicError
		if errors.As(err, &pe) {
			rec.panicked("worker", r, err.Error())
		}
		rec.fold(r, err)
		return nil, err
	}
	pc.publishTees()
	res = &Result{cols: cols}
	for _, c := range op.Schema() {
		res.Columns = append(res.Columns, c.Name)
		res.Types = append(res.Types, c.Type)
	}
	rec.stats.RowsOut = res.NumRows()
	rec.stats.Elapsed = rec.stats.PhasePlan + rec.stats.PhaseExec
	rec.fold(r, nil)
	// Refresh unified-budget accounting and schedule vault write-backs for
	// structures this query built or grew (locks still held: the encodes
	// snapshot consistent state; only disk I/O happens asynchronously).
	sp := rec.span("vault-publish")
	e.vaultUpdate(locks)
	sp.End()
	return res, nil
}

// tableLocks holds the per-table query locks of one query in their canonical
// acquisition order, so the engine can release them for the execution phase
// and re-acquire them for publication.
type tableLocks []*tableState

// lockTables collects the distinct tables of a query in name order (a
// deterministic order prevents deadlock between concurrent multi-table
// queries). The locks are NOT acquired yet; call lock.
func lockTables(r *resolvedQuery) tableLocks {
	states := make(tableLocks, len(r.tables))
	for i, bt := range r.tables {
		states[i] = bt.st
	}
	// A table named twice (a self-join) is one state, sorted next to itself.
	sort.Slice(states, func(i, j int) bool { return states[i].tab.Name < states[j].tab.Name })
	return slices.Compact(states)
}

func (l tableLocks) lock() {
	for _, st := range l {
		st.qmu.Lock()
	}
}

func (l tableLocks) unlock() {
	for i := len(l) - 1; i >= 0; i-- {
		l[i].qmu.Unlock()
	}
}

// open maps a plain table's file for the plan, and holds it. A file its caches
// or its mapping no longer describe is mapped anew, and then fingerprinted.
func (pc *planCtx) open(st *tableState) error {
	if st.dropped {
		return fmt.Errorf("engine: unknown table %q (dropped)", st.tab.Name)
	}
	if st.src == nil || st.tab.Path == "" {
		return nil // caller-owned bytes; memory tables and datasets own none
	}
	if err := pc.e.loadWithRetry(st, pc.id); err != nil {
		return err
	}
	im := st.src.rawFile()
	if im != nil && (im.Identity() != st.ident || im.Changed()) {
		pc.e.dropState(pc.id, st, "file-changed")
		resetStateCaches(st)
		if err := pc.e.loadWithRetry(st, pc.id); err != nil {
			return err
		}
		im = st.src.rawFile()
		st.ident = im.Identity()
		pc.e.vaultLoad(st)
	}
	pc.images.Hold(st.tab.Name, im)
	return nil
}

// lost is the retryable error of an attempt whose mapped file changed under
// it (rawfile.Held.Lost), nil when none did.
func (pc *planCtx) lost(fault any) error {
	if name := pc.images.Lost(fault); name != "" {
		return &partLostError{part: name, err: errors.New("file changed under its mapping")}
	}
	return nil
}

// recovered is a panic's error: a lost file, or a contained panic, counted.
func (pc *planCtx) recovered(p any, r *resolvedQuery) error {
	if err := pc.lost(p); err != nil {
		return err
	}
	pc.panicked("query", r, fmt.Sprintf("%v", p))
	return fmt.Errorf("engine: query panicked: %v", p)
}

// Explain returns a human-readable description of the physical plan the
// engine would choose for src under the current caches and options, without
// executing it.
func (e *Engine) Explain(src string, opts Options) (out string, err error) {
	q, err := sql.Parse(src)
	if err != nil {
		return "", err
	}
	r, err := e.analyze(q)
	if err != nil {
		return "", err
	}
	// Planning reads per-table cache state (and loads columns for the DBMS
	// strategy), so Explain serialises with the plan phase of queries over
	// the same tables. It does not refresh datasets: the plan describes the
	// manifest as currently known. The deferred install hooks are dropped —
	// describing a plan must not publish the structures it would build.
	rec := e.newRecord(opts)
	pc := rec.newPlanCtx(context.Background())
	defer pc.images.Release()
	defer func() {
		if p := recover(); p != nil {
			out, err = "", pc.recovered(p, r)
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	locks := lockTables(r)
	locks.lock()
	defer locks.unlock()
	sp := rec.span("plan")
	op, err := pc.plan(r)
	sp.End()
	if err != nil {
		return "", err
	}
	stats := &rec.stats
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s\n", rec.opts.strategy)
	fmt.Fprintf(&b, "output:  ")
	for i, c := range op.Schema() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteString("\naccess paths:\n")
	for _, ap := range stats.AccessPaths {
		fmt.Fprintf(&b, "  - %s\n", ap)
	}
	if stats.PredsPushed > 0 {
		fmt.Fprintf(&b, "pushdown: %d predicate(s) absorbed by generated scans\n", stats.PredsPushed)
	}
	if stats.MorselsSkipped > 0 {
		fmt.Fprintf(&b, "zone maps: %d morsel(s) excluded before dispatch\n", stats.MorselsSkipped)
	}
	if stats.PartitionsScanned > 0 || stats.PartitionsSkipped > 0 {
		fmt.Fprintf(&b, "partitions: %d scanned, %d pruned without opening their files\n",
			stats.PartitionsScanned, stats.PartitionsSkipped)
	}
	if stats.ParallelFallback != "" {
		fmt.Fprintf(&b, "parallel fallback: %s (%s)\n",
			stats.ParallelFallback, stats.ParallelFallbackDetail)
	}
	return b.String(), nil
}
