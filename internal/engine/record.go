package engine

import (
	"context"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rawdb/internal/catalog"
	"rawdb/internal/obs"
	"rawdb/internal/shred"
	"rawdb/internal/synopsis"
)

// One query record, many views. Everything a query does is written once, into
// its queryRecord: QueryOptCtx and run enter its phases on one clock, plan
// sites record access paths, counters, structure hits, raw scans and their
// prune probes, publication records what was captured. Stats, the query-log
// line, the registry fold, the heat fold and the /debug/queries entry are all
// derived from it, so no two of them can disagree. What one run of the plan
// did (Stats, heat, the registry fold) starts afresh when a partition-lost
// replan runs it again; what the query did (its ID, phase, rows drained, the
// log line) spans every attempt.

// queryPhase is the lifecycle position of a query, in the order it passes
// through them.
type queryPhase int32

const (
	phaseAdmitted queryPhase = iota
	phaseParse
	phaseAnalyze
	phaseRefresh // the table locks and the dataset manifest refresh
	phasePlan
	phaseExec
	phasePublish
	phaseDone
)

// phaseNames are what the views call each phase: the in-flight entry, the
// trace span the phase opens, and the query-log key ("" where a view has
// none).
var phaseNames = [...]struct{ live, span, log string }{
	phaseAdmitted: {"admitted", "", ""},
	phaseParse:    {"parse", "parse", "parse"},
	phaseAnalyze:  {"analyze", "analyze", "analyze"},
	phaseRefresh:  {"plan", "manifest-refresh", ""},
	phasePlan:     {"plan", "plan", "plan"},
	phaseExec:     {"execute", "execute", "exec"},
	phasePublish:  {"publish", "", "publish"},
	phaseDone:     {"publish", "", ""},
}

// phase is the Stats field a phase's duration closes into (nil: none).
func (s *Stats) phase(p queryPhase) *time.Duration {
	return [...]*time.Duration{phaseParse: &s.PhaseParse, phaseAnalyze: &s.PhaseAnalyze,
		phaseRefresh: &s.ManifestRefresh, phasePlan: &s.PhasePlan, phaseExec: &s.PhaseExec,
		phasePublish: &s.PhasePublish, phaseDone: nil}[p]
}

// queryRecord is the account of one query (see the top of this file). The
// driving goroutine writes it; Inflight reads only the fields set before the
// record is listed and the two atomics.
type queryRecord struct {
	e     *Engine
	opts  planOpts
	trace *obs.Trace // nil: untraced, the plan wraps no operator in a span

	id     int64
	sql    string
	start  time.Time
	cancel context.CancelFunc
	phase  atomic.Int32 // the queryPhase shown in flight
	rows   atomic.Int64 // result rows drained so far

	// The clock: the open phase, since when, and its trace span; last is the
	// phase that was open when the query ended.
	cur   queryPhase
	since time.Time
	open  *obs.Span
	last  queryPhase

	// The current attempt.
	stats  Stats
	heat   map[string]*obs.HeatDelta // per table, partitions folded to the parent
	probes []pruneProbe
	scans  []scanHeat
}

// pruneProbe reads one scan's runtime prune counters when its attempt folds,
// and closes its zone-map test, or with fill set the rows a late scan read
// from the raw file for the partial shreds it completed. span is the scan's
// trace span, assigned once the scan site wraps it.
type pruneProbe struct {
	scan         pushStats
	fill         *shred.LateFill
	zone         *synopsis.Test // closed, adding its counts to its synopsis
	span         *obs.Span
	rows, blocks int64 // as read by fold
}

// pushStats is a scan that counts the rows and batch ranges it pruned.
type pushStats interface {
	PushStats() (rowsPruned, blocksSkipped int64)
}

// scanHeat is one scan of a table state; probes[first:end] are its own.
type scanHeat struct {
	st         *tableState
	first, end int
}

// newRecord is the record Explain plans with; queries open theirs with
// beginQuery.
func (e *Engine) newRecord(opts Options) *queryRecord {
	return &queryRecord{e: e, opts: resolveOptions(e.cfg, opts), trace: opts.Trace}
}

// beginQuery opens the record of one query and lists it in flight. The
// engine assigns the ID, and arms a trace when the slow-query log needs one
// and the caller passed none: the log line embeds the rendered span tree.
func (e *Engine) beginQuery(src string, opts Options, cancel context.CancelFunc) *queryRecord {
	r := e.newRecord(opts)
	r.id, r.sql, r.cancel = e.queryID.Add(1), src, cancel
	if r.trace == nil && e.cfg.QueryLog != nil && e.cfg.SlowQueryMillis > 0 {
		r.trace = obs.NewTrace()
	}
	r.trace.SetQueryID(r.id)
	r.start = time.Now()
	e.inflight.add(r)
	return r
}

// enter moves the query into phase p on one clock reading: the open phase
// closes into the attempt's Stats and its trace span ends there, p's span
// opens (its window is set when it closes), and the in-flight entry shows p.
func (r *queryRecord) enter(p queryPhase) {
	now := time.Now()
	if d := r.stats.phase(r.cur); d != nil {
		*d = now.Sub(r.since)
	}
	r.open.Window(r.since, now)
	r.open = nil
	if name := phaseNames[p].span; name != "" {
		r.open = r.trace.NewSpan(name)
	}
	if p == phaseDone {
		r.last = r.cur
	}
	r.cur, r.since = p, now
	r.phase.Store(int32(p))
}

// attempt starts one run of the query's plan and returns its planning
// context. Entering the refresh phase first closes the previous attempt's
// last phase into that attempt's Stats; only then do the per-attempt facts
// start afresh.
func (r *queryRecord) attempt(ctx context.Context) *planCtx {
	r.enter(phaseRefresh)
	r.stats = Stats{Strategy: r.opts.strategy, QueryID: r.id,
		PhaseParse: r.stats.PhaseParse, PhaseAnalyze: r.stats.PhaseAnalyze}
	r.heat, r.probes, r.scans = nil, nil, nil
	return r.newPlanCtx(ctx)
}

// newPlanCtx is the planning context over the record, for run and Explain.
func (r *queryRecord) newPlanCtx(ctx context.Context) *planCtx {
	return &planCtx{planOpts: r.opts, queryRecord: r, ctx: ctx, useCache: !r.e.cfg.DisableShredCache}
}

// span opens a root trace span that is not a phase (replan markers, the
// vault publish, the parallel fallback); End closes it. nil when untraced.
func (r *queryRecord) span(name string) *obs.Span { return r.trace.Phase(name) }

// event emits a lifecycle event the query raised, stamped with its ID so it
// joins against the query log and the trace.
func (r *queryRecord) event(kind obs.EventKind, structure, table string, bytes int64, reason string) {
	r.e.emitEvent(r.id, kind, structure, table, bytes, reason)
}

// panicked counts a contained panic and reports it against the query's first
// table.
func (r *queryRecord) panicked(where string, q *resolvedQuery, msg string) {
	r.e.metrics.Counter("query.panics").Inc()
	table := ""
	if len(q.tables) > 0 {
		table = q.tables[0].st.tab.Name
	}
	r.event(obs.EventPanicRecovered, where, table, 0, msg)
}

// captured records a structure the query built and published: a captured
// event and a build in the table's heat. Publication hooks call it, so only
// builds that were installed are counted.
func (r *queryRecord) captured(structure string, tab *catalog.Table, bytes int64) {
	r.event(obs.EventCaptured, structure, tab.Name, bytes, "scan")
	r.heatDelta(tab.Name).Build(structure, 1)
}

// hit records n serves of a cached structure in the table's heat; shred
// serves are also Stats.ShredHits, the columns served from the pool.
func (r *queryRecord) hit(table, structure string, n int) {
	if n <= 0 {
		return
	}
	if structure == "shred" {
		r.stats.ShredHits += n
	}
	r.heatDelta(table).Hit(structure, int64(n))
}

// heatDelta returns the attempt's heat delta for a table, splitting a
// partition-namespaced name ("parent#partID") to its parent so dataset heat
// aggregates per logical table.
func (r *queryRecord) heatDelta(table string) *obs.HeatDelta {
	if i := strings.IndexByte(table, '#'); i >= 0 {
		table = table[:i]
	}
	if r.heat == nil {
		r.heat = make(map[string]*obs.HeatDelta, 2)
	}
	d, ok := r.heat[table]
	if !ok {
		d = &obs.HeatDelta{}
		r.heat[table] = d
	}
	return d
}

// fold ends an attempt whose plan executed, on success (after the structures
// were installed) and on failure alike. Each probe is read once: its counts
// feed the Stats prune counters, its scan's span and the bytes its scan
// avoided. The heat fold follows — one raw scan per scanHeat, the per-column
// reads and filters of the resolved query — then the registry fold: the
// scan-side work always, the success-only series on success, the error count
// on failure.
func (r *queryRecord) fold(q *resolvedQuery, err error) {
	s := &r.stats
	var filled int64
	for i := range r.probes {
		p := &r.probes[i]
		if p.zone != nil {
			p.zone.Close()
		}
		if p.fill != nil {
			if n := p.fill.Filled; n > 0 {
				filled += n
				p.span.AddAttrInt("filled", n)
			}
			continue
		}
		if p.scan == nil {
			continue
		}
		p.rows, p.blocks = p.scan.PushStats()
		s.RowsPruned += p.rows
		s.BlocksSkipped += p.blocks
		if p.span != nil && (p.rows > 0 || p.blocks > 0) {
			p.span.AddAttrInt("rows_pruned", p.rows)
			p.span.AddAttrInt("blocks_skipped", p.blocks)
		}
	}
	for _, sc := range r.scans {
		// A scan reads the plug-in's resident size: an estimate, and heat
		// needs no more.
		d := r.heatDelta(sc.st.tab.Name)
		d.Scans++
		raw, _ := sc.st.src.stat()
		d.BytesRead += raw
		if raw <= 0 || sc.st.nrows <= 0 {
			continue
		}
		rowBytes := float64(raw) / float64(sc.st.nrows)
		var pruned int64
		for _, p := range r.probes[sc.first:sc.end] {
			pruned += p.rows
		}
		// The scan never touched the bytes of the rows it pruned.
		avoided := int64(float64(pruned) * rowBytes)
		d.BytesAvoided += avoided
		d.BytesRead = max(d.BytesRead-avoided, 0)
	}
	for ti, bt := range q.tables {
		d := r.heatDelta(bt.st.tab.Name)
		schema := bt.st.tab.Schema
		read := func(ref boundRef) {
			if ref.table == ti && ref.col >= 0 && ref.col < len(schema) {
				d.Read(schema[ref.col].Name, 1)
			}
		}
		for _, it := range q.items {
			if !it.star {
				read(it.ref)
			}
		}
		for _, g := range q.groupBy {
			read(g)
		}
		for _, p := range q.filters[ti] {
			if p.col >= 0 && p.col < len(schema) {
				d.Filter(schema[p.col].Name, 1)
			}
		}
	}
	for table, d := range r.heat {
		r.e.heat.Fold(table, d)
	}

	m := r.e.metrics
	if err != nil {
		m.Counter("query.errors").Inc()
	} else {
		m.Counter("query.count").Inc()
		m.Histogram("query.ns").Observe(s.Elapsed.Nanoseconds())
		m.Counter("query.rows_out").Add(int64(s.RowsOut))
		m.Counter("shred.serves").Add(int64(s.ShredHits))
		if s.ManifestRefresh > 0 {
			m.Counter("manifest.refresh.count").Inc()
			m.Histogram("manifest.refresh.ns").Observe(s.ManifestRefresh.Nanoseconds())
		}
	}
	m.Counter("push.preds").Add(int64(s.PredsPushed))
	m.Counter("prune.rows").Add(s.RowsPruned)
	m.Counter("shred.fill.rows").Add(filled)
	m.Counter("prune.blocks").Add(s.BlocksSkipped)
	m.Counter("prune.morsels").Add(int64(s.MorselsSkipped))
	m.Counter("prune.partitions").Add(int64(s.PartitionsSkipped))
	m.Counter("scan.partitions").Add(int64(s.PartitionsScanned))
}

// logLine is the query-log view of an ended query (q is nil when it never
// resolved): the query's own facts, and what its last attempt did whether it
// succeeded or failed. Elapsed runs on the phase clock, so the phases sum to
// at most it.
func (r *queryRecord) logLine(q *resolvedQuery, err error) *obs.QueryRecord {
	s := &r.stats
	elapsed := r.since.Sub(r.start)
	line := &obs.QueryRecord{ID: r.id, Time: r.since.UTC().Format(time.RFC3339Nano),
		SQLHash: obs.HashSQL(r.sql), SQL: obs.TruncateSQL(r.sql), Rows: s.RowsOut,
		ElapsedNS: elapsed.Nanoseconds(), PhaseNS: make(map[string]int64, 5),
		AccessPaths: s.AccessPaths, Workers: r.opts.workers, PredsPushed: s.PredsPushed,
		RowsPruned: s.RowsPruned, BlocksSkip: s.BlocksSkipped, MorselsSkip: int64(s.MorselsSkipped),
		PartsSkip: s.PartitionsSkipped, Fallback: s.ParallelFallback, NoCapture: !r.opts.capture}
	if q != nil {
		for _, bt := range q.tables {
			if name := bt.st.tab.Name; !slices.Contains(line.Tables, name) {
				line.Tables = append(line.Tables, name)
			}
		}
	}
	for p := phaseParse; p <= r.last; p++ {
		if name := phaseNames[p].log; name != "" {
			line.PhaseNS[name] = s.phase(p).Nanoseconds()
		}
	}
	if err != nil {
		line.Error = err.Error()
	}
	if ms := r.e.cfg.SlowQueryMillis; ms > 0 && elapsed >= time.Duration(ms)*time.Millisecond {
		line.SlowTrace = r.trace.Render()
	}
	return line
}

// The in-flight view. Every query's record is listed between admission and
// completion, so a running server can answer "what is executing right now"
// (GET /debug/queries) and cancel a runaway statement by ID without owning
// its context. Listing is two small mutexed map operations per query; during
// execution the record costs one atomic add per batch for the row counter
// and one atomic store per phase change — far below any scan's per-batch work.

// inflightSet is the engine's registry of running queries.
type inflightSet struct {
	mu sync.Mutex
	m  map[int64]*queryRecord
}

func (s *inflightSet) add(q *queryRecord) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[int64]*queryRecord)
	}
	s.m[q.id] = q
	s.mu.Unlock()
}

func (s *inflightSet) remove(id int64) {
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// InflightQuery describes one currently executing query.
type InflightQuery struct {
	ID      int64     `json:"id"`
	SQL     string    `json:"sql"`
	Phase   string    `json:"phase"`
	Start   time.Time `json:"start"`
	Rows    int64     `json:"rows"`
	Workers int       `json:"workers"`
}

// Inflight returns a snapshot of the queries currently executing, ordered
// by query ID.
func (e *Engine) Inflight() []InflightQuery {
	e.inflight.mu.Lock()
	out := make([]InflightQuery, 0, len(e.inflight.m))
	for _, q := range e.inflight.m {
		out = append(out, InflightQuery{ID: q.id, SQL: q.sql, Phase: phaseNames[q.phase.Load()].live,
			Start: q.start, Rows: q.rows.Load(), Workers: q.opts.workers})
	}
	e.inflight.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CancelQuery cancels the in-flight query with the given ID through the
// same context path QueryCtx cancellation uses (the drain stops within one
// batch). It reports whether a query with that ID was running.
func (e *Engine) CancelQuery(id int64) bool {
	e.inflight.mu.Lock()
	q := e.inflight.m[id]
	e.inflight.mu.Unlock()
	if q != nil {
		q.cancel()
	}
	return q != nil
}
