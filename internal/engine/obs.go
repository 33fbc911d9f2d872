package engine

import (
	"strings"

	"rawdb/internal/faults"
	"rawdb/internal/obs"
)

// This file wires the engine into the observability layer (package obs):
// the engine-wide metrics registry (pull-mode gauges over the caches) and the
// adaptive-structure lifecycle event log. What one query did — its Stats,
// trace phases, log line, and registry and heat folds — is its query record
// (record.go).

// Metrics exposes the engine's metrics registry. Counters are cumulative
// over the engine's lifetime; gauges reflect cache state at snapshot time.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// EventLog exposes the lifecycle event log (a bounded ring of the most
// recent adaptive-structure transitions).
func (e *Engine) EventLog() *obs.EventLog { return e.events }

// RecentEvents returns the buffered lifecycle events, oldest first.
func (e *Engine) RecentEvents() []obs.Event { return e.events.Recent() }

// Heat exposes the engine's workload-heat profiler (per-table scan, byte
// and structure-effectiveness counters, folded once per query).
func (e *Engine) Heat() *obs.Heat { return e.heat }

// initObs builds the registry and event log and registers the engine-level
// gauges. Called once from New, before the engine is shared.
func (e *Engine) initObs() {
	e.metrics = obs.NewRegistry()
	e.events = obs.NewEventLog(0, e.cfg.OnEvent)
	e.heat = obs.NewHeat()

	// Relay fault-injection firings into the event log, so a chaos run's
	// -events output shows each injected failure next to the degradation it
	// triggered. The observer is process-global (the fault schedule is too);
	// the engine created last wins, which is fine — schedules are installed
	// by one test or one rawql invocation at a time.
	faults.SetObserver(func(site string, kind string) {
		e.metrics.Counter("faults.fired").Inc()
		e.events.Emit(obs.Event{Kind: obs.EventFault, Structure: kind, Table: site,
			Reason: "injected"})
	})

	m := e.metrics
	obs.RegisterRuntimeGauges(m)
	m.Describe("shred.fill.rows", "rows a partial column shred lacked that a late scan read from the raw file")
	m.Describe("posmap.bytes", "encoded bytes of positional maps (chunked offsets), charged to the cache budget")
	m.Describe("jsonidx.bytes", "encoded bytes of structural indexes (chunked offsets), charged to the cache budget")
	m.Gauge("jit.cache.entries", func() int64 { return int64(e.templates.Len()) })
	m.Gauge("jit.cache.bytes", func() int64 { return e.templates.SizeBytes() })
	m.Gauge("shred.pool.count", func() int64 { return int64(e.shreds.Len()) })
	m.Gauge("shred.pool.bytes", func() int64 { return e.shreds.SizeBytes() })
	m.Gauge("shred.lookup.hits", func() int64 { h, _ := e.shreds.Stats(); return h })
	m.Gauge("shred.lookup.misses", func() int64 { _, mi := e.shreds.Stats(); return mi })
	m.Describe("budget.bytes", "bytes charged to the cache budget: positional maps, structural indexes, synopses and column shreds")
	m.Describe("budget.capacity", "the cache budget's bound in bytes (Config.CacheBudget, or 256 MiB when unset)")
	m.Describe("budget.entries", "structures charged to the cache budget: one per cached table structure, one per pooled shred")
	m.Describe("budget.evictions", "structures the cache budget evicted, least recently used first")
	m.Describe("budget.evicted_bytes", "bytes of the structures the cache budget evicted")
	m.Gauge("budget.bytes", func() int64 { return e.budget.SizeBytes() })
	m.Gauge("budget.capacity", func() int64 { return e.budget.CapacityBytes() })
	m.Gauge("budget.entries", func() int64 { return int64(e.budget.Len()) })
	e.budget.SetObserver(e.observeBudgetEviction)

	// Per-structure footprint and effectiveness gauges, summed over every
	// table (and dataset partition) at snapshot time. The sum takes each
	// table's query lock in turn — never while holding e.mu, which would
	// invert the qmu -> e.mu lock order the planner uses.
	for name, f := range map[string]func(positions) int64{
		"posmap.bytes":        func(p positions) int64 { return p.pm.MemoryFootprint() },
		"jsonidx.bytes":       func(p positions) int64 { return p.jidx.MemoryFootprint() },
		"jsonidx.seeks":       func(p positions) int64 { return p.jidx.Seeks() },
		"synopsis.bytes":      func(p positions) int64 { return p.syn.MemoryFootprint() },
		"synopsis.checks":     func(p positions) int64 { c, _ := p.syn.PruneStats(); return c },
		"synopsis.exclusions": func(p positions) int64 { _, h := p.syn.PruneStats(); return h },
	} {
		m.Gauge(name, func() int64 { return e.sumStates(f) })
	}
}

// sumStates folds f over the cached structures of every table state, dataset
// partitions included. Each parent's partition list is read under its query
// lock (the lock that guards refresh swaps); a parent caches nothing itself.
func (e *Engine) sumStates(f func(positions) int64) int64 {
	var total int64
	for _, st := range e.tableStates() {
		total += f(st.positions())
		if st.ds != nil {
			st.qmu.Lock()
			parts := append([]*tableState(nil), st.ds.parts...)
			st.qmu.Unlock()
			for _, ps := range parts {
				total += f(ps.positions())
			}
		}
	}
	return total
}

// emitEvent records one lifecycle event, splitting a partition-namespaced
// table name ("parent#partID") into its parent and partition, and bumps the
// per-kind counter. qid is the query that raised it (0: none), so what a
// query did joins against its query-log line and rendered trace.
func (e *Engine) emitEvent(qid int64, kind obs.EventKind, structure, table string, bytes int64, reason string) {
	parent, part := table, ""
	if i := strings.IndexByte(table, '#'); i >= 0 {
		parent, part = table[:i], table[i+1:]
	}
	e.events.Emit(obs.Event{
		Kind: kind, Structure: structure,
		Table: parent, Partition: part,
		Bytes: bytes, Reason: reason,
		Query: qid,
	})
	e.metrics.Counter("lifecycle." + kind.String()).Inc()
}

// observeBudgetEviction turns a cache-budget eviction into a lifecycle
// event. Budget keys are "<structure>:<table>"; a shred's table is its
// shred.Key ("<table>.col<N>") followed by "#<seq>", and the event names the
// table alone, like the other shred events.
func (e *Engine) observeBudgetEviction(key string, size int64) {
	structure, rest, _ := strings.Cut(key, ":")
	if structure == "shred" {
		if i := strings.LastIndexByte(rest, '#'); i >= 0 {
			rest = rest[:i]
		}
		if i := strings.LastIndex(rest, ".col"); i >= 0 {
			rest = rest[:i]
		}
	}
	e.metrics.Counter("budget.evictions").Inc()
	e.metrics.Counter("budget.evicted_bytes").Add(size)
	e.emitEvent(0, obs.EventEvicted, structure, rest, size, "budget")
}
