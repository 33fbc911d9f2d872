package engine

import (
	"strings"

	"rawdb/internal/obs"
)

// Workload-heat accumulation. Each query gathers one obs.HeatDelta per
// table it touches, entirely in planCtx-local state, and run folds the
// deltas into the engine's Heat registry once at query end — the same
// fold-at-end discipline foldStats uses, so execution hot loops never
// touch shared profiler state.
//
// What planning decides (structure hits, bytes a pruned partition avoided) is
// added as the plan is built; what only the run can tell (a scan's bytes read
// and pruned) by an onFinish hook. Structure builds are folded from
// emitCaptured, which only runs for published structures.

// heatDelta returns the query's heat delta for a table, splitting a
// partition-namespaced name ("parent#partID") to its parent so dataset
// heat aggregates per logical table.
func (pc *planCtx) heatDelta(table string) *obs.HeatDelta {
	if i := strings.IndexByte(table, '#'); i >= 0 {
		table = table[:i]
	}
	if pc.heat == nil {
		pc.heat = make(map[string]*obs.HeatDelta, 2)
	}
	d, ok := pc.heat[table]
	if !ok {
		d = &obs.HeatDelta{}
		pc.heat[table] = d
	}
	return d
}

// noteStructHit records n serves of a cached structure for a table.
func (pc *planCtx) noteStructHit(table, structure string, n int) {
	if n > 0 {
		pc.heatDelta(table).Hit(structure, int64(n))
	}
}

// noteAvoidedHeat records bytes a pruning decision avoided reading
// (partition pruning knows exact manifest file sizes).
func (pc *planCtx) noteAvoidedHeat(table string, bytes int64) {
	if bytes > 0 {
		pc.heatDelta(table).BytesAvoided += bytes
	}
}

// noteScanHeat records one raw scan of a table state: the scan itself, the
// estimated raw bytes it covers, and — through the prune probes the scan
// site registered between probeMark and now — the bytes pushdown and zone
// maps avoided (rows pruned × estimated bytes per row). Probe closures
// read cumulative scan counters, so re-reading them at finish time is safe
// alongside pushStats' own hooks.
func (pc *planCtx) noteScanHeat(st *tableState, probeMark int) {
	probes := pc.probes[probeMark:len(pc.probes):len(pc.probes)]
	pc.onFinish = append(pc.onFinish, func() {
		d := pc.heatDelta(st.tab.Name)
		d.Scans++
		raw := heatBytes(st)
		d.BytesRead += raw
		if raw <= 0 || st.nrows <= 0 {
			return
		}
		rowBytes := float64(raw) / float64(st.nrows)
		var pruned int64
		for _, p := range probes {
			rows, _ := p.f()
			pruned += rows
		}
		avoided := int64(float64(pruned) * rowBytes)
		d.BytesAvoided += avoided
		d.BytesRead -= avoided // the scan never touched the avoided bytes
		if d.BytesRead < 0 {
			d.BytesRead = 0
		}
	})
}

// heatBytes is the raw bytes backing a table state: the plug-in's resident
// size, zero for formats the engine reads through a library reader (ROOT) or
// that have no raw backing (memory tables). An estimate is fine — heat
// steers structure-building economics, it is not an accounting ledger.
func heatBytes(st *tableState) int64 {
	if st.src == nil {
		return 0
	}
	bytes, _ := st.src.stat()
	return bytes
}

// foldHeat folds the query's accumulated heat deltas into the engine
// registry, adding the per-column read/filter counts from the resolved
// query (known statically, so they need no hooks). Called once per run
// attempt, after the onFinish hooks ran.
func (e *Engine) foldHeat(r *resolvedQuery, pc *planCtx) {
	for ti, bt := range r.tables {
		d := pc.heatDelta(bt.st.tab.Name)
		schema := bt.st.tab.Schema
		colName := func(ref boundRef) string {
			if ref.table != ti || ref.col < 0 || ref.col >= len(schema) {
				return ""
			}
			return schema[ref.col].Name
		}
		for _, it := range r.items {
			if it.star {
				continue
			}
			if n := colName(it.ref); n != "" {
				d.Read(n, 1)
			}
		}
		for _, g := range r.groupBy {
			if n := colName(g); n != "" {
				d.Read(n, 1)
			}
		}
		if ti < len(r.filters) {
			for _, p := range r.filters[ti] {
				if p.col >= 0 && p.col < len(schema) {
					d.Filter(schema[p.col].Name, 1)
				}
			}
		}
	}
	for table, d := range pc.heat {
		e.heat.Fold(table, d)
	}
	pc.heat = nil // a replanned attempt folds its own fresh deltas
}
