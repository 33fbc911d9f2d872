package main

import (
	"fmt"
	"io"
	"time"
)

// serveLayerOps is the size of the small serve_mixed pass that fills the
// server.* class metrics when another workload is the one being traced.
const serveLayerOps = 2000

// runTraced is the -trace run: the workload once untraced and once traced,
// each at half the operation count, then the layer drivers. It reports every
// per-layer metric and nothing else; the end-to-end numbers come from the
// untraced run, which never pays for any of this.
func runTraced(cfg config, wl *workload, tmp string, w io.Writer) (*report, error) {
	half := max(wl.opCount(cfg)/2, 4)
	// A short discarded pass first: the process's first operations grow the
	// heap and fault its pages in, which would otherwise all be charged to
	// the untraced side of the comparison.
	if _, err := runPass(&env{cfg: cfg, dir: tmp, ops: max(half/10, 4)}, wl); err != nil {
		return nil, err
	}
	plain, err := runPass(&env{cfg: cfg, dir: tmp, ops: half}, wl)
	if err != nil {
		return nil, err
	}
	acct := newAccount()
	traced, err := runPass(&env{cfg: cfg, dir: tmp, ops: half, acct: acct}, wl)
	if err != nil {
		return nil, err
	}
	rep := plain.report()
	rep.add(traced)
	m := &rep.metrics

	ms := plain.rec.class("").in(time.Millisecond)
	plainP50 := quantile(ms, 0.5)
	_, p90, _ := plain.rec.quiet(wl)
	m.add("client.query_ms_p90", "ms", p90, len(ms))
	m.add("client.query_ms_p99", "ms", quantile(ms, 0.99), len(ms))
	m.add("trace.query_ms_p50_delta", "ms", median(traced.rec.class("").in(time.Millisecond))-plainP50, len(ms))
	acct.metrics(m)
	traced.counters(m)
	plain.runtime(m)

	serve := plain
	if wl.name != "serve_mixed" {
		n := max(int(serveLayerOps*cfg.ops), 40)
		if serve, err = runPass(&env{cfg: cfg, dir: tmp, ops: n}, workloads["serve_mixed"]); err != nil {
			return nil, err
		}
		rep.add(serve)
	}
	serve.classes(m)

	if err := runLayers(&env{cfg: cfg, dir: tmp}, m); err != nil {
		return nil, err
	}
	if wl.name == "cold_csv" {
		// How much of the cold query the sequential emitter's own number
		// explains: predicted scan time over measured execute time.
		seq, _ := m.get("jit.csv_seq_ns_per_row")
		exec, _ := m.get("engine.exec_share")
		fmt.Fprintf(w, "# jit.csv_seq_ns_per_row x rows / (query_ms_p50 x engine.exec_share) = %.3f\n",
			ratio(seq.value*float64(coldCSVRows)*cfg.rows/1e6, plainP50*exec.value))
	}
	if err := acct.writeChrome(tracePath(cfg)); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# %d spans written to %s\n", len(acct.spans), tracePath(cfg))
	return rep, nil
}

// metrics reports what the engine said about the traced queries.
func (a *account) metrics(m *metrics) {
	total := a.sum.parse + a.sum.analyze + a.sum.plan + a.sum.exec + a.sum.publish
	m.add("engine.frontend_us_p50", "us", median(a.frontend.in(time.Microsecond)), len(a.frontend))
	m.add("engine.plan_share", "share", ratio(float64(a.sum.plan), float64(total)), len(a.frontend))
	m.add("engine.exec_share", "share", ratio(float64(a.sum.exec), float64(total)), len(a.frontend))
	m.add("engine.publish_us_p50", "us", median(a.publishes.in(time.Microsecond)), len(a.publishes))
	for _, cat := range []string{"scan", "filter", "aggregate", "join", "exchange", "morsel"} {
		m.add("engine.span."+cat+"_self_share", "share", ratio(float64(a.self[cat]), float64(a.sum.exec)), len(a.frontend))
	}
}

// counters reports ratios of the engine registry's counts over the measured
// region. With one client they repeat exactly from run to run.
func (p *pass) counters(m *metrics) {
	delta := func(name string) float64 { return float64(p.snap[name] - p.snap0[name]) }
	share := func(hit, miss float64) float64 { return ratio(hit, hit+miss) }
	n := len(p.rec.ops)
	m.add("jit.template_hit_share", "share", share(delta("jit.template.hits"), delta("jit.template.misses")), n)
	m.add("shred.hit_share", "share", share(delta("shred.lookup.hits"), delta("shred.lookup.misses")), n)
	m.add("shred.evictions_per_kq", "count", ratio(1000*delta("budget.evictions"), float64(n)), n)
	m.add("synopsis.skip_share", "share", ratio(delta("synopsis.exclusions"), delta("synopsis.checks")), n)
}

// runtime reports what the Go runtime did during the untraced pass.
func (p *pass) runtime(m *metrics) {
	n := len(p.rec.ops)
	m.add("runtime.alloc_bytes_per_row", "B", ratio(float64(p.mem.allocBytes), float64(p.rec.rowsRead)), n)
	m.add("runtime.mallocs_per_query", "count", ratio(float64(p.mem.mallocs), float64(n)), n)
	m.add("runtime.gc_cpu_share", "share", ratio(p.mem.gcCPU, p.mem.totalCPU), n)
}

// classes reports a serve_mixed pass by operation class.
func (p *pass) classes(m *metrics) {
	for _, c := range []struct{ metric, class string }{
		{"server.hot_ms_p50", "hot"}, {"server.rows_ms_p50", "rows"},
		{"server.dataset_ms_p50", "logs"}, {"server.arrival_ms_p50", "arrival"},
	} {
		d := p.rec.class(c.class)
		m.add(c.metric, "ms", median(d.in(time.Millisecond)), len(d))
	}
	m.add("server.rejected_share", "share",
		ratio(float64(p.snap["server.rejections"]-p.snap0["server.rejections"]), float64(len(p.rec.ops))), len(p.rec.ops))
}
