package main

import (
	"bufio"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	raw "rawdb"
)

// setupReps is how many times an untraced run repeats the workload's whole
// set-up; setup_s is the median, so one slow set-up does not decide it.
const setupReps = 3

// workload is one named set of inputs and operations.
type workload struct {
	name string
	// ops is the measured operation count at -seconds 12. Frozen: a later
	// commit runs the same operations, so counts made by the engine repeat.
	ops int
	// clients is the number of concurrent closed-loop clients.
	clients int
	// cycle is the number of different operations the one client repeats in
	// order, where the workload is such a cycle; 0 where it is not.
	cycle int
	// setup generates the inputs, registers them and warms the engine to the
	// workload's steady state.
	setup func(e *env) (session, error)
}

func (w *workload) opCount(cfg config) int { return max(int(float64(w.ops)*cfg.ops), 4) }

// session is a workload after set-up.
type session interface {
	// measure issues n operations in a closed loop, recording each.
	measure(n int, rec *recorder) error
	// engine is the engine whose registry describes the run (for the cold
	// workloads, the last operation's).
	engine() *raw.Engine
	// rawBytes is the size of the raw data registered with that engine.
	rawBytes() int64
	// close releases everything set-up created and waits for it.
	close() error
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string { return slices.Sorted(maps.Keys(workloads)) }

// env is what set-up and measurement see of one run.
type env struct {
	cfg  config
	dir  string   // scratch directory, removed when the run ends
	ops  int      // measured operations this pass will issue
	acct *account // nil unless this pass is traced
}

// rows applies the row-count multiplier the smoke tests use; the benchmark
// proper always runs at 1.
func (e *env) rows(n int) int {
	if e.cfg.rows == 1 {
		return n
	}
	return max(int(float64(n)*e.cfg.rows), 64)
}

// opRecord is one measured operation as its client saw it.
type opRecord struct {
	class string
	start time.Time
	d     time.Duration
	ok    bool
}

// recorder collects the measured operations of one pass.
type recorder struct {
	acct *account

	mu           sync.Mutex
	ops          []opRecord
	failed       int
	firstFailure string
	rowsRead     int64 // table rows the operations' queries ranged over
}

func newRecorder(acct *account) *recorder { return &recorder{acct: acct} }

// traceOpts returns the per-query options of this pass: a fresh engine trace
// when the pass is traced.
func (r *recorder) traceOpts() (raw.Options, *raw.Trace) {
	if r.acct == nil {
		return raw.Options{}, nil
	}
	tr := raw.NewTrace()
	return raw.Options{Trace: tr}, tr
}

// record files one finished operation: its class and client-observed time,
// the answer it got against the oracle's, and how many table rows it ranged
// over. It returns the operation's span id in a traced pass.
func (r *recorder) record(class string, start time.Time, d time.Duration, rows int, got, want answer, err error) int {
	ok := err == nil && slices.Equal(got, want)
	r.mu.Lock()
	r.ops = append(r.ops, opRecord{class, start, d, ok})
	r.rowsRead += int64(rows)
	if !ok {
		r.failed++
		if r.firstFailure == "" {
			if err != nil {
				r.firstFailure = fmt.Sprintf("%s: %v", class, err)
			} else {
				r.firstFailure = fmt.Sprintf("%s: got %s want %s", class, clip(got), clip(want))
			}
		}
	}
	r.mu.Unlock()
	return r.acct.op(class, start, d)
}

// recordResult is record for an in-process query, which also hands the
// traced pass the engine's phases and span tree.
func (r *recorder) recordResult(class string, start time.Time, d time.Duration, rows int,
	res *raw.Result, tr *raw.Trace, want answer, err error) {
	var got answer
	if err == nil {
		got = resultAnswer(res)
	}
	id := r.record(class, start, d, rows, got, want, err)
	if r.acct != nil && err == nil {
		r.acct.engine(id, statsPhases(res.Stats), tr.Render())
	}
}

// query runs sql on eng as one operation of class.
func (r *recorder) query(eng *raw.Engine, class, sql string, rows int, want answer) {
	opts, tr := r.traceOpts()
	start := time.Now()
	res, err := eng.QueryOpt(sql, opts)
	r.recordResult(class, start, time.Since(start), rows, res, tr, want, err)
}

func clip(a answer) string {
	s := strings.Join(a, ";")
	if len(s) > 120 {
		s = s[:120] + "..."
	}
	return fmt.Sprintf("[%d rows] %s", len(a), s)
}

// class returns the latencies of one operation class ("" for all).
func (r *recorder) class(name string) durations {
	var out durations
	for _, op := range r.ops {
		if name == "" || op.class == name {
			out = append(out, op.d)
		}
	}
	return out
}

// pass is one set-up plus one measured region.
type pass struct {
	rec      *recorder
	setup    time.Duration
	snap     map[string]int64 // engine registry after the measured region
	snap0    map[string]int64 // and before it
	rawBytes int64
	mem      memDelta
}

// runPass sets the workload up once and measures n operations.
func runPass(e *env, wl *workload) (*pass, error) {
	t0 := time.Now()
	s, err := wl.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	p := &pass{rec: newRecorder(e.acct), setup: time.Since(t0)}
	before := s.engine()
	p.snap0 = before.Metrics().Snapshot()
	resetPeakRSS()
	mem := startMem()
	err = s.measure(e.ops, p.rec)
	p.mem = mem.stop()
	if err == nil {
		if s.engine() != before { // a cold workload: the registry is the last operation's alone
			p.snap0 = nil
		}
		p.snap = s.engine().Metrics().Snapshot()
		p.rawBytes = s.rawBytes()
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	return p, nil
}

// runEndToEnd is the untraced run: set-up repeated setupReps times (the last
// one is measured) and the end-to-end metrics.
func runEndToEnd(cfg config, wl *workload, tmp string) (*report, error) {
	e := &env{cfg: cfg, dir: tmp, ops: wl.opCount(cfg)}
	var setups []float64
	for i := 1; i < setupReps; i++ {
		t0 := time.Now()
		s, err := wl.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	p, err := runPass(e, wl)
	if err != nil {
		return nil, err
	}
	setups = append(setups, p.setup.Seconds())

	rep := p.report()
	m := &rep.metrics
	m.add("setup_s", "s", median(setups), len(setups))
	p.endToEnd(m, wl)
	return rep, nil
}

func (p *pass) report() *report {
	return &report{attempted: len(p.rec.ops), failed: p.rec.failed, firstFailure: p.rec.firstFailure}
}

// add folds another pass's operations into the report.
func (r *report) add(p *pass) {
	r.attempted += len(p.rec.ops)
	r.failed += p.rec.failed
	if r.firstFailure == "" {
		r.firstFailure = p.rec.firstFailure
	}
}

// The sandbox's noise is one-sided and comes in phases: neighbours on the host
// contend for memory bandwidth and slow memory-bound work by 10 to 40 % for
// seconds to tens of seconds at a time. What the run's quiet moments show is
// what the program costs; the run's median and mean say what the neighbours
// were doing.

// quiet summarises the measured operations as a quiet machine would have run
// them: the median and 90th-percentile latency in ms, and the throughput of
// the workload's closed loop.
func (r *recorder) quiet(wl *workload) (p50, p90, qps float64) {
	if wl.cycle > 0 {
		return r.quietCycle(wl.cycle)
	}
	return r.quietest(wl.clients)
}

// quietCycle is quiet for one client repeating a cycle of operations. Every
// repetition of an operation does the same work on the same data, so the
// fastest repetition is what the operation costs, and finding it takes one
// quiet moment per operation, not a quiet stretch of the run. (A stretch of a
// cycle of different queries has a stable median only while most of it is
// quiet: the median sits inside one kind of query and noise moves the cheaper
// kinds past it.) The latencies are quantiles over the cycle's operations at
// that cost, and the throughput is the cycle's length over the sum of the
// costs. Work that only some repetitions do, such as a collection they
// happen to meet, is not in the cost; runtime.* and peak_rss_mb show it.
func (r *recorder) quietCycle(cycle int) (p50, p90, qps float64) {
	cycle = min(cycle, len(r.ops)) // a smoke test may stop inside the first pass
	cost := make([]float64, cycle) // ms, by position in the cycle
	for i, op := range r.ops {     // one client: r.ops is in issue order
		ms := float64(op.d) / float64(time.Millisecond)
		if k := i % cycle; i < cycle || ms < cost[k] {
			cost[k] = ms
		}
	}
	var sum float64
	for _, ms := range cost {
		sum += ms
	}
	return quantile(slices.Clone(cost), 0.5), quantile(cost, 0.9), ratio(float64(cycle), sum/1000)
}

// segments is how many equal parts quietest cuts a measured region into, in
// start order. The operation count is a multiple of it.
const segments = 40

// quietest is quiet for concurrent clients, whose operations repeat in no
// fixed order: latency and throughput are computed per segment and the best
// segment is reported. It returns the median and 90th-percentile latency in
// ms, and the throughput of a closed loop of the given number of clients.
func (r *recorder) quietest(clients int) (p50, p90, qps float64) {
	ops := slices.Clone(r.ops)
	slices.SortStableFunc(ops, func(a, b opRecord) int { return a.start.Compare(b.start) })
	var p50s, p90s, rates []float64
	for i := 0; i < segments; i++ {
		seg := ops[i*len(ops)/segments : (i+1)*len(ops)/segments]
		if len(seg) == 0 {
			continue
		}
		ms := make([]float64, len(seg))
		var busy time.Duration
		correct := 0
		for j, op := range seg {
			ms[j] = float64(op.d) / float64(time.Millisecond)
			busy += op.d
			if op.ok {
				correct++
			}
		}
		p50s = append(p50s, quantile(ms, 0.5))
		p90s = append(p90s, quantile(ms, 0.9))
		// Closed loop: every client always has one operation in flight, so
		// the part's wall time is its summed latency over the client count.
		rates = append(rates, ratio(float64(correct*clients), busy.Seconds()))
	}
	return slices.Min(p50s), slices.Min(p90s), slices.Max(rates)
}

// endToEnd appends what a user of the engine sees, beyond setup_s.
func (p *pass) endToEnd(m *metrics, wl *workload) {
	p50, _, qps := p.rec.quiet(wl)
	m.add("query_ms_p50", "ms", p50, len(p.rec.ops))
	m.add("queries_per_s", "1/s", qps, len(p.rec.ops))
	m.add("peak_rss_mb", "MB", peakRSSMB(), 1)
	m.add("aux_bytes_per_raw_byte", "B/B", ratio(float64(auxBytes(p.snap)), float64(p.rawBytes)), 1)
}

// auxBytes is the memory the adaptation holds: positional maps, structural
// indexes, zone maps and column shreds.
func auxBytes(snap map[string]int64) int64 {
	return snap["posmap.bytes"] + snap["jsonidx.bytes"] + snap["synopsis.bytes"] + snap["shred.pool.bytes"]
}

// resetPeakRSS makes the resident-set high-water mark start again from what
// is live now: the set-up's garbage is collected and its pages are returned,
// then the kernel is asked to forget the mark (writing 5 to clear_refs). Without
// this the mark is reached while the set-up is repeated, by how the collector
// happened to run against three set-ups' garbage, and says nothing about the
// measured region. Where the kernel refuses, the mark stays the process's.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark (VmHWM) since resetPeakRSS:
// what the set-up left live plus what the measured region needed on top.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// memDelta is what the Go runtime did during a measured region.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64 // seconds
}

type memStart struct {
	ms      runtime.MemStats
	samples []rtmetrics.Sample
}

func cpuSamples() []rtmetrics.Sample {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return s
}

func startMem() *memStart {
	m := &memStart{samples: cpuSamples()}
	runtime.ReadMemStats(&m.ms)
	return m
}

func (m *memStart) stop() memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	s := cpuSamples()
	return memDelta{
		allocBytes: after.TotalAlloc - m.ms.TotalAlloc,
		mallocs:    after.Mallocs - m.ms.Mallocs,
		gcCPU:      s[0].Value.Float64() - m.samples[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64() - m.samples[1].Value.Float64(),
	}
}
