package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. Counters are cheap
// enough to bump from any goroutine, but the engine's convention is to fold
// per-query totals in at query end rather than touching them per row: the
// scan inner loops stay instrumentation-free.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations in [2^i, 2^(i+1)) (bucket 0 additionally holds 0 and
// 1). 48 buckets cover nanosecond latencies past three days.
const histBuckets = 48

// Histogram is a fixed power-of-two-bucket histogram (latencies in
// nanoseconds, byte sizes). Observe is one atomic add plus a bit scan; no
// allocation, safe from any goroutine.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

func bucketOf(v int64) int {
	b := 0
	for v > 1 && b < histBuckets-1 {
		v >>= 1
		b++
	}
	return b
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation.
func (h *Histogram) Max() int64 { return h.max.Load() }

// BucketBound returns the inclusive upper edge of bucket i: bucket i counts
// observations in [2^i, 2^(i+1)), so everything it holds is <= 2^(i+1)-1.
func BucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return int64(1)<<uint(histBuckets) - 1
	}
	return int64(1)<<uint(i+1) - 1
}

// Buckets returns the per-bucket observation counts. The load is not atomic
// across buckets: concurrent Observe calls may be partially visible, which
// Prometheus exposition tolerates (each scrape is a point-in-time estimate
// and every individual bucket is monotone).
func (h *Histogram) Buckets() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Quantile returns an upper bound on the q-quantile (the upper edge of the
// bucket the quantile falls in — conservative, never under-reports).
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			upper := int64(1) << uint(i+1)
			if m := h.max.Load(); upper > m {
				upper = m
			}
			return upper
		}
	}
	return h.max.Load()
}

// Registry is the engine-wide metrics registry: named counters, pull-mode
// gauges and histograms. Get-or-create lookups take a mutex and are meant
// for setup paths; hot paths hold the returned *Counter / *Histogram.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() int64
	hists    map[string]*Histogram
	help     map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// Describe sets the HELP text the Prometheus exposition gives the named
// series (by default "rawdb <type> <name>").
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers a pull-mode gauge: fn is evaluated at snapshot time, so a
// gauge costs nothing between snapshots. Re-registering a name replaces it.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// ObserveSince records the elapsed time since start in the named histogram
// (nanoseconds).
func (r *Registry) ObserveSince(name string, start time.Time) {
	r.Histogram(name).Observe(time.Since(start).Nanoseconds())
}

// Snapshot flattens the registry into a name → value map: counters as-is,
// gauges evaluated now, histograms expanded into <name>.count, <name>.sum,
// <name>.p50, <name>.p99 and <name>.max.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]func() int64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	out := make(map[string]int64, len(counters)+len(gauges)+5*len(hists))
	for k, c := range counters {
		out[k] = c.Load()
	}
	for k, fn := range gauges {
		out[k] = fn()
	}
	for k, h := range hists {
		out[k+".count"] = h.Count()
		out[k+".sum"] = h.Sum()
		out[k+".p50"] = h.Quantile(0.50)
		out[k+".p99"] = h.Quantile(0.99)
		out[k+".max"] = h.Max()
	}
	return out
}
