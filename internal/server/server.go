// Package server multiplexes concurrent sessions over one shared raw engine.
//
// The engine already serialises what must be serialised (plan and publish
// phases hold per-table query locks; execution runs unlocked so read-only
// queries overlap — see internal/engine/query.go). The server's job is the
// rest of the story: admission control so a burst of sessions degrades into
// fast rejections instead of memory exhaustion, per-query deadlines and
// cancellation propagated through context, and two wire protocols (HTTP/JSON
// and a newline-delimited line protocol) that both round-trip results
// bit-exactly.
package server

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rawdb"
)

// ErrOverloaded is returned (and mapped to HTTP 429) when a query cannot be
// admitted: every execution slot is busy and the wait queue is full or the
// queue wait timed out. Clients should back off and retry.
var ErrOverloaded = errors.New("server: overloaded, try again later")

// Options bounds the server's concurrency. Zero values select defaults.
type Options struct {
	// MaxConcurrent is the number of queries allowed to execute at once
	// (default 8). Everything above it queues.
	MaxConcurrent int
	// MaxQueue is the number of queries allowed to wait for a slot (default
	// 64). Arrivals beyond it are rejected immediately with ErrOverloaded.
	MaxQueue int
	// QueueTimeout bounds how long an admitted-to-queue query waits for a
	// slot before being rejected with ErrOverloaded (default 5s).
	QueueTimeout time.Duration
	// QueryTimeout, when positive, is a per-query deadline applied on top of
	// whatever deadline the client requested (0 means no server-side limit).
	QueryTimeout time.Duration
	// MemoryDegrade and MemoryReject are the memory governor's pressure
	// thresholds, as fractions of the engine's configured cache budget
	// (Config.CacheBudget). When the budget's projected occupancy — current
	// bytes plus an estimate of what the query could capture — crosses
	// MemoryDegrade, the query is admitted in no-capture mode: it reuses
	// every cached structure but builds nothing new. Past MemoryReject, it
	// is refused with ErrOverloaded (HTTP 429). Zero values select 0.75 and
	// 1.5; the governor is inert when Config.CacheBudget is unset.
	MemoryDegrade float64
	MemoryReject  float64
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 8
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 5 * time.Second
	}
	if o.MemoryDegrade <= 0 {
		o.MemoryDegrade = 0.75
	}
	if o.MemoryReject <= 0 {
		o.MemoryReject = 1.5
	}
	return o
}

// Server owns the admission controller in front of one shared engine. It is
// safe for concurrent use; every listener (HTTP, line protocol, in-process
// callers) funnels through Execute.
type Server struct {
	eng  *raw.Engine
	opts Options
	sem  chan struct{} // execution slots; buffered to MaxConcurrent

	queued     atomic.Int64 // queries waiting for a slot
	active     atomic.Int64 // queries holding a slot
	rejections atomic.Int64 // admissions refused (queue full or wait timeout)
	degraded   atomic.Int64 // queries admitted in no-capture mode
	memReject  atomic.Int64 // admissions refused by the memory governor
}

// New builds a Server over an already-populated engine. The engine stays
// owned by the caller (Close it after shutting the listeners down); several
// servers over one engine are allowed but share nothing but the engine's own
// locks. Admission gauges and the per-query latency histogram are registered
// on the engine's metrics registry, so one /metrics snapshot covers both the
// engine and the server in front of it.
func New(eng *raw.Engine, opts Options) *Server {
	s := &Server{eng: eng, opts: opts.withDefaults()}
	s.sem = make(chan struct{}, s.opts.MaxConcurrent)
	m := eng.Metrics()
	m.Gauge("server.active", s.active.Load)
	m.Gauge("server.queue", s.queued.Load)
	m.Gauge("server.rejections", s.rejections.Load)
	m.Gauge("server.degraded", s.degraded.Load)
	m.Gauge("server.mem_rejections", s.memReject.Load)
	return s
}

// Engine exposes the shared engine (for /metrics handlers and tests).
func (s *Server) Engine() *raw.Engine { return s.eng }

// Execute admits, runs, and accounts one query. The context carries the
// caller's cancellation (an HTTP disconnect, a client deadline); the server's
// own QueryTimeout is layered on top. Cancellation reaches the scan loops
// between batches, so an abandoned query stops within one batch of work and
// releases its table locks without publishing any cache structure.
func (s *Server) Execute(ctx context.Context, query string) (*raw.Result, error) {
	return s.ExecuteOpt(ctx, query, raw.Options{})
}

// ExecuteOpt is Execute with per-query option overrides (the wire protocols
// use it to honour a request's workers field).
func (s *Server) ExecuteOpt(ctx context.Context, query string, opts raw.Options) (*raw.Result, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	s.active.Add(1)
	defer func() {
		s.active.Add(-1)
		<-s.sem
	}()
	if s.opts.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.QueryTimeout)
		defer cancel()
	}
	if err := s.govern(query, &opts); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := s.eng.QueryOptCtx(ctx, query, opts)
	s.eng.Metrics().ObserveSince("server.query.ns", start)
	return res, err
}

// govern is the memory governor's admission check, running after a slot is
// held (so the estimate sees the freshest budget state). With no configured
// budget the governor stays out of the way: the operator set no bound to
// govern against, and the engine's default 256 MiB budget evicts on its own.
// Under a configured budget, projected occupancy (live bytes + the query's estimated capture, as a
// fraction of capacity) picks one of three rungs: admit normally, admit in
// no-capture mode, or reject. Degraded queries still answer correctly and
// still reuse every cached structure; they just leave nothing new behind —
// load shedding that costs future latency, never availability.
func (s *Server) govern(query string, opts *raw.Options) error {
	used, capacity := s.eng.CacheBudgetUsage()
	if capacity <= 0 {
		return nil
	}
	projected := float64(used+s.eng.EstimateQueryBytes(query)) / float64(capacity)
	if projected >= s.opts.MemoryReject {
		s.memReject.Add(1)
		s.rejections.Add(1)
		return fmt.Errorf("%w (projected cache occupancy %.0f%% over budget)",
			ErrOverloaded, projected*100)
	}
	if projected >= s.opts.MemoryDegrade && (opts.NoCapture == nil || !*opts.NoCapture) {
		nc := true
		opts.NoCapture = &nc
		s.degraded.Add(1)
		s.eng.Metrics().Counter("server.degraded.count").Inc()
	}
	return nil
}

// acquire takes an execution slot: immediately if one is free, else by
// joining the bounded wait queue. A full queue or an expired queue wait is an
// ErrOverloaded rejection — the overload signal the paper's server setting
// needs so memory stays bounded when sessions outnumber slots.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.opts.MaxQueue) {
		s.queued.Add(-1)
		s.rejections.Add(1)
		return ErrOverloaded
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.opts.QueueTimeout)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-timer.C:
		s.rejections.Add(1)
		return ErrOverloaded
	case <-ctx.Done():
		return fmt.Errorf("server: query abandoned while queued: %w", ctx.Err())
	}
}
