// Package obs is the engine's observability layer: per-query traces
// (operator- and phase-level spans), an engine-wide metrics registry and
// adaptive-structure lifecycle events.
//
// The package is deliberately dependency-free (standard library only) so
// every layer of the engine — exec operators, the planner, the vault, the
// shred pool — can import it without cycles.
//
// Tracing follows a strict zero-cost-when-off contract: a query without a
// Trace attached plans exactly the operator tree it plans today (span
// wrapping happens at plan time and only when a trace is present), so the
// hot scan loops carry no instrumentation at all on the disabled path.
// When enabled, the per-span cost is one clock read and a handful of plain
// field updates per batch — bounded, and measured by BenchmarkTraceOverhead.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Attr is one key/value annotation on a span (prune counts, cache outcomes,
// byte sizes — whatever the producing site wants the analyze view to show).
type Attr struct {
	Key string
	Val string
}

// Span is one timed region of a query: an operator's lifetime (scan, filter,
// join, aggregate, exchange) or an engine phase (parse, plan, manifest
// refresh, vault publish, JIT compile).
//
// A span is created by one goroutine at plan time and subsequently updated
// by exactly one goroutine (the one driving the wrapped operator), so its
// mutable fields need no atomics; the Trace serialises span creation itself.
type Span struct {
	id     int
	parent int // -1 at the root
	name   string
	lane   int // chrome://tracing row; 0 = the query's own timeline

	start time.Time // zero until the operator opens
	end   time.Time // zero until it closes

	busy    time.Duration // time spent inside Next calls
	rows    int64         // rows emitted (selection-vector aware)
	batches int64

	attrs []Attr

	tr *Trace
}

// ID returns the span's identifier within its trace.
func (s *Span) ID() int { return s.id }

// Name returns the span's label.
func (s *Span) Name() string { return s.name }

// Rows returns the number of rows the wrapped operator emitted.
func (s *Span) Rows() int64 { return s.rows }

// Batches returns the number of non-empty batches observed.
func (s *Span) Batches() int64 { return s.batches }

// Busy returns the accumulated time inside the operator's Next calls.
func (s *Span) Busy() time.Duration { return s.busy }

// Attrs returns the span's annotations.
func (s *Span) Attrs() []Attr { return s.attrs }

// SetParent re-parents the span. The planner builds pipelines bottom-up, so
// an operator's span exists before the span of the operator placed above it;
// the wrapping site re-parents the previous pipeline top under the new span
// to recover the plan tree.
func (s *Span) SetParent(p *Span) {
	if s == nil || p == nil {
		return
	}
	s.parent = p.id
}

// SetLane assigns the chrome://tracing row (morsel spans use one row per
// morsel so concurrent work renders side by side).
func (s *Span) SetLane(lane int) {
	if s == nil {
		return
	}
	s.lane = lane
}

// AddAttr appends an annotation.
func (s *Span) AddAttr(key, val string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
}

// AddAttrInt appends an integer annotation.
func (s *Span) AddAttrInt(key string, val int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: fmt.Sprintf("%d", val)})
}

// Opened records the operator's open time (first call wins: a replayed or
// re-opened operator keeps its original start).
func (s *Span) Opened() {
	if s == nil {
		return
	}
	if s.start.IsZero() {
		s.start = time.Now()
	}
}

// Closed records the operator's close time.
func (s *Span) Closed() {
	if s == nil {
		return
	}
	s.end = time.Now()
}

// Observe accounts one Next call: its duration and the rows it produced.
func (s *Span) Observe(d time.Duration, rows int) {
	if s == nil {
		return
	}
	s.busy += d
	if rows > 0 {
		s.rows += int64(rows)
		s.batches++
	}
}

// End closes a phase span (alias of Closed, reads better at call sites).
func (s *Span) End() { s.Closed() }

// Window records an explicit wall-clock interval, for work measured outside
// the operator pull loop (e.g. a query's publication after its last batch).
func (s *Span) Window(start, end time.Time) {
	if s == nil {
		return
	}
	s.start, s.end = start, end
}

// wall returns the span's wall-clock extent, falling back to busy time for
// spans that never closed (operator error paths).
func (s *Span) wall() time.Duration {
	if !s.start.IsZero() && !s.end.IsZero() {
		return s.end.Sub(s.start)
	}
	return s.busy
}

// Trace collects the spans of one query. Create one with NewTrace, pass it
// via the engine's per-query Options, then render (Render), export
// (WriteChrome) or inspect (Spans) after the query returns.
type Trace struct {
	epoch   time.Time
	queryID int64
	spans   []*Span
}

// NewTrace returns an empty trace whose epoch is now.
func NewTrace() *Trace {
	return &Trace{epoch: time.Now()}
}

// SetQueryID stamps the trace with the engine-assigned query ID, so a
// rendered span tree can be joined against query-log lines and events.
func (t *Trace) SetQueryID(id int64) {
	if t == nil {
		return
	}
	t.queryID = id
}

// QueryID returns the engine-assigned query ID (0 before the query runs).
func (t *Trace) QueryID() int64 {
	if t == nil {
		return 0
	}
	return t.queryID
}

// NewSpan creates a root-parented span. Safe on a nil trace (returns nil,
// and every Span method is nil-safe), which is what makes call sites
// branch-free: the planner only pays for spans it actually creates.
func (t *Trace) NewSpan(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{id: len(t.spans), parent: -1, name: name, tr: t}
	t.spans = append(t.spans, s)
	return s
}

// Phase creates a span and opens it immediately (engine phases: parse,
// analyze, plan, execute, manifest refresh, vault publish).
func (t *Trace) Phase(name string) *Span {
	s := t.NewSpan(name)
	s.Opened()
	return s
}

// Spans returns the trace's spans in creation order.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Find returns the first span with the given name, or nil.
func (t *Trace) Find(name string) *Span {
	if t == nil {
		return nil
	}
	for _, s := range t.spans {
		if s.name == name {
			return s
		}
	}
	return nil
}

// Render formats the trace as an EXPLAIN ANALYZE-style annotated tree:
// phases and operators indented by plan position, each line carrying wall
// time, busy time, row and batch counts, and any attributes.
func (t *Trace) Render() string {
	if t == nil || len(t.spans) == 0 {
		return ""
	}
	children := make(map[int][]*Span)
	var roots []*Span
	for _, s := range t.spans {
		if s.parent < 0 {
			roots = append(roots, s)
		} else {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var b strings.Builder
	if t.queryID != 0 {
		fmt.Fprintf(&b, "query=%d\n", t.queryID)
	}
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.name)
		fmt.Fprintf(&b, "  time=%s", fmtDur(s.wall()))
		if s.busy > 0 && s.busy != s.wall() {
			fmt.Fprintf(&b, " busy=%s", fmtDur(s.busy))
		}
		if s.batches > 0 {
			fmt.Fprintf(&b, " rows=%d batches=%d", s.rows, s.batches)
		}
		for _, a := range s.attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Val)
		}
		b.WriteByte('\n')
		for _, c := range children[s.id] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// chromeEvent is one chrome://tracing "complete" event (the JSON Array
// Format, loadable by chrome://tracing and Perfetto).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds since trace epoch
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome exports the trace in the chrome://tracing JSON array format.
// Spans that never opened (operators planned but not executed) are skipped;
// spans that never closed use their busy time as the duration.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]")
		return err
	}
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.start.IsZero() {
			continue
		}
		args := map[string]string{
			"rows":    fmt.Sprintf("%d", s.rows),
			"batches": fmt.Sprintf("%d", s.batches),
			"busy":    s.busy.String(),
		}
		for _, a := range s.attrs {
			args[a.Key] = a.Val
		}
		evs = append(evs, chromeEvent{
			Name: s.name,
			Ph:   "X",
			Ts:   float64(s.start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.wall().Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.lane,
			Args: args,
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}
