package main

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	raw "rawdb"
)

// The traced run. The benchmark owns its spans: one per operation around the
// client-side call, with the engine's reported phase times laid end to end
// beneath it. Per-operator time comes from the engine's own span tree (the
// public Options.Trace, or the query log's slow-query tree behind a server),
// folded by span name into a handful of categories. Spans stay in memory and
// are written as chrome://tracing JSON when the run ends.

type span struct {
	name       string
	op, parent int // operation id; index of the parent span, -1 at the root
	start, end time.Duration
}

// phases are the engine's per-query phase times, in execution order.
type phases struct {
	parse, analyze, plan, exec, publish, refresh time.Duration
}

func statsPhases(s raw.Stats) phases {
	return phases{s.PhaseParse, s.PhaseAnalyze, s.PhasePlan, s.PhaseExec, s.PhasePublish, s.ManifestRefresh}
}

// account accumulates what a traced run learns. A nil account (the untraced
// run) ignores every call.
type account struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int

	sum                 phases
	frontend, publishes durations
	self                map[string]time.Duration // span category -> self time
}

func newAccount() *account {
	return &account{epoch: time.Now(), self: make(map[string]time.Duration)}
}

// op records one client-observed operation and returns its id.
func (a *account) op(class string, start time.Time, d time.Duration) int {
	if a == nil {
		return -1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	s := start.Sub(a.epoch)
	a.spans = append(a.spans, span{name: class, op: a.ops, parent: -1, start: s, end: s + d})
	return len(a.spans) - 1
}

// engine records what the engine reported for one query: its phases, as
// children of span parent when that is known, and its rendered span tree.
func (a *account) engine(parent int, p phases, render string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sum.parse += p.parse
	a.sum.analyze += p.analyze
	a.sum.plan += p.plan
	a.sum.exec += p.exec
	a.sum.publish += p.publish
	a.frontend = append(a.frontend, p.parse+p.analyze+p.plan)
	a.publishes = append(a.publishes, p.publish)
	if parent >= 0 {
		at, op := a.spans[parent].start, a.spans[parent].op
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"parse", p.parse}, {"analyze", p.analyze}, {"refresh", p.refresh},
			{"plan", p.plan}, {"execute", p.exec}, {"publish", p.publish}} {
			a.spans = append(a.spans, span{name: ph.name, op: op, parent: parent, start: at, end: at + ph.d})
			at += ph.d
		}
	}
	for cat, d := range selfTimes(render) {
		a.self[cat] += d
	}
}

// node is one line of a rendered engine trace.
type node struct {
	name       string
	wall, busy time.Duration
	children   []*node
}

// parseRender rebuilds the span tree from obs.Trace.Render output: one span
// per line, two spaces of indent per level, "name  time=W [busy=B] ...".
func parseRender(render string) []*node {
	var roots []*node
	var stack []*node
	for _, line := range strings.Split(render, "\n") {
		name, rest, ok := strings.Cut(line, "  time=")
		if !ok {
			continue
		}
		trimmed := strings.TrimLeft(name, " ")
		depth := (len(name) - len(trimmed)) / 2
		n := &node{name: trimmed}
		for i, f := range strings.Fields(rest) {
			if i == 0 {
				n.wall, _ = time.ParseDuration(f)
				n.busy = n.wall // Render omits busy when it equals wall
			} else if v, ok := strings.CutPrefix(f, "busy="); ok {
				n.busy, _ = time.ParseDuration(v)
			}
		}
		if depth > len(stack) {
			depth = len(stack)
		}
		stack = stack[:depth]
		if depth == 0 {
			roots = append(roots, n)
		} else {
			p := stack[depth-1]
			p.children = append(p.children, n)
		}
		stack = append(stack, n)
	}
	return roots
}

// category maps an engine span name to the layer it measures, "" for phases
// and for plumbing (project, divide, concat) the benchmark does not report.
func category(name string) string {
	switch {
	case strings.Contains(name, "exchange["):
		return "exchange"
	case strings.HasPrefix(name, "morsel["):
		return "morsel"
	case strings.HasPrefix(name, "filter["), strings.HasPrefix(name, "having["):
		return "filter"
	case strings.HasPrefix(name, "aggregate["), strings.HasPrefix(name, "final-aggregate["):
		return "aggregate"
	case name == "hashjoin":
		return "join"
	}
	for _, p := range []string{"jit:", "shred:", "insitu:", "dbms:", "external:", "memory:"} {
		if strings.HasPrefix(name, p) {
			return "scan"
		}
	}
	return ""
}

// selfTimes folds one rendered trace into self time per category, in
// wall-clock equivalents. Inside a pull pipeline an operator's self time is
// its busy time minus its children's. An exchange's children run on worker
// goroutines: each morsel counts its busy time divided by the worker count
// (under a join's build or probe exchange it counts as join work), and the
// exchange keeps what is left of its own wall time — dispatch, imbalance and
// merge.
func selfTimes(render string) map[string]time.Duration {
	out := make(map[string]time.Duration)
	var walk func(n *node)
	walk = func(n *node) {
		cat := category(n.name)
		var self time.Duration
		if cat == "exchange" {
			workers := 1
			if _, w, ok := strings.Cut(n.name, "workers="); ok {
				workers, _ = strconv.Atoi(w[:strings.IndexAny(w+" ", " ]")])
				workers = max(workers, 1)
			}
			morselCat := "morsel"
			if strings.HasPrefix(n.name, "build-") || strings.HasPrefix(n.name, "probe-") {
				morselCat = "join"
			}
			self = n.wall
			for _, c := range n.children {
				if category(c.name) == "morsel" {
					share := c.busy / time.Duration(workers)
					out[morselCat] += share
					self -= share
				} else {
					self -= c.wall
					walk(c)
				}
			}
		} else {
			self = n.busy
			for _, c := range n.children {
				self -= c.busy
				walk(c)
			}
		}
		if cat != "" && cat != "morsel" && self > 0 {
			out[cat] += self
		}
	}
	for _, r := range parseRender(render) {
		walk(r)
	}
	return out
}

// writeChrome writes the benchmark's spans in the chrome://tracing array
// format, one lane per operation class.
func (a *account) writeChrome(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args struct {
			Op     int `json:"op"`
			Parent int `json:"parent"`
		} `json:"args"`
	}
	lanes := make(map[string]int)
	evs := make([]event, len(a.spans))
	for i, s := range a.spans {
		root := s
		if s.parent >= 0 {
			root = a.spans[s.parent]
		}
		lane, ok := lanes[root.name]
		if !ok {
			lane = len(lanes)
			lanes[root.name] = lane
		}
		evs[i] = event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: lane}
		evs[i].Args.Op, evs[i].Args.Parent = s.op, s.parent
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
