package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smoke is the configuration the tests run at: about one percent of the
// operations over about two percent of the rows, so all of them together stay
// well under ten seconds.
func smoke(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, ops: 0.01, rows: 0.02, trace: trace, dir: t.TempDir()}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricLine = regexp.MustCompile(`^(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$`)

// checkOutput asserts that out prints exactly the metrics in want, each once
// with its unit and a sample count, and ends in the driver's JSON line with
// the same metrics.
func checkOutput(t *testing.T, out string, want []benchmarkMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	units := make(map[string]string)
	for _, line := range lines[:len(lines)-1] {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := metricLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparsable line %q", line)
			continue
		}
		if _, dup := units[m[1]]; dup {
			t.Errorf("metric %s printed twice", m[1])
		}
		if m[4] == "0" && !strings.HasPrefix(m[1], "server.arrival") {
			t.Errorf("metric %s has no samples", m[1])
		}
		units[m[1]] = m[3]
	}
	var result struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !result.Correct || result.Failed != 0 || result.Attempted < 1 {
		t.Errorf("result: correct=%t attempted=%d failed=%d", result.Correct, result.Attempted, result.Failed)
	}
	for _, w := range want {
		if units[w.Name] != w.Unit {
			t.Errorf("metric %s: printed unit %q, BENCHMARK.json says %q", w.Name, units[w.Name], w.Unit)
		}
		if result.Metrics[w.Name].Unit != w.Unit {
			t.Errorf("metric %s: result unit %q, BENCHMARK.json says %q", w.Name, result.Metrics[w.Name].Unit, w.Unit)
		}
	}
	if len(units) != len(want) || len(result.Metrics) != len(want) {
		t.Errorf("printed %d metrics and returned %d, BENCHMARK.json names %d", len(units), len(result.Metrics), len(want))
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) || b.RunSeconds != runSeconds {
		t.Fatalf("BENCHMARK.json has %d workloads at %d s; the program has %d at %d s",
			len(b.Workloads), b.RunSeconds, len(workloads), runSeconds)
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var out bytes.Buffer
			if _, err := run(smoke(t, w.Name, false), &out); err != nil {
				t.Fatal(err)
			}
			checkOutput(t, out.String(), b.EndToEnd)
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	b := readBenchmarkFile(t)
	cfg := smoke(t, "cold_csv", true)
	var out bytes.Buffer
	if _, err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	checkOutput(t, out.String(), b.PerLayer)
	if !strings.Contains(out.String(), "# jit.csv_seq_ns_per_row x rows /") {
		t.Error("cold_csv trace does not print the emitter-to-query ratio")
	}
	if st, err := os.Stat(tracePath(cfg)); err != nil || st.Size() == 0 {
		t.Errorf("no chrome trace at %s: %v", tracePath(cfg), err)
	}
}

// TestCleanExit guards against what rejected the previous benchmark: a
// process, listener or directory left behind.
func TestCleanExit(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := smoke(t, "serve_mixed", false)
	e := &env{cfg: cfg, dir: filepath.Join(cfg.dir, "run"), ops: workloads["serve_mixed"].opCount(cfg)}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := setupServe(e)
	if err != nil {
		t.Fatal(err)
	}
	ep := s.(*serveSession).ep
	addrs := []string{ep.line.Addr().String(), ep.httpAddr}
	rec := newRecorder(nil)
	if err := s.measure(e.ops, rec); err != nil {
		t.Fatal(err)
	}
	if rec.failed > 0 || len(rec.ops) == 0 {
		t.Fatalf("%d of %d operations failed: %s", rec.failed, len(rec.ops), rec.firstFailure)
	}
	// close returns only after ServeLine and http.Server.Shutdown have.
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", addr)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after close, %d before:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}

	// A whole run removes its scratch directory, vault included.
	var out bytes.Buffer
	if _, err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(cfg.dir, "run-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("run left %v behind (%v)", left, err)
	}
}

// TestStartsNoProcess: the benchmark is one process, so nothing in it may be
// able to start another.
func TestStartsNoProcess(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"os/exec"` {
					t.Errorf("%s imports os/exec", name)
				}
			}
		}
	}
}

// TestDeterminism: with one client, the counts the engine makes and the space
// it uses repeat exactly for a seed.
func TestDeterminism(t *testing.T) {
	cfg := smoke(t, "warm_adapt", false)
	cfg.ops, cfg.rows = 0.05, 0.05
	type outcome struct {
		classes map[string]int
		m       metrics
	}
	once := func(seed int64) outcome {
		cfg.seed = seed
		wl := workloads["warm_adapt"]
		p, err := runPass(&env{cfg: cfg, dir: cfg.dir, ops: wl.opCount(cfg)}, wl)
		if err != nil {
			t.Fatal(err)
		}
		if p.rec.failed > 0 {
			t.Fatalf("seed %d: %s", seed, p.rec.firstFailure)
		}
		o := outcome{classes: make(map[string]int)}
		for _, op := range p.rec.ops {
			o.classes[op.class]++
		}
		p.counters(&o.m)
		p.endToEnd(&o.m, wl)
		return o
	}
	a, b, other := once(1), once(1), once(2)
	if a.classes["shred"] == 0 || a.classes["raw"] == 0 {
		t.Errorf("classes %v: want both shred-served and raw operations", a.classes)
	}
	for class, n := range a.classes {
		if b.classes[class] != n {
			t.Errorf("class %s: %d operations, then %d with the same seed", class, n, b.classes[class])
		}
	}
	for _, name := range []string{"shred.hit_share", "shred.evictions_per_kq", "aux_bytes_per_raw_byte"} {
		x, _ := a.m.get(name)
		y, _ := b.m.get(name)
		if x.value != y.value {
			t.Errorf("%s: %v, then %v with the same seed", name, x.value, y.value)
		}
	}
	if ev, _ := a.m.get("shred.evictions_per_kq"); ev.value == 0 {
		t.Error("no evictions: the smoke-sized budget no longer pressures the cache")
	}
	x, _ := a.m.get("aux_bytes_per_raw_byte")
	y, _ := other.m.get("aux_bytes_per_raw_byte")
	if x.value == y.value {
		t.Errorf("aux_bytes_per_raw_byte is %v for seeds 1 and 2: the data does not follow the seed", x.value)
	}
}

// TestOracleCanDisagree: a wrong answer is a failed operation and an
// incorrect run.
func TestOracleCanDisagree(t *testing.T) {
	rec := newRecorder(nil)
	now := time.Now()
	rec.record("x", now, time.Millisecond, 1, answer{"1|2"}, answer{"1|2"}, nil)
	rec.record("x", now, time.Millisecond, 1, answer{"1|3"}, answer{"1|2"}, nil)
	if rec.failed != 1 || len(rec.ops) != 2 {
		t.Fatalf("failed=%d of %d, want 1 of 2", rec.failed, len(rec.ops))
	}
	rep := (&pass{rec: rec}).report()
	if rep.correct() {
		t.Error("a run with a wrong answer reports correct")
	}
}
