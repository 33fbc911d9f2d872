// Command bench is the repository's benchmark: one process that generates
// seeded inputs, runs one named workload against the public raw.Engine and
// internal/server surfaces in-process, checks every answer against an oracle
// it computes itself, and prints every metric by name and unit. It starts no
// other process. See README.md for the workloads and the metric vocabulary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds: the -seconds value at which
// every workload runs its frozen operation count.
const runSeconds = 12

type config struct {
	workload string
	seed     int64
	ops      float64 // multiplier on the workload's frozen operation count
	rows     float64 // multiplier on its dataset sizes; 1 outside the smoke tests
	trace    bool
	dir      string // scratch root: per-run temp directories and the trace file
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated data and the query sequence")
	flag.Float64Var(&seconds, "seconds", runSeconds, "run length; operation counts are frozen per workload and scale with seconds/12")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and the layer drivers and prints the per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for temporary files and the trace output")
	flag.Parse()
	cfg.ops, cfg.rows, cfg.trace = seconds/runSeconds, 1, trace != 0

	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	firstFailure      string
	metrics           metrics
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// run executes one workload and writes the human-readable metric lines
// followed by the driver's one-line JSON result to w.
func run(cfg config, w io.Writer) (*report, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.ops <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	fmt.Fprintf(w, "# workload=%s seed=%d trace=%t ops=%d clients=%d nproc=%d GOMAXPROCS=%d %s\n",
		wl.name, cfg.seed, cfg.trace, wl.opCount(cfg), wl.clients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var rep *report
	if cfg.trace {
		rep, err = runTraced(cfg, wl, tmp, w)
	} else {
		rep, err = runEndToEnd(cfg, wl, tmp)
	}
	if err != nil {
		return nil, err
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, make(map[string]metricValue)}
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-36s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
		out.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	if rep.failed > 0 {
		fmt.Fprintf(w, "# FAILED %d of %d operations; first: %s\n", rep.failed, rep.attempted, rep.firstFailure)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return rep, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracePath is where a traced run leaves its chrome://tracing file.
func tracePath(cfg config) string {
	return filepath.Join(cfg.dir, fmt.Sprintf("trace_%s_seed%d.json", cfg.workload, cfg.seed))
}
