// Command rawbench regenerates the paper's evaluation tables and figures
// (see DESIGN.md for the per-experiment index and EXPERIMENTS.md for the
// shape comparison against the published results).
//
// Usage:
//
//	rawbench                      # run every experiment at default scale
//	rawbench -exp fig5            # one experiment
//	rawbench -rows 200000 -md     # bigger dataset, markdown output
//	rawbench -exp pushdown -json out/   # also write machine-readable out/BENCH_pushdown.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rawdb/internal/experiments"
	"rawdb/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1a, fig1b, fig2, fig5, fig6, table2, fig7, fig8, fig9, fig11, fig12, table3, json, parallel, vault, pushdown, partition, server) or 'all'")
	rows := flag.Int("rows", 0, "narrow-table rows (default 100000)")
	wideRows := flag.Int("wide-rows", 0, "wide-table rows (default 20000)")
	joinRows := flag.Int("join-rows", 0, "join-table rows (default 50000)")
	higgsEvents := flag.Int("higgs-events", 0, "Higgs events (default 30000)")
	repeats := flag.Int("repeats", 0, "timed repeats per point, min kept (default 2)")
	workers := flag.Int("workers", 0, "max morsel-parallel workers swept by the parallel experiment (default 8)")
	compileDelay := flag.Duration("compile-delay", 0, "simulated access-path compile latency (e.g. 2s) charged to first queries")
	cacheDir := flag.String("cachedir", "", "persistent vault directory for the vault experiment (default: fresh temp dir)")
	cacheBudget := flag.Int64("cachebudget", 0, "unified cache budget in bytes for the vault experiment's engines (0 = per-structure defaults)")
	md := flag.Bool("md", false, "emit markdown tables")
	jsonDir := flag.String("json", "", "directory to additionally write one machine-readable BENCH_<exp>.json per experiment (effective parameters, measured rows, engine metrics snapshot)")
	flag.Parse()

	cfg := experiments.Config{
		NarrowRows:   *rows,
		WideRows:     *wideRows,
		JoinRows:     *joinRows,
		HiggsEvents:  *higgsEvents,
		Repeats:      *repeats,
		Workers:      *workers,
		CompileDelay: *compileDelay,
		CacheDir:     *cacheDir,
		CacheBudget:  *cacheBudget,
	}

	var runners []experiments.Runner
	if *exp == "all" {
		runners = experiments.All()
	} else {
		r, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "rawbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rawbench: %v\n", err)
			os.Exit(1)
		}
	}

	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rawbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Printf("== %s: %s  (measured in %v)\n", tbl.ID, tbl.Title, elapsed.Round(time.Millisecond))
		if *md {
			printMarkdown(tbl)
		} else {
			printAligned(tbl)
		}
		fmt.Println()
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_"+tbl.ID+".json")
			if err := writeJSON(path, cfg, tbl, elapsed); err != nil {
				fmt.Fprintf(os.Stderr, "rawbench: %s: %v\n", tbl.ID, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "(wrote %s)\n", path)
		}
	}
}

// benchJSON is the machine-readable experiment record written by -json: the
// effective (default-resolved) parameters, the measured table verbatim, and
// the engine metrics-registry snapshot when the experiment captured one.
type benchJSON struct {
	Experiment string            `json:"experiment"`
	Title      string            `json:"title"`
	Params     map[string]int64  `json:"params"`
	Header     []string          `json:"header"`
	Rows       [][]string        `json:"rows"`
	ElapsedNS  int64             `json:"elapsed_ns"`
	Metrics    map[string]int64  `json:"metrics,omitempty"`
	Heat       *obs.HeatSnapshot `json:"heat,omitempty"`
}

func writeJSON(path string, cfg experiments.Config, tbl *experiments.Table, elapsed time.Duration) error {
	eff := cfg.WithDefaults()
	rec := benchJSON{
		Experiment: tbl.ID,
		Title:      tbl.Title,
		Params: map[string]int64{
			"narrow_rows":      int64(eff.NarrowRows),
			"wide_rows":        int64(eff.WideRows),
			"join_rows":        int64(eff.JoinRows),
			"higgs_events":     int64(eff.HiggsEvents),
			"repeats":          int64(eff.Repeats),
			"workers":          int64(eff.Workers),
			"compile_delay_ns": eff.CompileDelay.Nanoseconds(),
			"cache_budget":     eff.CacheBudget,
		},
		Header:    tbl.Header,
		Rows:      tbl.Rows,
		ElapsedNS: elapsed.Nanoseconds(),
		Metrics:   tbl.Metrics,
		Heat:      tbl.Heat,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printAligned(t *experiments.Table) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
}

func printMarkdown(t *experiments.Table) {
	fmt.Println("| " + strings.Join(t.Header, " | ") + " |")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Println("| " + strings.Join(seps, " | ") + " |")
	for _, row := range t.Rows {
		fmt.Println("| " + strings.Join(row, " | ") + " |")
	}
}
