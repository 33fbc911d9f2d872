// Command rawbench regenerates the paper's evaluation tables and figures
// (internal/experiments indexes them) and the parallel, pushdown and
// partition sweeps. Engineering benchmarks live in bench/ (bench/run.sh).
//
// Usage:
//
//	rawbench                      # run every experiment at default scale
//	rawbench -exp fig5            # one experiment
//	rawbench -rows 200000 -md     # bigger dataset, markdown output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rawdb/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1a, fig1b, fig2, fig5, fig6, table2, fig7, fig8, fig9, fig11, fig12, table3, parallel, pushdown, partition) or 'all'")
	rows := flag.Int("rows", 0, "narrow-table rows (default 100000)")
	wideRows := flag.Int("wide-rows", 0, "wide-table rows (default 20000)")
	joinRows := flag.Int("join-rows", 0, "join-table rows (default 50000)")
	higgsEvents := flag.Int("higgs-events", 0, "Higgs events (default 30000)")
	repeats := flag.Int("repeats", 0, "timed repeats per point, min kept (default 2)")
	workers := flag.Int("workers", 0, "max morsel-parallel workers swept by the parallel experiment (default 8)")
	compileDelay := flag.Duration("compile-delay", 0, "simulated access-path compile latency (e.g. 2s) added to fig1a's JIT rows")
	md := flag.Bool("md", false, "emit markdown tables")
	flag.Parse()

	cfg := experiments.Config{
		NarrowRows:   *rows,
		WideRows:     *wideRows,
		JoinRows:     *joinRows,
		HiggsEvents:  *higgsEvents,
		Repeats:      *repeats,
		Workers:      *workers,
		CompileDelay: *compileDelay,
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

	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rawbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Printf("== %s: %s  (measured in %v)\n", tbl.ID, tbl.Title, time.Since(start).Round(time.Millisecond))
		if *md {
			printMarkdown(tbl)
		} else {
			printAligned(tbl)
		}
		fmt.Println()
	}
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
