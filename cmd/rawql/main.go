// Command rawql runs SQL directly over raw files — no loading step.
//
// Tables are registered from the command line; schemas are inferred (CSV:
// from the first row; JSONL: numeric leaf paths of the first object; binary:
// from the file header; root: from the directory) unless given explicitly.
// Columns are named col1..colN for CSV and binary files, after their dotted
// paths for JSONL files, and after their branches for root trees.
//
// Usage:
//
//	rawql -csv t=data.csv -q "SELECT MAX(col11) FROM t WHERE col1 < 500000000"
//	rawql -bin t=data.bin -csv runs=good.csv -q "SELECT COUNT(*) FROM t, runs WHERE t.col1 = runs.col1"
//	rawql -json ev=events.jsonl -q "SELECT MAX(payload.energy) FROM ev WHERE id < 1000"
//	rawql -root events.root -q "SELECT COUNT(*) FROM events WHERE runNumber < 5"
//	rawql -csv t=data.csv -strategy insitu -explain -q "..."
//	rawql -csv t=data.csv -workers 8 -q "SELECT COUNT(*) FROM t WHERE col1 < 500000000"
//	rawql -csv t=data.csv -cachedir .rawvault -q "..."   # second run starts warm
//	rawql -dataset logs=data/logs -q "SELECT COUNT(*) FROM logs WHERE col1 < 1000"   # a directory as one table
//	rawql -dataset logs=data/logs -analyze -q "..."      # EXPLAIN ANALYZE-style span tree on stderr
//	rawql -csv t=data.csv -trace out.json -q "..."       # chrome://tracing timeline
//	rawql -csv t=data.csv -events -stats json -q "..."   # lifecycle events + machine-readable stats
//	rawql -connect localhost:8081 -q "..."               # run against a rawserve session instead
//
// With -connect the query runs on a rawserve instance (line protocol), whose
// long-lived engine keeps its adaptive structures warm across invocations;
// table flags are then rejected — the server owns the catalog.

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rawdb"
	"rawdb/internal/infer"
	"rawdb/internal/server"
)

func main() {
	var ef infer.EngineFlags
	ef.Bind(flag.CommandLine)
	query := flag.String("q", "", "SQL query to run")
	connect := flag.String("connect", "", "run the query on a rawserve instance at host:port (line protocol) instead of an in-process engine")
	timeoutMS := flag.Int64("timeout", 0, "per-query deadline in milliseconds, enforced by the server (-connect only; 0 = none)")
	explain := flag.Bool("explain", false, "print the physical plan (access paths, pushdown, zone-map decisions) instead of executing")
	analyze := flag.Bool("analyze", false, "execute the query with tracing on and print an EXPLAIN ANALYZE-style span tree (per-operator wall/busy time, rows, prune counts) to stderr")
	traceOut := flag.String("trace", "", "execute the query with tracing on and write a chrome://tracing JSON timeline to this file")
	events := flag.Bool("events", false, "print adaptive-structure lifecycle events (captured/restored/evicted/invalidated) to stderr after the query")
	heat := flag.Bool("heat", false, "print the workload-heat profile (per-table scans, bytes read/avoided, structure hits vs builds, column touch counts) to stderr after the query")
	statsMode := flag.String("stats", "text", "stats output: text (human-readable stderr lines) or json (one machine-readable line with query stats and an engine metrics snapshot)")
	flag.Parse()

	var err error
	switch {
	case *query == "":
		err = fmt.Errorf("no query; pass -q \"SELECT ...\"")
	case *connect != "":
		err = runRemote(ef.Specs, *connect, *query, *timeoutMS)
	default:
		err = run(&ef, *query, output{*explain, *analyze, *traceOut, *events, *heat, *statsMode})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rawql:", err)
		os.Exit(1)
	}
}

// output is what rawql prints besides the result rows.
type output struct {
	explain, analyze bool
	traceOut         string
	events, heat     bool
	statsMode        string
}

// runRemote sends the query to a rawserve session over the line protocol.
func runRemote(specs infer.Specs, addr, query string, timeoutMS int64) error {
	if len(specs.CSVs)+len(specs.Bins)+len(specs.JSONs)+len(specs.Roots)+len(specs.Datasets) > 0 {
		return fmt.Errorf("-connect runs against the server's catalog; table flags are not allowed")
	}
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	resp, err := c.Query(server.Request{Query: query, TimeoutMillis: timeoutMS})
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(resp.Columns, "\t"))
	for _, row := range resp.Rows {
		fmt.Println(strings.Join(row, "\t"))
	}
	fmt.Fprintf(os.Stderr, "(%d rows, via %s)\n", len(resp.Rows), addr)
	return nil
}

func run(ef *infer.EngineFlags, query string, out output) error {
	eng, closeAll, err := ef.Open()
	if err != nil {
		return err
	}
	defer closeAll()

	if out.explain {
		plan, err := eng.Explain(query, raw.Options{})
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}

	var tr *raw.Trace
	if out.analyze || out.traceOut != "" {
		tr = raw.NewTrace()
	}
	res, err := eng.QueryOpt(query, raw.Options{Trace: tr})
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(res.Columns, "\t"))
	for i := 0; i < res.NumRows(); i++ {
		cells := make([]string, len(res.Columns))
		for c := range res.Columns {
			cells[c] = fmt.Sprintf("%v", res.Value(i, c))
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
	switch out.statsMode {
	case "json":
		line, err := json.Marshal(struct {
			Rows    int              `json:"rows"`
			Stats   raw.Stats        `json:"stats"`
			Metrics map[string]int64 `json:"metrics"`
		}{res.NumRows(), res.Stats, eng.Metrics().Snapshot()})
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, string(line))
	case "text":
		fmt.Fprintf(os.Stderr, "(%d rows, %v, strategy=%s, paths=%v)\n",
			res.NumRows(), res.Stats.Elapsed.Round(1000), res.Stats.Strategy, res.Stats.AccessPaths)
		if s := res.Stats; s.PredsPushed > 0 || s.RowsPruned > 0 || s.BlocksSkipped > 0 || s.MorselsSkipped > 0 {
			fmt.Fprintf(os.Stderr, "(pushdown: %d predicate(s) absorbed, %d row(s) pruned in-scan, %d block(s) and %d morsel(s) zone-map skipped)\n",
				s.PredsPushed, s.RowsPruned, s.BlocksSkipped, s.MorselsSkipped)
		}
		if s := res.Stats; s.PartitionsScanned > 0 || s.PartitionsSkipped > 0 {
			fmt.Fprintf(os.Stderr, "(partitions: %d scanned, %d pruned without opening their files)\n",
				s.PartitionsScanned, s.PartitionsSkipped)
		}
		if s := res.Stats; s.ParallelFallback != "" {
			fmt.Fprintf(os.Stderr, "(parallel fallback: %s — %s)\n",
				s.ParallelFallback, s.ParallelFallbackDetail)
		}
	default:
		return fmt.Errorf("unknown -stats mode %q (want text or json)", out.statsMode)
	}
	if out.analyze {
		fmt.Fprint(os.Stderr, tr.Render())
	}
	if out.traceOut != "" {
		f, err := os.Create(out.traceOut)
		if err != nil {
			return err
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "(trace written to %s; load it in chrome://tracing or Perfetto)\n", out.traceOut)
	}
	if out.events {
		for _, ev := range eng.RecentEvents() {
			fmt.Fprintf(os.Stderr, "[event] %s %s table=%s", ev.Kind, ev.Structure, ev.Table)
			if ev.Partition != "" {
				fmt.Fprintf(os.Stderr, " partition=%s", ev.Partition)
			}
			if ev.Bytes > 0 {
				fmt.Fprintf(os.Stderr, " bytes=%d", ev.Bytes)
			}
			if ev.Reason != "" {
				fmt.Fprintf(os.Stderr, " reason=%s", ev.Reason)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	if out.heat {
		fmt.Fprint(os.Stderr, eng.HeatSnapshot().Format())
	}
	return nil
}
