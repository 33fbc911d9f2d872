// Command rawserve keeps one engine alive across many queries: it registers
// tables exactly like rawql, then serves concurrent sessions over HTTP/JSON
// and a newline-delimited line protocol. The point of a long-lived server in
// the paper's setting is that the adaptive structures (positional maps,
// structural indexes, column shreds, zone maps) amortise across every
// client instead of dying with each CLI invocation.
//
// Usage:
//
//	rawserve -csv t=data.csv -http :8080 -listen :8081
//	rawql -connect localhost:8081 -q "SELECT MAX(col11) FROM t WHERE col1 < 500000000"
//	curl -s localhost:8080/query -d '{"query":"SELECT COUNT(*) FROM t"}'
//	curl -s localhost:8080/metrics                # Prometheus exposition
//	curl -s localhost:8080/debug/queries          # in-flight queries
//	curl -s localhost:8080/debug/heat             # workload-heat profile
//
// Admission control: -max-concurrent queries execute at once, -max-queue may
// wait (at most -queue-timeout); everything beyond that is rejected with
// HTTP 429 / an in-band overload error, so a burst of sessions degrades into
// fast rejections instead of memory exhaustion.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rawdb/internal/infer"
	"rawdb/internal/server"
)

func main() {
	var ef infer.EngineFlags
	ef.Bind(flag.CommandLine)
	httpAddr := flag.String("http", "", "HTTP listen address (e.g. :8080) for POST /query, GET /metrics, GET /healthz")
	lineAddr := flag.String("listen", "", "line-protocol listen address (e.g. :8081): one JSON request per line, one JSON response per line; rawql -connect speaks it")
	maxConcurrent := flag.Int("max-concurrent", 8, "queries allowed to execute at once")
	maxQueue := flag.Int("max-queue", 64, "queries allowed to wait for an execution slot")
	queueTimeout := flag.Duration("queue-timeout", 5*time.Second, "longest a query waits for a slot before a 429")
	queryTimeout := flag.Duration("query-timeout", 0, "server-side per-query deadline (0 = none)")
	memDegrade := flag.Float64("mem-degrade", 0.75, "cache-budget occupancy fraction above which new queries run in no-capture mode (needs -cachebudget)")
	memReject := flag.Float64("mem-reject", 1.5, "projected cache-budget occupancy fraction above which queries are rejected with 429 (needs -cachebudget)")
	flag.Int64Var(&ef.QueryLogBytes, "query-log-bytes", 0, "rotate the query log past this many bytes (default 64 MiB)")
	debugAddr := flag.String("debug", "", "debug listen address (e.g. localhost:6060) serving net/http/pprof")
	flag.Parse()

	if err := run(&ef, *httpAddr, *lineAddr, *debugAddr,
		server.Options{MaxConcurrent: *maxConcurrent, MaxQueue: *maxQueue,
			QueueTimeout: *queueTimeout, QueryTimeout: *queryTimeout,
			MemoryDegrade: *memDegrade, MemoryReject: *memReject}); err != nil {
		fmt.Fprintln(os.Stderr, "rawserve:", err)
		os.Exit(1)
	}
}

func run(ef *infer.EngineFlags, httpAddr, lineAddr, debugAddr string, sopts server.Options) error {
	if httpAddr == "" && lineAddr == "" {
		return fmt.Errorf("no listener; pass -http and/or -listen")
	}
	eng, closeAll, err := ef.Open()
	if err != nil {
		return err
	}
	defer closeAll()
	if ef.Faults != "" {
		fmt.Fprintf(os.Stderr, "rawserve: fault injection armed: %s (seed %d)\n", ef.Faults, ef.FaultSeed)
	}

	srv := server.New(eng, sopts)
	errc := make(chan error, 3)
	var closers []func()
	if debugAddr != "" {
		// net/http/pprof registers its handlers on DefaultServeMux; the debug
		// listener serves that mux, kept off the query listener on purpose.
		l, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rawserve: pprof on %s\n", l.Addr())
		ds := &http.Server{Handler: http.DefaultServeMux}
		closers = append(closers, func() { ds.Close() })
		go func() { errc <- ds.Serve(l) }()
	}
	if lineAddr != "" {
		l, err := net.Listen("tcp", lineAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rawserve: line protocol on %s\n", l.Addr())
		closers = append(closers, func() { l.Close() })
		go func() { errc <- srv.ServeLine(l) }()
	}
	if httpAddr != "" {
		l, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rawserve: http on %s\n", l.Addr())
		hs := &http.Server{Handler: srv.Handler()}
		closers = append(closers, func() { hs.Close() })
		go func() { errc <- hs.Serve(l) }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "rawserve: %v, shutting down\n", s)
		for _, c := range closers {
			c()
		}
		return nil // deferred closeAll flushes the vault
	case err := <-errc:
		for _, c := range closers {
			c()
		}
		return err
	}
}
