// Command promcheck validates a Prometheus text exposition stream read from
// stdin: metric-name charset, HELP/TYPE placement, histogram bucket
// monotonicity and +Inf terminals, and numeric sample values. It stands in
// for promtool's format checker in CI, with no dependency outside the
// standard library:
//
//	curl -s localhost:8080/metrics | promcheck
//
// Exit status 0 means the stream is well-formed; 1 reports the first
// violation on stderr.
package main

import (
	"fmt"
	"os"

	"rawdb/internal/obs"
)

func main() {
	if err := obs.LintPrometheus(os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "promcheck:", err)
		os.Exit(1)
	}
	fmt.Println("promcheck: ok")
}
