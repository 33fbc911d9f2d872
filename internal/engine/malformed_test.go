package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rawdb/internal/bytesconv"
	"rawdb/internal/catalog"
	"rawdb/internal/vector"
)

// TestMalformedIntFailsInEveryMode: a malformed integer in a column no
// earlier query converted is the same bytesconv.ErrSyntax failure whichever
// path reads it first — the cold sequential scan, a read through the
// positional map or structural index other columns built, a late column-shred
// fetch, a late scan completing a partial shred from the raw file, or a read
// through offsets a pruned warm-up recorded without converting — serial and
// parallel, pushdown on and off. Every failure leaves the positional
// structure installed before it in place, a structural index without the
// paths the failed query recorded, and the cache budget charging exactly what
// the engine holds.
func TestMalformedIntFailsInEveryMode(t *testing.T) {
	const rows, bad = 60, 37
	schema := []catalog.Column{{Name: "a", Type: vector.Int64}, {Name: "b", Type: vector.Int64},
		{Name: "c", Type: vector.Int64}}
	var csvData, jsonData bytes.Buffer
	for r := 0; r < rows; r++ {
		csvC, jsonC := fmt.Sprint(r*3), fmt.Sprint(r*3)
		if r == bad {
			// Each a number token to its format's scanner, and no integer.
			csvC, jsonC = "12x4", "12-4"
		}
		fmt.Fprintf(&csvData, "%d,%d,%s\n", r, r*2, csvC)
		fmt.Fprintf(&jsonData, "{\"a\":%d,\"b\":%d,\"c\":%s}\n", r, r*2, jsonC)
	}
	on, one := true, 1
	type warm struct {
		sql  string
		opts Options
	}
	modes := []struct {
		name     string
		noShreds bool
		warm     []warm
		sql      string
	}{
		{name: "cold", sql: "SELECT SUM(c) FROM t"},
		{name: "viamap", warm: []warm{{sql: "SELECT SUM(a) FROM t"}}, sql: "SELECT SUM(c) FROM t"},
		{name: "late", warm: []warm{{sql: "SELECT SUM(a) FROM t"}}, sql: "SELECT SUM(c) FROM t WHERE a >= 0"},
		// b is new to the structural index: the base scan records it and
		// reaches the end of the file before the late scan fails.
		{name: "grown", warm: []warm{{sql: "SELECT SUM(a) FROM t"}}, sql: "SELECT SUM(c) FROM t WHERE b >= 0"},
		// Every row fails a < 0 first: c's offsets are recorded, never converted.
		{name: "recorded", noShreds: true,
			warm: []warm{{sql: "SELECT COUNT(*) FROM t WHERE a < 0 AND c > 0", opts: Options{Pushdown: &on}}},
			sql:  "SELECT SUM(c) FROM t"},
		// A partial shred of c over well-formed rows, then a query needing row
		// 37, which the late scan completes from the raw file.
		{name: "partial", warm: []warm{{sql: "SELECT SUM(a) FROM t"},
			{sql: "SELECT SUM(c) FROM t WHERE a < 10", opts: Options{Parallelism: &one}}},
			sql: "SELECT SUM(c) FROM t WHERE a >= 0"},
	}
	for _, format := range []string{"csv", "jsonl"} {
		for _, m := range modes {
			for _, workers := range []int{1, 4} {
				for _, pushdown := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/workers=%d/pushdown=%v", format, m.name, workers, pushdown)
					t.Run(name, func(t *testing.T) {
						e := newTestEngine(t, Config{Parallelism: workers, DisablePushdown: !pushdown,
							DisableShredCache: m.noShreds})
						var err error
						if format == "csv" {
							err = e.RegisterCSVData("t", csvData.Bytes(), schema)
						} else {
							err = e.RegisterJSONData("t", jsonData.Bytes(), schema)
						}
						if err != nil {
							t.Fatal(err)
						}
						for _, w := range m.warm {
							if _, err := e.QueryOpt(w.sql, w.opts); err != nil {
								t.Fatalf("warm-up %q: %v", w.sql, err)
							}
						}
						installed := e.tables["t"].pos.get()
						res, err := e.Query(m.sql)
						if !errors.Is(err, bytesconv.ErrSyntax) {
							var got any = err
							if err == nil {
								got = fmt.Sprintf("a result (%v, paths %v)", res.Value(0, 0), res.Stats.AccessPaths)
							}
							t.Fatalf("%q: got %v, want a bytesconv.ErrSyntax failure", m.sql, got)
						}
						if err := e.AuditBudget(); err != nil {
							t.Fatalf("after the failed %q: %v", m.sql, err)
						}
						if e.tables["t"].pos.get() != installed {
							t.Fatalf("the failed %q replaced the positional structure", m.sql)
						}
						if idx := jsonIndex(e); idx != nil && idx.Tracked("b") {
							t.Fatalf("the failed %q left b tracked in the structural index", m.sql)
						}
					})
				}
			}
		}
	}
}
