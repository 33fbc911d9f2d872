// Server mode of the differential harness: the same random queries the
// in-process modes run, but issued by N concurrent line-protocol sessions
// against one shared engine behind rawserve's Server. Every session decodes
// its wire responses and compares them against the oracle bit for bit
// (floats by bit pattern survive the all-strings wire encoding), at workers
// 1/2/8 cycling per query, at 4 and 64 sessions, and across a mid-run
// dataset file arrival: a new partition file lands in the dataset directory
// while sessions are querying, and every response must match either the
// before-oracle or the after-oracle exactly — never a sheared hybrid.
package raw_test

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"rawdb"
	"rawdb/internal/server"
	"rawdb/internal/workload"
)

// startLineServer wraps an engine in a Server and an in-process TCP
// listener, returning the dial address.
func startLineServer(t *testing.T, eng *raw.Engine, opts server.Options) string {
	t.Helper()
	srv := server.New(eng, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.ServeLine(l)
	return l.Addr().String()
}

// checkOracleWire compares a decoded wire response against the oracle bit
// for bit. Returns false (without failing) when the shape differs, so the
// arrival test can try its second oracle; mismatched cells inside a matching
// shape always fail.
func checkOracleWire(t *testing.T, label, sql string, resp *server.Response,
	want [][]oracleCell, types []raw.Type, softShape bool) bool {
	t.Helper()
	if len(resp.Rows) != len(want) {
		if softShape {
			return false
		}
		t.Fatalf("%s: %q: %d rows, oracle %d", label, sql, len(resp.Rows), len(want))
	}
	if len(resp.Types) != len(types) {
		t.Fatalf("%s: %q: %d columns, oracle %d", label, sql, len(resp.Types), len(types))
	}
	for c, typ := range types {
		if resp.Types[c] != typ.String() {
			t.Fatalf("%s: %q: column %d wire type %s, oracle %v", label, sql, c, resp.Types[c], typ)
		}
	}
	for r := range want {
		for c := range types {
			cell := resp.Rows[r][c]
			if types[c] == raw.Float64 {
				g, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					t.Fatalf("%s: %q: cell (%d,%d) %q: %v", label, sql, r, c, cell, err)
				}
				if math.Float64bits(g) != math.Float64bits(want[r][c].f) {
					if softShape {
						return false
					}
					t.Fatalf("%s: %q: cell (%d,%d) = %v (bits %x), oracle %v (bits %x)",
						label, sql, r, c, g, math.Float64bits(g), want[r][c].f, math.Float64bits(want[r][c].f))
				}
				continue
			}
			g, err := strconv.ParseInt(cell, 10, 64)
			if err != nil {
				t.Fatalf("%s: %q: cell (%d,%d) %q: %v", label, sql, r, c, cell, err)
			}
			if g != want[r][c].i {
				if softShape {
					return false
				}
				t.Fatalf("%s: %q: cell (%d,%d) = %d, oracle %d", label, sql, r, c, g, want[r][c].i)
			}
		}
	}
	return true
}

// TestDifferentialServer: N concurrent sessions over one shared engine must
// each see oracle-exact results. Sessions share tables, so concurrent
// queries race to build the same adaptive structures — any torn publication
// or sheared snapshot surfaces as an oracle mismatch on some session.
func TestDifferentialServer(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sessions int
		queries  int
		strat    raw.Strategy
	}{
		{"sessions4-shreds", 4, 30, raw.StrategyShreds},
		{"sessions8-jit", 8, 20, raw.StrategyJIT},
		{"sessions64-shreds", 64, 6, raw.StrategyShreds},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := int64(9000 + int64(tc.sessions))
			rng := rand.New(rand.NewSource(seed))
			tab := genTable(rng, 160)
			utab := genTable(rng, 40)
			ts := dtTabs{t: tab, u: utab}
			eng := raw.NewEngine(raw.Config{Strategy: tc.strat, Parallelism: 2})
			defer eng.Close()
			registerDT(t, eng, "t", tab, "csv", tab.renderCSV(), nil, nil)
			registerDT(t, eng, "u", utab, "json", nil, utab.renderJSONL(), nil)
			addr := startLineServer(t, eng, server.Options{
				MaxConcurrent: 8, MaxQueue: 2 * tc.sessions, QueueTimeout: 30 * time.Second})

			queries := make([]dtQuery, tc.queries)
			for i := range queries {
				queries[i] = genQuery(rng, ts)
			}
			workerCycle := []int{1, 2, 8}
			var wg sync.WaitGroup
			for s := 0; s < tc.sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					c, err := server.Dial(addr)
					if err != nil {
						t.Errorf("session %d: %v", s, err)
						return
					}
					defer c.Close()
					// Each session walks the shared query list from its own
					// offset, so at any instant different queries (and worker
					// counts) overlap on the same tables.
					for k := 0; k < len(queries); k++ {
						qi := (s + k) % len(queries)
						q := queries[qi]
						sql := q.SQL(ts)
						w := workerCycle[(s+qi)%len(workerCycle)]
						resp, err := c.Query(server.Request{Query: sql, Workers: w})
						if err != nil {
							t.Errorf("session %d (seed %d) query %d %q: %v", s, seed, qi, sql, err)
							return
						}
						want, types := oracle(ts, q)
						checkOracleWire(t, fmt.Sprintf("session %d (seed %d) query %d workers %d", s, seed, qi, w),
							sql, resp, want, types, false)
					}
				}(s)
			}
			wg.Wait()
			snap := eng.Metrics().Snapshot()
			if snap["server.active"] != 0 || snap["server.queue"] != 0 {
				t.Fatalf("admission gauges not drained: active=%d queue=%d",
					snap["server.active"], snap["server.queue"])
			}
			auditBudget(t, tc.name, eng)
		})
	}
}

// truncTable returns a view of tab limited to its first nrows rows (the
// before-arrival oracle of the dataset test).
func truncTable(tab *dtTable, nrows int) *dtTable {
	out := &dtTable{cols: tab.cols, group: tab.group, nrows: nrows,
		ints: make(map[int][]int64), floats: make(map[int][]float64)}
	for c, v := range tab.ints {
		out.ints[c] = v[:nrows]
	}
	for c, v := range tab.floats {
		out.floats[c] = v[:nrows]
	}
	return out
}

// TestDifferentialServerDatasetArrival: sessions query a directory-backed
// dataset while a new partition file arrives mid-run. Every response must
// match the before-oracle or the after-oracle exactly — a query sees the
// manifest as refreshed under its table locks, never a partially visible
// file or a structure from the wrong snapshot.
func TestDifferentialServerDatasetArrival(t *testing.T) {
	seed := int64(9900)
	rng := rand.New(rand.NewSource(seed))
	full := genTable(rng, 160)
	utab := genTable(rng, 40)
	chunks := workload.SplitRows(full.renderCSV(), 4)
	if len(chunks) != 4 {
		t.Fatalf("split produced %d chunks", len(chunks))
	}
	beforeRows := 0
	for _, c := range chunks[:3] {
		beforeRows += countLines(c)
	}
	before := truncTable(full, beforeRows)
	tsBefore := dtTabs{t: before, u: utab}
	tsAfter := dtTabs{t: full, u: utab}

	dir := t.TempDir()
	for i, c := range chunks[:3] {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("part%02d.csv", i)), c, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	eng := raw.NewEngine(raw.Config{Strategy: raw.StrategyShreds})
	defer eng.Close()
	if err := eng.RegisterDataset("t", dir, full.cols); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterJSONData("u", utab.renderJSONL(), utab.cols); err != nil {
		t.Fatal(err)
	}
	addr := startLineServer(t, eng, server.Options{MaxConcurrent: 8, QueueTimeout: 30 * time.Second})

	// Aggregate-only queries: per-row outputs would need row-order reasoning
	// across the arrival; aggregates make the two oracles unambiguous.
	queries := make([]dtQuery, 0, 24)
	for len(queries) < 24 {
		q := genQuery(rng, tsAfter)
		if q.items[0].agg != "" {
			queries = append(queries, q)
		}
	}
	const sessions = 8
	arrive := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				t.Errorf("session %d: %v", s, err)
				return
			}
			defer c.Close()
			for k := 0; k < len(queries); k++ {
				if k == len(queries)/2 {
					once.Do(func() { close(arrive) }) // signal the writer at the halfway mark
				}
				qi := (s + k) % len(queries)
				q := queries[qi]
				sql := q.SQL(tsAfter)
				w := []int{1, 2, 8}[(s+k)%3]
				resp, err := c.Query(server.Request{Query: sql, Workers: w})
				if err != nil {
					t.Errorf("session %d query %d %q: %v", s, qi, sql, err)
					return
				}
				wantB, typesB := oracle(tsBefore, q)
				if checkOracleWire(t, "", sql, resp, wantB, typesB, true) {
					continue
				}
				wantA, typesA := oracle(tsAfter, q)
				checkOracleWire(t, fmt.Sprintf("session %d query %d (neither before- nor after-oracle)", s, qi),
					sql, resp, wantA, typesA, false)
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-arrive
		if err := os.WriteFile(filepath.Join(dir, "part03.csv"), chunks[3], 0o644); err != nil {
			t.Errorf("arrival write: %v", err)
		}
	}()
	wg.Wait()

	// Once the arrival has settled, every session must see the full dataset.
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Query(server.Request{Query: "SELECT COUNT(*) FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Int64(0, 0); got != int64(full.nrows) {
		t.Fatalf("post-arrival COUNT(*) = %d, want %d", got, full.nrows)
	}
}

func countLines(data []byte) int {
	n := 0
	for _, b := range data {
		if b == '\n' {
			n++
		}
	}
	return n
}
