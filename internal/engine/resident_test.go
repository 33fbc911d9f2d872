package engine

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/sql"
)

// TestResidentShredPlan: a serial StrategyShreds query whose columns are all
// cached as full shreds is one resident scan — no late scan, no row-id column
// — and it looks each column up once, in the cascade's order, so the pool's
// hit and miss counters and its LRU order are what the cascade would leave.
// With one column held only as a partial shred the cascade stays.
func TestResidentShredPlan(t *testing.T) {
	g := goldenTable(t, 3000, 0)
	e := newTestEngine(t, Config{Strategy: StrategyShreds, CacheBudget: 64 << 20})
	if err := e.RegisterCSVData("t", g.csv, g.schema); err != nil {
		t.Fatal(err)
	}
	lookups := func() (hits, misses int64) {
		snap := e.Metrics().Snapshot()
		return snap["shred.lookup.hits"], snap["shred.lookup.misses"]
	}
	// run queries serially and returns its access paths with the pool's hit
	// and miss deltas.
	run := func(q string) (paths []string, hits, misses int64) {
		h0, m0 := lookups()
		res := queryAt(t, e, q, 1)
		h1, m1 := lookups()
		return res.Stats.AccessPaths, h1 - h0, m1 - m0
	}
	// plan decides q's serial plan without building it, and returns its one
	// unit.
	plan := func(q string) unitPlan {
		parsed, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.analyze(parsed)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := e.newRecord(Options{}).newPlanCtx(context.Background()).decide(r)
		if err != nil {
			t.Fatal(err)
		}
		return pl.tables[0].units[0]
	}

	// Filter columns col2, col3 and output column col1: the cascade's order
	// is table columns 1, 2, 0, which is not column order.
	const q = "SELECT MAX(col1) FROM t WHERE col3 < 500 AND col2 > 10"
	queryAt(t, e, q, 1) // cold: captures all three as full shreds
	paths, hits, misses := run(q)
	if want := []string{"shred:scan(t)", "push[2](t)", "zmap(t)"}; !reflect.DeepEqual(paths, want) {
		t.Fatalf("warm paths %v, want %v", paths, want)
	}
	if hits != 3 || misses != 0 {
		t.Fatalf("warm lookups: %d hits, %d misses; want 3 hits, 0 misses", hits, misses)
	}
	// Evict everything: the budget drops its entries least recently used
	// first, so the shreds leave in the order the query last touched them.
	var order []string
	e.budget.SetObserver(func(key string, _ int64) {
		if k, ok := strings.CutPrefix(key, "shred:t."); ok {
			order = append(order, k[:strings.IndexByte(k, '#')])
		}
	})
	e.budget.Set("probe", 64<<20, nil)
	if want := []string{"col1", "col2", "col0"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("shreds evicted in order %v, want the cascade's touch order %v", order, want)
	}
	e.budget.Remove("probe")

	queryAt(t, e, q, 1) // cold again: recaptures the three full shreds
	if u := plan(q); len(u.late) != 0 || u.base.resident != "shred:scan" || u.base.emitRID ||
		!slices.Equal(u.base.cols, []int{0, 1, 2}) || !u.whole() {
		t.Fatalf("plan %+v, want one resident shred scan of columns 0-2 without row ids", u)
	}

	// col4 is first fetched late, so only the rows col3 < 500 selected are
	// cached: a partial shred, which keeps the cascade.
	const partial = "SELECT MAX(col4) FROM t WHERE col3 < 500"
	queryAt(t, e, partial, 1)
	paths, hits, misses = run(partial)
	if want := []string{"shred:scan(t)", "push[1](t)", "zmap(t)", "shred:late(t.cols3,)"}; !reflect.DeepEqual(paths, want) {
		t.Fatalf("partial paths %v, want %v", paths, want)
	}
	if hits != 2 || misses != 0 {
		t.Fatalf("partial lookups: %d hits, %d misses; want 2 hits, 0 misses", hits, misses)
	}
	if u := plan(partial); len(u.late) != 1 || u.base.resident != "shred:scan" || !u.base.emitRID ||
		!slices.Equal(u.late[0].cached, []int{3}) || u.late[0].shreds[0].Full() {
		t.Fatalf("plan %+v, want a resident scan emitting row ids and a late scan of col4's partial shred", u)
	}
}

// TestResidentScanZoneMapSkip: a serial query whose columns are all full
// shreds takes the table's zone map inside its one resident scan, over CSV,
// JSONL and binary with pushdown on and off. col1 is sorted, so the ranges
// past its cut-off are skipped: the rows are bit-equal to a run without zone
// maps, the path names the skip, the synopsis answered exclusions and the
// stats count the skipped ranges. Each partition of a two-partition dataset
// is planned the same way.
func TestResidentScanZoneMapSkip(t *testing.T) {
	g := goldenTable(t, 3000, 0)
	lo, hi := goldenTable(t, 1000, 0), goldenTable(t, 1000, 1000)
	formats := []struct {
		name     string
		register func(e *Engine) error
	}{
		{"csv", func(e *Engine) error { return e.RegisterCSVData("t", g.csv, g.schema) }},
		{"jsonl", func(e *Engine) error { return e.RegisterJSONData("t", g.json, g.schema) }},
		{"bin", func(e *Engine) error { return e.RegisterBinaryData("t", g.bin, g.schema) }},
		{"dataset", func(e *Engine) error {
			return e.RegisterDatasetParts("t", []DataPart{{Format: catalog.CSV, Data: lo.csv},
				{Format: catalog.CSV, Data: hi.csv}}, g.schema)
		}},
	}
	const (
		warmup = "SELECT SUM(col1), SUM(col3), MAX(col4) FROM t"
		q      = "SELECT SUM(col3), MAX(col4), COUNT(*) FROM t WHERE col1 < 400"
	)
	serial, off := 1, false
	for _, f := range formats {
		for _, push := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/pushdown=%v", f.name, push), func(t *testing.T) {
				e := newTestEngine(t, Config{Strategy: StrategyShreds, BatchSize: 256,
					SynopsisBlockRows: 128, DisablePushdown: !push})
				if err := f.register(e); err != nil {
					t.Fatal(err)
				}
				queryAt(t, e, warmup, 1) // captures the three columns whole and the zone map
				exclusions := func() int64 { return e.Metrics().Snapshot()["synopsis.exclusions"] }
				before := exclusions()
				res := queryAt(t, e, q, 1)
				if exclusions() == before {
					t.Fatal("the zone map excluded no range")
				}
				want, err := e.QueryOpt(q, Options{Parallelism: &serial, ZoneMaps: &off})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "zone maps on vs off", res, want)

				table, pushed := "t", ""
				if f.name == "dataset" {
					table = "t#part0000"
				}
				if push {
					pushed = fmt.Sprintf(" push[1](%s)", table)
				}
				wantPaths := fmt.Sprintf("shred:scan(%s)%s zmap(%s)", table, pushed, table)
				if paths := strings.Join(res.Stats.AccessPaths, " "); paths != wantPaths {
					t.Fatalf("paths %q, want %q", paths, wantPaths)
				}
				if res.Stats.BlocksSkipped == 0 || res.Stats.RowsPruned == 0 {
					t.Fatalf("the scan reports %d blocks skipped, %d rows pruned",
						res.Stats.BlocksSkipped, res.Stats.RowsPruned)
				}
			})
		}
	}
}
