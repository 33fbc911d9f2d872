package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"rawdb/internal/insitu"
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
	// plan builds q's serial pipeline without running it.
	plan := func(q string) *pipe {
		parsed, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.analyze(parsed)
		if err != nil {
			t.Fatal(err)
		}
		pc := e.newRecord(Options{}).newPlanCtx(context.Background())
		c, err := pc.cut(r)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pc.planSingle(r, c.tables[0].units[0])
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	hasRID := func(p *pipe) bool {
		for _, c := range p.ops[0].Schema() {
			if c.Name == insitu.RowIDColumn {
				return true
			}
		}
		return p.rid[0] >= 0
	}

	// Filter columns col2, col3 and output column col1: the cascade's order
	// is table columns 1, 2, 0, which is not column order.
	const q = "SELECT MAX(col1) FROM t WHERE col3 < 500 AND col2 > 10"
	queryAt(t, e, q, 1) // cold: captures all three as full shreds
	paths, hits, misses := run(q)
	if want := []string{"shred:scan(t)", "push[2](t)"}; !reflect.DeepEqual(paths, want) {
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
	if p := plan(q); hasRID(p) || len(p.ops) != 1 {
		t.Fatalf("resident plan carries a row-id column (rid %v, schema %v)", p.rid, p.ops[0].Schema())
	}

	// col4 is first fetched late, so only the rows col3 < 500 selected are
	// cached: a partial shred, which keeps the cascade.
	const partial = "SELECT MAX(col4) FROM t WHERE col3 < 500"
	queryAt(t, e, partial, 1)
	paths, hits, misses = run(partial)
	if want := []string{"shred:scan(t)", "push[1](t)", "shred:late(t.cols3,)"}; !reflect.DeepEqual(paths, want) {
		t.Fatalf("partial paths %v, want %v", paths, want)
	}
	if hits != 2 || misses != 0 {
		t.Fatalf("partial lookups: %d hits, %d misses; want 2 hits, 0 misses", hits, misses)
	}
	if p := plan(partial); !hasRID(p) {
		t.Fatalf("cascade plan without a row-id column (rid %v)", p.rid)
	}
}
