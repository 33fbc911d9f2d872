package engine

import (
	"testing"
)

// TestWarmQueryAllocs fences the allocations of a warm serial query and of
// its Explain, most of which planning makes: a query over full shreds (one
// resident scan), a cascade completing partial shreds from the raw file, the
// golden join against a small binary table, and generated scans alone (shreds
// off: a positional-map scan and two late reads), over a 100k-row CSV table
// under StrategyShreds. Serial shapes only: worker counts make the counts
// schedule-dependent. The ceilings are the counts measured when the fence was
// set; a change that raises one must say why, and one that lowers it should
// lower the ceiling.
func TestWarmQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := goldenTable(t, 100_000, 0)
	dim := goldenTable(t, 50, 0)
	cases := []struct {
		name           string
		noShreds       bool
		warm           []string
		sql            string
		query, explain float64
	}{
		{name: "resident",
			warm: []string{"SELECT SUM(col2) FROM t WHERE col1 < 60000"},
			sql:  "SELECT SUM(col2) FROM t WHERE col1 < 60000", query: 104, explain: 88},
		// col1 is cached whole with the positional map, col3 and col4 only for
		// the rows below 400: the cascade completes them from the raw file.
		{name: "partial cascade",
			warm: []string{"SELECT COUNT(*) FROM t WHERE col1 < 1000", "SELECT SUM(col3), MAX(col4) FROM t WHERE col1 < 400"},
			sql:  "SELECT SUM(col3), MAX(col4), COUNT(*) FROM t WHERE col1 < 2500", query: 240, explain: 149},
		{name: "join",
			warm:  []string{"SELECT MAX(t.col4), COUNT(*) FROM t, u WHERE t.col2 = u.col1 AND u.col3 < 500 AND t.col1 < 1500"},
			sql:   "SELECT MAX(t.col4), COUNT(*) FROM t, u WHERE t.col2 = u.col1 AND u.col3 < 500 AND t.col1 < 1500",
			query: 219, explain: 176},
		// Served jit:viamap(t), jit:late(t.cols2,) and jit:late(t.cols3,).
		{name: "generated", noShreds: true,
			warm: []string{"SELECT COUNT(*) FROM t WHERE col1 < 1000"},
			sql:  "SELECT SUM(col3), MAX(col4), COUNT(*) FROM t WHERE col1 < 2500", query: 176, explain: 143},
	}
	serial := 1
	opts := Options{Parallelism: &serial}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, Config{Strategy: StrategyShreds, DisableShredCache: tc.noShreds})
			if err := e.RegisterCSVData("t", g.csv, g.schema); err != nil {
				t.Fatal(err)
			}
			if err := e.RegisterBinaryData("u", dim.bin, dim.schema); err != nil {
				t.Fatal(err)
			}
			for _, q := range append(tc.warm, tc.sql) {
				queryAt(t, e, q, 1)
			}
			var err error
			query := testing.AllocsPerRun(20, func() {
				if _, qerr := e.QueryOpt(tc.sql, opts); qerr != nil {
					err = qerr
				}
			})
			explain := testing.AllocsPerRun(20, func() {
				if _, xerr := e.Explain(tc.sql, opts); xerr != nil {
					err = xerr
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("QueryOpt %.0f allocs, Explain %.0f allocs", query, explain)
			if query > tc.query {
				t.Errorf("QueryOpt allocates %.0f times, ceiling %.0f", query, tc.query)
			}
			if explain > tc.explain {
				t.Errorf("Explain allocates %.0f times, ceiling %.0f", explain, tc.explain)
			}
		})
	}
}
