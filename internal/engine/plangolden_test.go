package engine

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/obs"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/storage/jsonfile"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*.golden files of the tests run from the current engine")

// goldenData is one logical table — col1 a sorted key (zone maps are
// selective), col2..col5 pseudo-random — rendered in every raw format.
type goldenData struct {
	schema         []catalog.Column
	cols           []*vector.Vector
	csv, json, bin []byte
	root           []byte
}

func goldenTable(t *testing.T, rows int, keyBase int64) *goldenData {
	t.Helper()
	const ncols = 5
	g := &goldenData{}
	types := make([]vector.Type, ncols)
	fields := make([]jsonfile.Field, ncols)
	for c := 0; c < ncols; c++ {
		name := fmt.Sprintf("col%d", c+1)
		types[c] = vector.Int64
		g.schema = append(g.schema, catalog.Column{Name: name, Type: vector.Int64})
		g.cols = append(g.cols, vector.New(vector.Int64, rows))
		fields[c] = jsonfile.Field{Path: name, Type: vector.Int64}
	}
	var cbuf, jbuf, bbuf, rbuf bytes.Buffer
	cw := csvfile.NewWriter(&cbuf, types)
	jw, err := jsonfile.NewWriter(&jbuf, fields)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := binfile.NewWriter(&bbuf, types, int64(rows))
	if err != nil {
		t.Fatal(err)
	}
	rw := rootfile.NewWriter(&rbuf, rootfile.Options{BasketEntries: 64})
	tw := rw.Tree("t")
	branches := make([]*rootfile.BranchWriter, ncols)
	for c := range branches {
		branches[c] = tw.Branch(g.schema[c].Name, vector.Int64)
	}
	row := make([]int64, ncols)
	for r := 0; r < rows; r++ {
		k := keyBase + int64(r)
		row[0] = k
		row[1] = k % 50
		row[2] = (k * 7919) % 1000
		row[3] = (k * 104729) % 100_000
		row[4] = (k * 31) % 777
		for c, v := range row {
			g.cols[c].AppendInt64(v)
			branches[c].AppendInt64(v)
		}
		if err := cw.WriteRow(row, nil); err != nil {
			t.Fatal(err)
		}
		if err := jw.WriteRow(row, nil); err != nil {
			t.Fatal(err)
		}
		if err := bw.WriteRow(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range []error{cw.Flush(), jw.Flush(), bw.Close(), rw.Close()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	g.csv, g.json, g.bin, g.root = cbuf.Bytes(), jbuf.Bytes(), bbuf.Bytes(), rbuf.Bytes()
	return g
}

// goldenQuery is one step of a scenario's cache-state arc.
type goldenQuery struct {
	state, sql string
	noCapture  bool
}

var spanTimes = regexp.MustCompile(` (time|busy)=\S+`)

// TestPlanGolden pins what the planner decides — not what the scans compute
// — for every strategy × format × cache state × worker count × pushdown
// setting, and for the shred cascade's two knobs (multi-column late scans,
// join placement): the Explain text, the access paths and prune counters, the
// fallback reason, the lifecycle events, the span tree (times stripped;
// bench/trace.go keys on the span-name prefixes) and the shred pool's lookup
// hits and misses, whose order drives the pool's LRU. Regenerate with
// `go test ./internal/engine -run TestPlanGolden -update-golden` and review
// the diff: every changed line is a planner behaviour change.
func TestPlanGolden(t *testing.T) {
	const rows = 3000
	big := goldenTable(t, rows, 0)
	tiny := goldenTable(t, 1, 0)
	dim := goldenTable(t, 50, 0)
	third := []*goldenData{goldenTable(t, rows/3, 0), goldenTable(t, rows/3, rows/3), goldenTable(t, rows/3, 2*rows/3)}

	formats := []struct {
		name     string
		register func(e *Engine) error
	}{
		{"csv", func(e *Engine) error { return e.RegisterCSVData("t", big.csv, big.schema) }},
		{"json", func(e *Engine) error { return e.RegisterJSONData("t", big.json, big.schema) }},
		{"binary", func(e *Engine) error { return e.RegisterBinaryData("t", big.bin, big.schema) }},
		{"root", func(e *Engine) error {
			return e.RegisterRootData("t", big.root, "t", big.schema)
		}},
		{"memory", func(e *Engine) error { return e.RegisterMemory("t", big.schema, big.cols) }},
		{"dataset", func(e *Engine) error {
			return e.RegisterDatasetParts("t", []DataPart{
				{Format: catalog.CSV, Data: third[0].csv},
				{Format: catalog.JSON, Data: third[1].json},
				{Format: catalog.Binary, Data: third[2].bin},
			}, big.schema)
		}},
		{"tiny", func(e *Engine) error { return e.RegisterCSVData("t", tiny.csv, tiny.schema) }},
	}
	const filter = "SELECT MAX(col2) FROM t WHERE col1 < 600"
	const other = "SELECT MAX(col4), COUNT(*) FROM t WHERE col1 < 600 AND col3 > 500"
	const fresh = "SELECT MIN(col5) FROM t WHERE col1 < 600"
	single := []goldenQuery{
		{"cold", filter, false},
		{"warm-repeat", filter, false},
		{"warm-other-columns", other, false},
		{"warm-other-repeat", other, false},
		{"no-capture", fresh, true},
		{"after-no-capture", fresh, false},
	}
	const join1 = "SELECT MAX(t.col4), COUNT(*) FROM t, u WHERE t.col2 = u.col1 AND u.col3 < 500 AND t.col1 < 1500"
	const join2 = "SELECT MAX(u.col4), MIN(t.col5) FROM t, u WHERE t.col2 = u.col1 AND t.col1 < 1500"
	join := []goldenQuery{
		{"cold", join1, false},
		{"warm-repeat", join1, false},
		{"warm-other-columns", join2, false},
		{"warm-other-repeat", join2, false},
	}
	strategies := []struct {
		name    string
		strat   Strategy
		noCache bool
	}{
		{"dbms", StrategyDBMS, false},
		{"external", StrategyExternal, false},
		{"insitu", StrategyInSitu, false},
		{"jit", StrategyJIT, false},
		{"shreds", StrategyShreds, false},
		// Without shred capture the raw-file scans absorb predicates and skip
		// by zone map (capture wins that arbitration otherwise).
		{"jit-noshredcache", StrategyJIT, true},
	}

	registerJoin := func(e *Engine) error {
		if err := e.RegisterCSVData("t", big.csv, big.schema); err != nil {
			return err
		}
		return e.RegisterBinaryData("u", dim.bin, dim.schema)
	}

	var out strings.Builder
	scenario := func(label string, cfg Config, workers int, register func(e *Engine) error, queries []goldenQuery) {
		var events []obs.Event
		cfg.SynopsisBlockRows = 256
		cfg.OnEvent = func(ev obs.Event) { events = append(events, ev) }
		e := newTestEngine(t, cfg)
		if err := register(e); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		lookups := func() [2]int64 {
			snap := e.Metrics().Snapshot()
			return [2]int64{snap["shred.lookup.hits"], snap["shred.lookup.misses"]}
		}
		for _, q := range queries {
			fmt.Fprintf(&out, "=== %s %s\n%s\n", label, q.state, q.sql)
			opts := Options{Parallelism: &workers}
			if q.noCapture {
				opts.NoCapture = &q.noCapture
			}
			before := lookups()
			plan, err := e.Explain(q.sql, opts)
			if err != nil {
				fmt.Fprintf(&out, "explain error: %v\n", err)
			} else {
				out.WriteString(plan)
			}
			explained := lookups()
			events = events[:0]
			opts.Trace = obs.NewTrace()
			res, err := e.QueryOpt(q.sql, opts)
			queried := lookups()
			fmt.Fprintf(&out, "pool lookups: explain hits=%d misses=%d, query hits=%d misses=%d\n",
				explained[0]-before[0], explained[1]-before[1], queried[0]-explained[0], queried[1]-explained[1])
			if err != nil {
				fmt.Fprintf(&out, "query error: %v\n", err)
			} else {
				s := res.Stats
				fmt.Fprintf(&out, "result:")
				for c := 0; c < len(res.Columns) && res.NumRows() > 0; c++ {
					fmt.Fprintf(&out, " %v", res.Value(0, c))
				}
				fmt.Fprintf(&out, " (%d rows)\n", res.NumRows())
				fmt.Fprintf(&out, "paths: %s\n", strings.Join(s.AccessPaths, " "))
				fmt.Fprintf(&out, "fallback: %q %q\n", s.ParallelFallback, s.ParallelFallbackDetail)
				fmt.Fprintf(&out, "pushed=%d rowsPruned=%d blocksSkipped=%d morselsSkipped=%d shredHits=%d\n",
					s.PredsPushed, s.RowsPruned, s.BlocksSkipped, s.MorselsSkipped, s.ShredHits)
				fmt.Fprintf(&out, "partsScanned=%d partsSkipped=%d loaded=%v\n",
					s.PartitionsScanned, s.PartitionsSkipped, s.LoadedTables)
			}
			// Sorted: which events a query emits is pinned, their order within
			// one publish phase is not (serial and parallel plans differ).
			lines := make([]string, len(events))
			for i, ev := range events {
				lines[i] = fmt.Sprintf("event: %s %s %s#%s bytes=%d %s\n",
					ev.Kind, ev.Structure, ev.Table, ev.Partition, ev.Bytes, ev.Reason)
			}
			sort.Strings(lines)
			out.WriteString(strings.Join(lines, ""))
			tree := spanTimes.ReplaceAllString(opts.Trace.Render(), "")
			out.WriteString(strings.Replace(tree, fmt.Sprintf("query=%d\n", opts.Trace.QueryID()), "", 1))
		}
	}
	for _, st := range strategies {
		for _, workers := range []int{1, 4} {
			for _, push := range []bool{true, false} {
				cfg := Config{Strategy: st.strat, DisableShredCache: st.noCache, DisablePushdown: !push}
				for _, f := range formats {
					label := fmt.Sprintf("%s/%s/workers=%d/pushdown=%v", st.name, f.name, workers, push)
					scenario(label, cfg, workers, f.register, single)
				}
				label := fmt.Sprintf("%s/join(csv,binary)/workers=%d/pushdown=%v", st.name, workers, push)
				scenario(label, cfg, workers, registerJoin, join)
			}
		}
	}
	// The shred cascade's knobs, which the default configuration leaves off:
	// one multi-column late scan, and join-projected columns created before
	// the join (intermediate) or at the base scan (early).
	knobs := []struct {
		name string
		cfg  Config
	}{
		{"multi", Config{Strategy: StrategyShreds, MultiColumnShreds: true}},
		{"intermediate", Config{Strategy: StrategyShreds, JoinPlacement: PlaceIntermediate}},
		{"early", Config{Strategy: StrategyShreds, JoinPlacement: PlaceEarly}},
	}
	for _, k := range knobs {
		for _, workers := range []int{1, 4} {
			for _, f := range formats {
				if f.name == "csv" || f.name == "json" || f.name == "dataset" {
					label := fmt.Sprintf("shreds-%s/%s/workers=%d", k.name, f.name, workers)
					scenario(label, k.cfg, workers, f.register, single)
				}
			}
			label := fmt.Sprintf("shreds-%s/join(csv,binary)/workers=%d", k.name, workers)
			scenario(label, k.cfg, workers, registerJoin, join)
		}
	}

	checkGolden(t, filepath.Join("testdata", "plans.golden"), out.String())
}

// checkGolden compares got with the golden file at path, or rewrites the file
// under -update-golden. A mismatch reports the first differing line and the
// "=== " section it belongs to.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				section := ""
				for j := i; j >= 0; j-- {
					if strings.HasPrefix(gl[j], "=== ") {
						section = gl[j]
						break
					}
				}
				t.Fatalf("output differs from %s at line %d (%s):\n got: %s\nwant: %s\n(-update-golden rewrites the file)",
					path, i+1, section, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
