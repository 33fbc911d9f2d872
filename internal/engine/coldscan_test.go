package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/faults"
	"rawdb/internal/jsonidx"
	"rawdb/internal/offsets"
	"rawdb/internal/posmap"
	"rawdb/internal/shred"
	"rawdb/internal/vector"
)

// The cold scan is one pass: no plan-time count of the file's rows. These
// tests pin what used to lean on that count — and is now fed by the scan that
// follows — for the serial CSV and JSON paths.

// TestColdScanLearnsRows checks that one serial cold query leaves the table's
// row count known, the zone maps installed (their install compares row
// counts) and the heat fold's bytes-per-row usable, for both text formats.
func TestColdScanLearnsRows(t *testing.T) {
	const rows = 3000
	csvData, _, csvSchema, _ := testData(t, rows, 6, 31)
	jsonData, jsonSchema, _, _ := jsonTestData(t, rows, 32)
	cases := []struct {
		name     string
		register func(e *Engine) error
		sql      string
	}{
		{"csv", func(e *Engine) error { return e.RegisterCSVData("t", csvData, csvSchema) },
			"SELECT MAX(col3), COUNT(*) FROM t WHERE col1 < 300000000"},
		{"json", func(e *Engine) error { return e.RegisterJSONData("t", jsonData, jsonSchema) },
			"SELECT MAX(payload.ncells), COUNT(*) FROM t WHERE run < 30"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newTestEngine(t, Config{Parallelism: 1})
			if err := c.register(e); err != nil {
				t.Fatal(err)
			}
			st := e.tables["t"]
			if st.nrows != -1 {
				t.Fatalf("registration counted rows: nrows = %d", st.nrows)
			}
			if _, err := e.Query(c.sql); err != nil {
				t.Fatal(err)
			}
			if st.nrows != rows {
				t.Fatalf("nrows = %d after the cold query, want %d", st.nrows, rows)
			}
			if syn := st.positions().syn; syn == nil || syn.NRows() != rows {
				t.Fatalf("synopsis after the cold query: %v", syn)
			}
			if st.positions().pm == nil && st.positions().jidx == nil {
				t.Fatal("cold query published neither a positional map nor a structural index")
			}
		})
		// With no shred capture the predicate is pushed into the cold scan,
		// and the bytes it avoided are rows pruned x bytes per row: zero if
		// the row count were still unknown when the heat folds.
		t.Run(c.name+"/heat", func(t *testing.T) {
			e := newTestEngine(t, Config{Parallelism: 1, DisableShredCache: true})
			if err := c.register(e); err != nil {
				t.Fatal(err)
			}
			res, err := e.Query(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.RowsPruned == 0 {
				t.Fatalf("cold %s scan pruned nothing (paths %v)", c.name, res.Stats.AccessPaths)
			}
			if snap := e.Heat().Snapshot(); len(snap.Tables) != 1 || snap.Tables[0].BytesAvoided <= 0 {
				t.Fatalf("heat after a pruning cold scan: %+v", snap.Tables)
			}
		})
	}
}

// TestColdScanRowsReachManifest checks that the partition row counts a serial
// cold query learns — one CSV and one JSONL partition — are written to the
// dataset manifest and survive a vault restart.
func TestColdScanRowsReachManifest(t *testing.T) {
	vals, schema := sortedVals(240, 3)
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"part-0.csv":   renderRowsCSV(vals, 0, 100),
		"part-1.jsonl": renderRowsJSONL(vals, 100, 240, schema),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vaultDir := t.TempDir()
	e1 := newTestEngine(t, Config{Parallelism: 1, CacheDir: vaultDir})
	if err := e1.RegisterDataset("t", dir, schema); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Query("SELECT SUM(col2) FROM t"); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := newTestEngine(t, Config{Parallelism: 1, CacheDir: vaultDir})
	defer e2.Close()
	if err := e2.RegisterDataset("t", dir, schema); err != nil {
		t.Fatal(err)
	}
	parts := e2.tables["t"].ds.manifest.Parts
	if len(parts) != 2 || parts[0].Rows != 100 || parts[1].Rows != 140 {
		t.Fatalf("manifest after restart: %+v", parts)
	}
}

// TestCancelledColdScanPublishesNothing cancels a cold query once it has been
// planned — its positional map and capture buffers exist and are reserved —
// and checks nothing of it is left behind, the row count included, and that
// the same query then answers exactly as on an engine that never failed.
func TestCancelledColdScanPublishesNothing(t *testing.T) {
	csvData, _, schema, _ := testData(t, 4000, 6, 33)
	q := "SELECT MAX(col3), SUM(col5), COUNT(*) FROM t WHERE col1 < 400000000"
	for _, strategy := range []Strategy{StrategyShreds, StrategyInSitu, StrategyExternal} {
		t.Run(strategy.String(), func(t *testing.T) {
			ref := newTestEngine(t, Config{Parallelism: 1, Strategy: strategy})
			if err := ref.RegisterCSVData("t", csvData, schema); err != nil {
				t.Fatal(err)
			}
			want, err := ref.Query(q)
			if err != nil {
				t.Fatal(err)
			}

			e := newTestEngine(t, Config{Parallelism: 1, Strategy: strategy})
			if err := e.RegisterCSVData("t", csvData, schema); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			faults.Install(faults.NewSchedule(1, faults.Rule{
				Site: faults.SiteExecSerial, Kind: faults.Hook, Times: 1, Fn: cancel}))
			_, err = e.QueryCtx(ctx, q)
			faults.Disable()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			st := e.tables["t"]
			if st.nrows != -1 || st.positions().pm != nil || st.positions().syn != nil {
				t.Fatalf("cancelled query left nrows %d, posmap %v, synopsis %v",
					st.nrows, st.positions().pm, st.positions().syn)
			}
			if shs := e.shreds.ShredsOf("t"); len(shs) != 0 {
				t.Fatalf("cancelled query published %d shreds", len(shs))
			}
			for pass := 0; pass < 2; pass++ { // cold, then over what the cold pass built
				got, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, fmt.Sprintf("pass %d after cancel", pass), want, got)
			}
			if st.nrows != 4000 {
				t.Fatalf("nrows = %d after the re-run, want 4000", st.nrows)
			}
		})
	}
}

// coldScanSchema and renderColdScan give the allocation tests a three-column
// integer table in either text format whose rows change width half-way, so
// that an estimate from the first lines runs low (wide rows first) or high.
var coldScanSchema = []catalog.Column{
	{Name: "col1", Type: vector.Int64}, {Name: "col2", Type: vector.Int64},
	{Name: "col3", Type: vector.Int64},
}

func renderColdScan(format catalog.Format, rows int, wideFirst bool) []byte {
	var buf bytes.Buffer
	for r := 0; r < rows; r++ {
		v := int64(r%9 + 1)
		if (r < rows/2) == wideFirst {
			v += 1_000_000_000_000
		}
		if format == catalog.JSON {
			fmt.Fprintf(&buf, "{\"col1\":%d,\"col2\":%d,\"col3\":%d}\n", r, v, v+1)
		} else {
			fmt.Fprintf(&buf, "%d,%d,%d\n", r, v, v+1)
		}
	}
	return buf.Bytes()
}

func registerColdScan(t *testing.T, e *Engine, format catalog.Format, data []byte) {
	t.Helper()
	var err error
	if format == catalog.JSON {
		err = e.RegisterJSONData("t", data, coldScanSchema)
	} else {
		err = e.RegisterCSVData("t", data, coldScanSchema)
	}
	if err != nil {
		t.Fatal(err)
	}
}

const coldScanQuery = "SELECT MAX(col2), COUNT(*) FROM t WHERE col1 < 5000"

// TestColdScanStructuresAllocatedOnce checks the row hint end to end on a
// file whose first rows mislead it, for both text formats, serial (one span,
// fragment and captures adopted and clipped) and parallel (a hint per span,
// fragments linked, captures merged into exactly-sized destinations): what
// the cold query publishes holds at most 5 % spare capacity, whether the
// estimate ran high or low (shreds: at most 5 % above their values encoded
// serially), and a capture keyed by row ids (a partial column) is not sized
// for the table.
func TestColdScanStructuresAllocatedOnce(t *testing.T) {
	const rows = 20000
	for _, format := range []catalog.Format{catalog.CSV, catalog.JSON} {
		for _, workers := range []int{1, 4} {
			for _, wideFirst := range []bool{true, false} { // the estimate runs low, then high
				t.Run(fmt.Sprintf("%s/workers=%d/wideFirst=%v", format, workers, wideFirst), func(t *testing.T) {
					e := newTestEngine(t, Config{Parallelism: workers})
					registerColdScan(t, e, format, renderColdScan(format, rows, wideFirst))
					res, err := e.Query(coldScanQuery)
					if err != nil {
						t.Fatal(err)
					}
					if par := strings.HasPrefix(res.Stats.AccessPaths[0], "par["); par != (workers > 1) {
						t.Fatalf("access paths at Parallelism %d: %v", workers, res.Stats.AccessPaths)
					}
					st := e.tables["t"]
					// The positional structure links its fragments' chunks: it holds at
					// most 5 % more than the same offsets chunked by one serial pass.
					var got, ref int64
					if pm := st.positions().pm; pm != nil {
						var pos [][]int64
						for _, c := range pm.TrackedColumns() {
							pos = append(pos, pm.Positions(c).Decode(nil, 0, rows))
						}
						serial, err := posmap.Restore(pm.TrackedColumns(), pos, rows)
						if err != nil {
							t.Fatal(err)
						}
						got, ref = pm.MemoryFootprint(), serial.MemoryFootprint()
					} else if idx := st.positions().jidx; idx != nil {
						paths := map[string][]int64{}
						for _, p := range idx.TrackedPaths() {
							paths[p] = idx.Peek(p).Decode(nil, 0, rows)
						}
						got = idx.MemoryFootprint()
						ref = jsonidx.Restore(idx.RowStarts().Decode(nil, 0, rows), paths).MemoryFootprint()
					} else {
						t.Fatal("no positional structure after the cold query")
					}
					if got > ref+ref/20 {
						t.Errorf("positional structure holds %d bytes, %d when chunked serially", got, ref)
					}
					shs := e.shreds.ShredsOf("t")
					if len(shs) == 0 {
						t.Fatal("no shreds after the cold query")
					}
					for _, s := range shs {
						if !s.Full() {
							t.Fatalf("cold capture of %s is partial", s.Key())
						}
						if got, ref := s.SizeBytes(), narrowBytes(s.Values().Int64s); s.Len() != rows || got > ref+ref/20 {
							t.Errorf("shred %s: %d rows in %d bytes, want %d rows in at most 1.05 x %d", s.Key(), s.Len(), got, rows, ref)
						}
					}
					if workers > 1 {
						return // the parallel plan reads col3 in full next
					}
					// col3 is read late, for the 5000 qualifying rows only: a partial
					// capture, which must not be sized for the table.
					if _, err := e.Query("SELECT MAX(col3) FROM t WHERE col1 < 5000"); err != nil {
						t.Fatal(err)
					}
					s := e.shreds.Lookup(shred.Key{Table: "t", Col: 2})
					if s == nil || s.Full() {
						t.Fatalf("late capture of col3: %v", s)
					}
					if got, ref := s.SizeBytes(), narrowBytes(s.Values().Int64s)+narrowBytes(s.RowIDs()); got > ref+ref/20 {
						t.Errorf("partial capture of %d rows holds %d bytes, %d encoded serially", s.Len(), got, ref)
					}
				})
			}
		}
	}
}

// TestParallelColdScanMatchesSerial checks that what one parallel cold query
// leaves behind — the row count, the zone maps' extent and columns, the heat
// fold — is what the serial run leaves, for both text formats.
func TestParallelColdScanMatchesSerial(t *testing.T) {
	const rows = 20000
	for _, format := range []catalog.Format{catalog.CSV, catalog.JSON} {
		t.Run(format.String(), func(t *testing.T) {
			data := renderColdScan(format, rows, true)
			var left []string
			for _, workers := range []int{1, 4} {
				e := newTestEngine(t, Config{Parallelism: workers})
				registerColdScan(t, e, format, data)
				if _, err := e.Query(coldScanQuery); err != nil {
					t.Fatal(err)
				}
				st := e.tables["t"]
				syn := st.positions().syn
				if syn == nil {
					t.Fatalf("no synopsis at Parallelism %d", workers)
				}
				var cols []int
				for _, c := range syn.Columns() {
					cols = append(cols, c.Col)
				}
				left = append(left, fmt.Sprintf("nrows %d, synopsis over %d rows of columns %v, heat %+v",
					st.nrows, syn.NRows(), cols, e.Heat().Snapshot()))
			}
			if left[0] != left[1] {
				t.Errorf("serial left    %s\nparallel left  %s", left[0], left[1])
			}
		})
	}
}

// TestParallelColdScanAllocationsDoNotScale checks that nothing in the
// parallel cold path allocates per row or per doubling: the heap allocations
// of one cold query over eight times the rows stay within a small constant of
// the smaller query's (about 120 more: the zone maps' per-block bounds; append
// regrowth of per-span fragments and captures used to add 300 to 450).
func TestParallelColdScanAllocationsDoNotScale(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a 400k-row file")
	}
	for _, format := range []catalog.Format{catalog.CSV, catalog.JSON} {
		t.Run(format.String(), func(t *testing.T) {
			mallocs := func(rows int) uint64 {
				data := renderColdScan(format, rows, true)
				e := newTestEngine(t, Config{Parallelism: 4})
				registerColdScan(t, e, format, data)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := e.Query(coldScanQuery); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			small, large := mallocs(50_000), mallocs(400_000)
			t.Logf("%d allocations at 50k rows, %d at 400k rows", small, large)
			if large > small+200 {
				t.Errorf("%d allocations at 50k rows, %d at 400k rows: the cold path allocates as it goes", small, large)
			}
		})
	}
}

// TestColdTextMorselsBounded checks the size bound on a cold text morsel: a
// file of more than coldMorselBytes per requested morsel is cut into one span
// per coldMorselBytes (so that a worker on a faster core takes more of them),
// a smaller file into the two per worker the planner asks for, and what the
// finer cut publishes is what the serial scan publishes.
func TestColdTextMorselsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a 500k-row file")
	}
	for _, format := range []catalog.Format{catalog.CSV, catalog.JSON} {
		t.Run(format.String(), func(t *testing.T) {
			for _, rows := range []int{20_000, 500_000} {
				data := renderColdScan(format, rows, true)
				want := max(4, len(data)/coldMorselBytes)
				if big := rows > 20_000; big != (want > 4) {
					t.Fatalf("%d rows render %d bytes: %d morsels", rows, len(data), want)
				}
				var left []map[string][]byte
				for _, workers := range []int{1, 2} {
					e := newTestEngine(t, Config{Parallelism: workers})
					registerColdScan(t, e, format, data)
					res, err := e.Query(coldScanQuery)
					if err != nil {
						t.Fatal(err)
					}
					if path := res.Stats.AccessPaths[0]; workers > 1 && !strings.HasPrefix(path, fmt.Sprintf("par[%d]:", want)) {
						t.Errorf("%d bytes at Parallelism %d read as %s, want %d morsels", len(data), workers, path, want)
					}
					st := e.tables["t"]
					if st.nrows != int64(rows) {
						t.Errorf("nrows = %d at Parallelism %d, want %d", st.nrows, workers, rows)
					}
					state := encodeState(e, st)
					delete(state, "synopsis") // its blocks end where the spans do
					left = append(left, state)
				}
				for what, serial := range left[0] {
					if !bytes.Equal(serial, left[1][what]) {
						t.Errorf("%d rows: the %s the morsels merged into differs from the serial scan's", rows, what)
					}
				}
				if len(left[0]) != len(left[1]) || len(left[0]) == 0 {
					t.Errorf("%d rows: serial left %d structures, parallel %d", rows, len(left[0]), len(left[1]))
				}
			}
		})
	}
}

// TestCancelledParallelColdJSONPublishesNothing cancels a parallel cold JSON
// query as its first morsel starts — every span's fragment and captures exist
// and are reserved — and checks that nothing of it is left behind and that the
// same query then answers exactly as on an engine that never failed.
func TestCancelledParallelColdJSONPublishesNothing(t *testing.T) {
	const rows = 20000
	data := renderColdScan(catalog.JSON, rows, false)
	q := "SELECT MAX(col2), SUM(col3), COUNT(*) FROM t WHERE col1 < 5000"
	ref := newTestEngine(t, Config{Parallelism: 4})
	registerColdScan(t, ref, catalog.JSON, data)
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	e := newTestEngine(t, Config{Parallelism: 4})
	registerColdScan(t, e, catalog.JSON, data)
	ctx, cancel := context.WithCancel(context.Background())
	faults.Install(faults.NewSchedule(1, faults.Rule{
		Site: faults.SiteExecMorsel, Kind: faults.Hook, Times: 1, Fn: cancel}))
	_, err = e.QueryCtx(ctx, q)
	faults.Disable()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := e.tables["t"]
	if st.nrows != -1 || st.positions().jidx != nil || st.positions().syn != nil {
		t.Fatalf("cancelled query left nrows %d, jsonidx %v, synopsis %v", st.nrows, st.positions().jidx, st.positions().syn)
	}
	if shs := e.shreds.ShredsOf("t"); len(shs) != 0 {
		t.Fatalf("cancelled query published %d shreds", len(shs))
	}
	for pass := 0; pass < 2; pass++ { // cold, then over what the cold pass built
		got, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("pass %d after cancel", pass), want, got)
	}
	if st.nrows != rows {
		t.Fatalf("nrows = %d after the re-run, want %d", st.nrows, rows)
	}
	refIdx, idx := ref.tables["t"].positions().jidx, st.positions().jidx
	if !slices.Equal(refIdx.RowStarts().Decode(nil, 0, rows), idx.RowStarts().Decode(nil, 0, rows)) ||
		!slices.Equal(refIdx.TrackedPaths(), idx.TrackedPaths()) {
		t.Fatal("the re-run's structural index differs from the one a clean run builds")
	}
	for _, p := range idx.TrackedPaths() {
		if !slices.Equal(refIdx.Positions(p).Decode(nil, 0, rows), idx.Positions(p).Decode(nil, 0, rows)) {
			t.Fatalf("the re-run's offsets of %s differ from a clean run's", p)
		}
	}
}

// TestMorselCaptureReserve checks the capture tee captureCols uses for full
// columns, in isolation. A flat (Float64) column: an exact reservation is the
// very buffer that gets published, an overshoot is clipped to within 5 % of
// the length, and several captures concatenate in span order. An Int64
// column is encoded as it comes, and several captures link in span order
// into a column within 5 % of one encoded serially. A capture the plan did
// not drain publishes nothing.
func TestMorselCaptureReserve(t *testing.T) {
	const rows = 5000
	ints, floats := vector.New(vector.Int64, rows), vector.New(vector.Float64, rows)
	for i := 0; i < rows; i++ {
		ints.AppendInt64(int64(3 * i))
		floats.AppendFloat64(float64(3 * i))
	}
	capture := func(vals *vector.Vector, lo, hi, reserve int) *morselCapture {
		t.Helper()
		child, err := exec.NewMemScan(vector.Schema{{Name: "a", Type: vals.Type}},
			[]*vector.Vector{vals.Slice(lo, hi)}, 512)
		if err != nil {
			t.Fatal(err)
		}
		return &morselCapture{child: child, pos: []int{0}, rid: -1, reserve: reserve}
	}
	publish := func(caps ...*morselCapture) *shred.Shred {
		t.Helper()
		e := newTestEngine(t, Config{Parallelism: 1})
		tab := &catalog.Table{Name: "t", Schema: []catalog.Column{{Name: "a", Type: caps[0].child.Schema()[0].Type}}}
		e.newRecord(Options{}).newPlanCtx(context.Background()).putTee(tee{tab, []int{0}, caps})
		return e.shreds.Lookup(shred.Key{Table: "t", Col: 0})
	}
	check := func(what string, s *shred.Shred) *vector.Vector {
		t.Helper()
		if s == nil || !s.Full() || s.Len() != rows {
			t.Fatalf("%s: published %v", what, s)
		}
		got := s.Values()
		for i := range rows {
			if v := got.Value(i); v != int64(3*i) && v != float64(3*i) {
				t.Fatalf("%s: value %d = %v, want %d", what, i, v, 3*i)
			}
		}
		return got
	}
	drain := func(caps ...*morselCapture) {
		t.Helper()
		for _, mc := range caps {
			if _, err := exec.Collect(mc); err != nil {
				t.Fatal(err)
			}
		}
	}

	mc := capture(floats, 0, rows, rows)
	drain(mc)
	filled := &mc.vecs[0].Float64s[0]
	got := check("exact reservation", publish(mc)).Float64s
	if cap(got) != rows || &got[0] != filled {
		t.Errorf("exact reservation: cap %d (want %d), adopted the capture's buffer: %v", cap(got), rows, &got[0] == filled)
	}
	for _, reserve := range []int{0, rows / 3, rows + rows/50, 4 * rows} {
		mc := capture(floats, 0, rows, reserve)
		drain(mc)
		got := check(fmt.Sprintf("reservation of %d", reserve), publish(mc)).Float64s
		if cap(got) > rows+rows/20 {
			t.Errorf("reservation of %d for %d rows: published cap %d exceeds 1.05 x len", reserve, rows, cap(got))
		}
	}
	a, b := capture(floats, 0, rows/3, 0), capture(floats, rows/3, rows, 0)
	drain(b, a) // completion order is not span order
	if got := check("two spans", publish(a, b)).Float64s; cap(got) != rows {
		t.Errorf("two spans: merged cap %d, want exactly %d", cap(got), rows)
	}

	serial := narrowBytes(ints.Int64s)
	a, b = capture(ints, 0, rows/3, 0), capture(ints, rows/3, rows, 0)
	drain(b, a)
	mc = capture(ints, 0, rows, rows)
	drain(mc)
	for what, s := range map[string]*shred.Shred{"one Int64 span": publish(mc), "two Int64 spans": publish(a, b)} {
		check(what, s)
		if got := s.SizeBytes(); got > serial+serial/20 {
			t.Errorf("%s: %d bytes, %d encoded serially", what, got, serial)
		}
	}

	a, b = capture(ints, 0, rows/3, 0), capture(ints, rows/3, rows, 0)
	drain(a)
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Next(); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if s := publish(a, b); s != nil {
		t.Errorf("an undrained capture published %v", s)
	}
}

// narrowBytes is what vals take encoded serially into one chunked column.
func narrowBytes(vals []int64) int64 {
	c := offsets.New(nil)
	for _, v := range vals {
		c.Append(v)
	}
	c.Clip()
	return c.Bytes()
}

// TestColdJSONValueNeverSpansRows feeds the cold JSON scan rows whose first
// unread member is cut short — a misspelt literal, an escape up against the
// newline. Skipping it must not swallow the row terminator: the query fails
// on row 0, with the same error serial and parallel, instead of fusing the
// first two lines into one row (and answering differently once a morsel
// boundary falls between them).
func TestColdJSONValueNeverSpansRows(t *testing.T) {
	schema := []catalog.Column{{Name: "run", Type: vector.Int64}}
	for _, head := range []string{`{"a":n}`, `{"a":tru}`, `{"a":"x\`} {
		data := []byte(head + "\n" + `{"run":1}` + "\n" + `{"run":2}` + "\n")
		var errs []string
		for _, workers := range []int{1, 4} {
			e := newTestEngine(t, Config{Parallelism: workers})
			if err := e.RegisterJSONData("t", data, schema); err != nil {
				t.Fatal(err)
			}
			res, err := e.Query("SELECT COUNT(*), SUM(run) FROM t")
			if err == nil {
				t.Fatalf("%s at Parallelism %d: answered %v (paths %v), want an error on row 0",
					head, workers, res.Columns, res.Stats.AccessPaths)
			}
			errs = append(errs, err.Error())
		}
		if errs[0] != errs[1] || !strings.Contains(errs[0], "row 0") {
			t.Errorf("%s: serial error %q, parallel error %q", head, errs[0], errs[1])
		}
	}
}
