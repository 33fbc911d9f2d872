package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/faults"
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
			if syn := st.synopsis(); syn == nil || syn.NRows() != rows {
				t.Fatalf("synopsis after the cold query: %v", syn)
			}
			if st.posMap() == nil && st.jsonIdx() == nil {
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
			if st.nrows != -1 || st.posMap() != nil || st.synopsis() != nil {
				t.Fatalf("cancelled query left nrows %d, posmap %v, synopsis %v",
					st.nrows, st.posMap(), st.synopsis())
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

// TestColdScanStructuresAllocatedOnce checks the row hint end to end on a
// file whose first rows mislead it: what the cold query publishes holds at
// most 5 % spare capacity, whether the estimate ran high or low, and a
// capture keyed by row ids (a partial column) is not sized for the table.
func TestColdScanStructuresAllocatedOnce(t *testing.T) {
	const rows = 20000
	schema := []catalog.Column{
		{Name: "col1", Type: vector.Int64}, {Name: "col2", Type: vector.Int64},
		{Name: "col3", Type: vector.Int64},
	}
	render := func(wideFirst bool) []byte {
		var buf bytes.Buffer
		for r := 0; r < rows; r++ {
			v := int64(r%9 + 1)
			if (r < rows/2) == wideFirst {
				v += 1_000_000_000_000
			}
			fmt.Fprintf(&buf, "%d,%d,%d\n", r, v, v+1)
		}
		return buf.Bytes()
	}
	slack := func(t *testing.T, what string, length, capacity int) {
		t.Helper()
		if length != rows || capacity > rows+rows/20 {
			t.Errorf("%s: len %d cap %d, want len %d and cap <= 1.05 x len", what, length, capacity, rows)
		}
	}
	for _, wideFirst := range []bool{true, false} { // the estimate runs low, then high
		e := newTestEngine(t, Config{Parallelism: 1})
		if err := e.RegisterCSVData("t", render(wideFirst), schema); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query("SELECT MAX(col2), COUNT(*) FROM t WHERE col1 < 5000"); err != nil {
			t.Fatal(err)
		}
		pm := e.tables["t"].posMap()
		if pm == nil {
			t.Fatal("no positional map after the cold query")
		}
		for _, c := range pm.TrackedColumns() {
			slack(t, fmt.Sprintf("posmap column %d", c), len(pm.Positions(c)), cap(pm.Positions(c)))
		}
		shs := e.shreds.ShredsOf("t")
		if len(shs) == 0 {
			t.Fatal("no shreds after the cold query")
		}
		for _, s := range shs {
			if !s.Full() {
				t.Fatalf("cold capture of %s is partial", s.Key())
			}
			slack(t, "shred "+s.Key().String(), s.Len(), cap(s.Vector().Int64s))
		}
		// col3 is read late, for the 5000 qualifying rows only: a partial
		// capture, which must not be sized for the table.
		if _, err := e.Query("SELECT MAX(col3) FROM t WHERE col1 < 5000"); err != nil {
			t.Fatal(err)
		}
		s := e.shreds.LookupAny(shred.Key{Table: "t", Col: 2})
		if s == nil || s.Full() {
			t.Fatalf("late capture of col3: %v", s)
		}
		if c := cap(s.Vector().Int64s); c >= rows {
			t.Errorf("partial capture of %d rows holds capacity for %d", s.Len(), c)
		}
	}
}

// TestMorselCaptureReserve checks the capture tee rawScans uses for full
// columns, in isolation: an exact reservation is the very buffer that gets
// published, an overshoot is clipped to within 5 % of the length, several
// captures concatenate in span order, and a capture the plan did not drain
// publishes nothing.
func TestMorselCaptureReserve(t *testing.T) {
	const rows = 5000
	tab := &catalog.Table{Name: "t", Schema: []catalog.Column{{Name: "a", Type: vector.Int64}}}
	vals := vector.New(vector.Int64, rows)
	for i := 0; i < rows; i++ {
		vals.AppendInt64(int64(3 * i))
	}
	capture := func(lo, hi, reserve int) *morselCapture {
		t.Helper()
		child, err := exec.NewMemScan(vector.Schema{{Name: "a", Type: vector.Int64}},
			[]*vector.Vector{vals.Slice(lo, hi)}, 512)
		if err != nil {
			t.Fatal(err)
		}
		return newMorselCapture(child, tab, []int{0}, reserve)
	}
	publish := func(clip bool, caps ...*morselCapture) *shred.Shred {
		t.Helper()
		e := newTestEngine(t, Config{Parallelism: 1})
		(&planCtx{e: e}).publishCaptures(tab, []int{0}, caps, clip)
		return e.shreds.LookupAny(shred.Key{Table: "t", Col: 0})
	}
	check := func(what string, s *shred.Shred) []int64 {
		t.Helper()
		if s == nil || !s.Full() || s.Len() != rows {
			t.Fatalf("%s: published %v", what, s)
		}
		got := s.Vector().Int64s
		for i, v := range got {
			if v != int64(3*i) {
				t.Fatalf("%s: value %d = %d, want %d", what, i, v, 3*i)
			}
		}
		return got
	}

	mc := capture(0, rows, rows)
	if _, err := exec.Collect(mc); err != nil {
		t.Fatal(err)
	}
	filled := &mc.vecs[0].Int64s[0]
	got := check("exact reservation", publish(true, mc))
	if cap(got) != rows || &got[0] != filled {
		t.Errorf("exact reservation: cap %d (want %d), adopted the capture's buffer: %v", cap(got), rows, &got[0] == filled)
	}
	for _, reserve := range []int{0, rows / 3, rows + rows/50, 4 * rows} {
		mc := capture(0, rows, reserve)
		if _, err := exec.Collect(mc); err != nil {
			t.Fatal(err)
		}
		got := check(fmt.Sprintf("reservation of %d", reserve), publish(reserve > 0, mc))
		if reserve > 0 && cap(got) > rows+rows/20 {
			t.Errorf("reservation of %d for %d rows: published cap %d exceeds 1.05 x len", reserve, rows, cap(got))
		}
	}

	a, b := capture(0, rows/3, 0), capture(rows/3, rows, 0)
	for _, mc := range []*morselCapture{b, a} { // completion order is not span order
		if _, err := exec.Collect(mc); err != nil {
			t.Fatal(err)
		}
	}
	if got := check("two spans", publish(false, a, b)); cap(got) != rows {
		t.Errorf("two spans: merged cap %d, want exactly %d", cap(got), rows)
	}

	a, b = capture(0, rows/3, 0), capture(rows/3, rows, 0)
	if _, err := exec.Collect(a); err != nil {
		t.Fatal(err)
	}
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Next(); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if s := publish(false, a, b); s != nil {
		t.Errorf("an undrained capture published %v", s)
	}
}
