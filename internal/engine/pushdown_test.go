package engine

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/vector"
)

// sortedTestData renders rows with col1 strictly ascending (clustered key)
// and col2 descending, in CSV and JSONL form.
func sortedTestData(rows int) (csvData, jsonData []byte, schema []catalog.Column) {
	schema = []catalog.Column{
		{Name: "col1", Type: vector.Int64},
		{Name: "col2", Type: vector.Int64},
	}
	var cb, jb bytes.Buffer
	for r := 0; r < rows; r++ {
		fmt.Fprintf(&cb, "%d,%d\n", r*10, (rows-r)*10)
		fmt.Fprintf(&jb, "{\"col1\":%d,\"col2\":%d}\n", r*10, (rows-r)*10)
	}
	return cb.Bytes(), jb.Bytes(), schema
}

// registerFormat registers one rendering of testData under name "t".
func registerFormat(t *testing.T, e *Engine, format string, csvData, binData []byte,
	schema []catalog.Column) {
	t.Helper()
	var err error
	switch format {
	case "csv":
		err = e.RegisterCSVData("t", csvData, schema)
	case "bin":
		err = e.RegisterBinaryData("t", binData, schema)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestPushdownParityAndStats runs the same selective query with pushdown off
// and on (shred cache off so raw-file scans absorb the predicates), checking
// bit-identical results, absorbed-predicate accounting and in-scan pruning,
// serial and morsel-parallel, cold and warm.
func TestPushdownParityAndStats(t *testing.T) {
	csvData, binData, schema, vals := testData(t, 500, 6, 42)
	const q = "SELECT MAX(col3), COUNT(*) FROM t WHERE col1 < 100000000 AND col5 > 500000000"
	refMax, refN := int64(0), 0
	for _, row := range vals {
		if row[0] < 100_000_000 && row[4] > 500_000_000 {
			if refN == 0 || row[2] > refMax {
				refMax = row[2]
			}
			refN++
		}
	}
	if refN == 0 {
		t.Fatal("test data yields an empty result; pick another seed")
	}
	for _, format := range []string{"csv", "bin"} {
		for _, workers := range []int{1, 4} {
			for _, warm := range []bool{false, true} {
				mk := func(disable bool) *Engine {
					e := newTestEngine(t, Config{
						Strategy:          StrategyJIT,
						PosMapPolicy:      posmapPolicy(2),
						Parallelism:       workers,
						DisableShredCache: true,
						DisablePushdown:   disable,
						DisableZoneMaps:   disable,
					})
					registerFormat(t, e, format, csvData, binData, schema)
					if warm {
						if _, err := e.Query("SELECT COUNT(*) FROM t WHERE col1 >= 0"); err != nil {
							t.Fatal(err)
						}
					}
					return e
				}
				label := fmt.Sprintf("%s/workers=%d/warm=%v", format, workers, warm)
				off, err := mk(true).Query(q)
				if err != nil {
					t.Fatalf("%s off: %v", label, err)
				}
				on, err := mk(false).Query(q)
				if err != nil {
					t.Fatalf("%s on: %v", label, err)
				}
				for _, res := range []*Result{off, on} {
					if res.NumRows() != 1 || res.Int64(0, 0) != refMax || res.Int64(0, 1) != int64(refN) {
						t.Fatalf("%s: got (%d, %d), want (%d, %d)", label,
							res.Int64(0, 0), res.Int64(0, 1), refMax, int64(refN))
					}
				}
				if off.Stats.PredsPushed != 0 || off.Stats.RowsPruned != 0 {
					t.Fatalf("%s: pushdown-off query reported pushdown stats: %+v", label, off.Stats)
				}
				if on.Stats.PredsPushed != 2 {
					t.Fatalf("%s: PredsPushed = %d, want 2 (paths %v)", label,
						on.Stats.PredsPushed, on.Stats.AccessPaths)
				}
				if on.Stats.RowsPruned == 0 {
					t.Fatalf("%s: no rows pruned in-scan: %+v", label, on.Stats)
				}
			}
		}
	}
}

// TestCaptureWinsOverPushdown pins the capture-vs-pruning policy: with the
// shred cache active, raw-file scans keep full capture (no absorption), so
// the warm-up arc is unchanged — and the warm shred scan then absorbs the
// predicate instead.
func TestCaptureWinsOverPushdown(t *testing.T) {
	csvData, _, schema, _ := testData(t, 300, 4, 7)
	e := newTestEngine(t, Config{Strategy: StrategyJIT, PosMapPolicy: posmapPolicy(2)})
	if err := e.RegisterCSVData("t", csvData, schema); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT MAX(col2) FROM t WHERE col1 < 500000000"
	cold, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.PredsPushed != 0 {
		t.Fatalf("cold query absorbed predicates despite active capture: %+v", cold.Stats)
	}
	warm, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.ShredHits != 2 {
		t.Fatalf("warm shred hits = %d (capture was sacrificed?): %v",
			warm.Stats.ShredHits, warm.Stats.AccessPaths)
	}
	if warm.Stats.PredsPushed != 1 {
		t.Fatalf("warm shred scan did not absorb the predicate: %+v", warm.Stats)
	}
	if cold.Int64(0, 0) != warm.Int64(0, 0) {
		t.Fatalf("cold %d != warm %d", cold.Int64(0, 0), warm.Int64(0, 0))
	}
}

// TestZoneMapSkipping exercises block- and morsel-level pruning over a
// sorted key with small synopsis blocks: the selective warm query must skip
// most of the file and still agree with the unpruned plan, for CSV, JSONL
// and binary, serial and parallel. The >90% morsel criterion of the sorted
// sweep is asserted at workers=8.
func TestZoneMapSkipping(t *testing.T) {
	const rows = 4000
	csvData, jsonData, schema := sortedTestData(rows)
	for _, format := range []string{"csv", "json"} {
		for _, workers := range []int{1, 8} {
			mk := func(noZones bool) *Engine {
				e := newTestEngine(t, Config{
					Strategy:          StrategyJIT,
					PosMapPolicy:      posmapPolicy(1),
					Parallelism:       workers,
					DisableShredCache: true,
					DisableZoneMaps:   noZones,
					SynopsisBlockRows: 64,
				})
				var rerr error
				if format == "csv" {
					rerr = e.RegisterCSVData("t", csvData, schema)
				} else {
					rerr = e.RegisterJSONData("t", jsonData, schema)
				}
				if rerr != nil {
					t.Fatal(rerr)
				}
				// Warm-up builds the positional map / structural index and,
				// with zone maps on, the synopsis. It touches both columns so
				// the JSON structural index tracks both paths (a scan needing
				// adaptive recording must visit every row and cannot skip).
				if _, err := e.Query("SELECT MAX(col2) FROM t WHERE col1 >= 0"); err != nil {
					t.Fatal(err)
				}
				return e
			}
			// Rows 0..9 qualify: 0.25% of the sorted key range.
			const q = "SELECT COUNT(*), MAX(col2) FROM t WHERE col1 < 100"
			label := fmt.Sprintf("%s/workers=%d", format, workers)
			off, err := mk(true).Query(q)
			if err != nil {
				t.Fatalf("%s off: %v", label, err)
			}
			on, err := mk(false).Query(q)
			if err != nil {
				t.Fatalf("%s on: %v", label, err)
			}
			if off.Int64(0, 0) != 10 || on.Int64(0, 0) != 10 ||
				off.Int64(0, 1) != on.Int64(0, 1) || on.Int64(0, 1) != int64(rows)*10 {
				t.Fatalf("%s: pruned/unpruned disagree: off=(%d,%d) on=(%d,%d)", label,
					off.Int64(0, 0), off.Int64(0, 1), on.Int64(0, 0), on.Int64(0, 1))
			}
			if off.Stats.BlocksSkipped != 0 || off.Stats.MorselsSkipped != 0 {
				t.Fatalf("%s: zone maps off but pruning happened: %+v", label, off.Stats)
			}
			if workers == 1 {
				if on.Stats.BlocksSkipped == 0 {
					t.Fatalf("%s: no blocks skipped on sorted key: %+v", label, on.Stats)
				}
			} else {
				total := workers * morselsPerWorker
				if on.Stats.MorselsSkipped*10 < total*9 {
					t.Fatalf("%s: only %d of %d morsels skipped (<90%%): %v", label,
						on.Stats.MorselsSkipped, total, on.Stats.AccessPaths)
				}
			}
		}
	}
}

// TestZoneMapNaNSoundness reproduces the unsound-pruning hazard of NaN
// float values (which satisfy every "<>" predicate but do not order): a
// binary column of 5.0s plus one NaN must return the NaN row for
// "f <> 5.0" identically with zone maps on and off — the synopsis widens
// the NaN block to unbounded rather than silently dropping the value.
func TestZoneMapNaNSoundness(t *testing.T) {
	const rows = 200
	schema := []catalog.Column{
		{Name: "id", Type: vector.Int64},
		{Name: "f", Type: vector.Float64},
	}
	var bb bytes.Buffer
	bw, err := binfile.NewWriter(&bb, []vector.Type{vector.Int64, vector.Float64}, rows)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		v := 5.0
		if r == rows/2 {
			v = math.NaN()
		}
		if err := bw.WriteRow([]int64{int64(r)}, []float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, noZones := range []bool{true, false} {
		e := newTestEngine(t, Config{
			Strategy:          StrategyJIT,
			DisableShredCache: true,
			DisableZoneMaps:   noZones,
			SynopsisBlockRows: 16,
		})
		if err := e.RegisterBinaryData("t", bb.Bytes(), schema); err != nil {
			t.Fatal(err)
		}
		// Warm-up builds the synopsis over both columns.
		if _, err := e.Query("SELECT MAX(f) FROM t WHERE id >= 0"); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query("SELECT COUNT(*) FROM t WHERE f <> 5.0")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Int64(0, 0); got != 1 {
			t.Fatalf("zonemaps-off=%v: COUNT(f <> 5.0) = %d, want 1 (the NaN row)", noZones, got)
		}
	}
}

// TestFloatLiteralNormalization pins the WHERE-literal binding rule: an
// integer literal compared against a DOUBLE column is widened exactly once
// at analysis, so "fcol > 5" and "fcol > 5.0" agree everywhere — Filter
// operators, pushed-down scan predicates, zone maps — across strategies and
// pushdown settings.
func TestFloatLiteralNormalization(t *testing.T) {
	schema := []catalog.Column{
		{Name: "id", Type: vector.Int64},
		{Name: "fcol", Type: vector.Float64},
	}
	var cb strings.Builder
	rows := 200
	want := 0
	for r := 0; r < rows; r++ {
		v := float64(r)/16 - 5 // spans -5 .. 7.4 with fractional values
		if v > 5 {
			want++
		}
		fmt.Fprintf(&cb, "%d,%s\n", r, strconv.FormatFloat(v, 'f', -1, 64))
	}
	csvData := []byte(cb.String())
	for _, strat := range []Strategy{StrategyJIT, StrategyShreds, StrategyInSitu, StrategyDBMS} {
		for _, disable := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				e := newTestEngine(t, Config{
					Strategy:          strat,
					PosMapPolicy:      posmapPolicy(1),
					Parallelism:       workers,
					DisableShredCache: true,
					DisablePushdown:   disable,
					DisableZoneMaps:   disable,
					SynopsisBlockRows: 16,
				})
				if err := e.RegisterCSVData("t", csvData, schema); err != nil {
					t.Fatal(err)
				}
				// Warm once so via-map paths and zone maps participate.
				if _, err := e.Query("SELECT COUNT(*) FROM t WHERE id >= 0"); err != nil {
					t.Fatal(err)
				}
				for _, lit := range []string{"5", "5.0"} {
					res, err := e.Query("SELECT COUNT(*) FROM t WHERE fcol > " + lit)
					if err != nil {
						t.Fatalf("%s lit=%s: %v", strat, lit, err)
					}
					if got := res.Int64(0, 0); got != int64(want) {
						t.Fatalf("%s pushdown-off=%v workers=%d lit=%s: COUNT = %d, want %d",
							strat, disable, workers, lit, got, want)
					}
				}
			}
		}
	}
}

// TestSynopsisVaultRoundTrip checks the fourth vault record type end to end:
// a query builds the synopsis, Close persists it, and a restarted engine
// loads it and prunes with it immediately — unless the raw file changed, in
// which case the fingerprint invalidates the entry.
func TestSynopsisVaultRoundTrip(t *testing.T) {
	const rows = 2000
	csvData, _, schema := sortedTestData(rows)
	dir := t.TempDir()
	mk := func(data []byte) *Engine {
		e := newTestEngine(t, Config{
			Strategy:          StrategyJIT,
			PosMapPolicy:      posmapPolicy(1),
			DisableShredCache: true,
			SynopsisBlockRows: 64,
			CacheDir:          dir,
		})
		if err := e.RegisterCSVData("t", data, schema); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1 := mk(csvData)
	if _, err := e1.Query("SELECT COUNT(*) FROM t WHERE col1 >= 0"); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the synopsis comes back from disk; the first selective query
	// prunes without any prior scan in this "process".
	e2 := mk(csvData)
	defer e2.Close() // waits for the vault write-back, which would race the TempDir cleanup
	res, err := e2.Query("SELECT COUNT(*) FROM t WHERE col1 < 100")
	if err != nil {
		t.Fatal(err)
	}
	if res.Int64(0, 0) != 10 {
		t.Fatalf("restart-warm count = %d, want 10", res.Int64(0, 0))
	}
	if res.Stats.BlocksSkipped == 0 {
		t.Fatalf("restart-warm query skipped no blocks (synopsis not loaded?): %+v", res.Stats)
	}

	// A modified file must invalidate the persisted synopsis.
	changed := append([]byte{}, csvData...)
	changed[0] = '9' // first col1 value becomes 90..., breaking sortedness
	e3 := mk(changed)
	defer e3.Close()
	res3, err := e3.Query("SELECT COUNT(*) FROM t WHERE col1 < 100")
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.BlocksSkipped != 0 {
		t.Fatalf("stale synopsis survived a file change: %+v", res3.Stats)
	}
}
