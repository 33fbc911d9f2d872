package insitu

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/vector"
)

// genTable builds a CSV file, its binary twin and the reference values:
// ncols int64 columns, one shared value matrix.
func genTable(t *testing.T, rows, ncols int, seed int64) (csvData []byte, binData []byte, tab *catalog.Table, vals [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	types := make([]vector.Type, ncols)
	schema := make([]catalog.Column, ncols)
	for c := 0; c < ncols; c++ {
		types[c] = vector.Int64
		schema[c] = catalog.Column{Name: colName(c), Type: vector.Int64}
	}
	var cbuf, bbuf bytes.Buffer
	cw := csvfile.NewWriter(&cbuf, types)
	bw, err := binfile.NewWriter(&bbuf, types, int64(rows))
	if err != nil {
		t.Fatal(err)
	}
	vals = make([][]int64, rows)
	row := make([]int64, ncols)
	for r := 0; r < rows; r++ {
		for c := range row {
			row[c] = rng.Int63n(1_000_000_000)
		}
		vals[r] = append([]int64(nil), row...)
		if err := cw.WriteRow(row, nil); err != nil {
			t.Fatal(err)
		}
		if err := bw.WriteRow(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	tab = &catalog.Table{Name: "t", Format: catalog.CSV, Schema: schema}
	return cbuf.Bytes(), bbuf.Bytes(), tab, vals
}

func colName(c int) string {
	return "col" + string(rune('a'+c/10)) + string(rune('0'+c%10))
}

func checkColumn(t *testing.T, got *vector.Vector, vals [][]int64, col int) {
	t.Helper()
	if got.Len() != len(vals) {
		t.Fatalf("column %d: got %d rows, want %d", col, got.Len(), len(vals))
	}
	for r := range vals {
		if got.Int64s[r] != vals[r][col] {
			t.Fatalf("column %d row %d: got %d, want %d", col, r, got.Int64s[r], vals[r][col])
		}
	}
}

func TestExternalScan(t *testing.T) {
	data, _, tab, vals := genTable(t, 300, 5, 1)
	s, err := NewExternalScan(data, tab, []int{0, 3}, 64)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	checkColumn(t, out[0], vals, 0)
	checkColumn(t, out[1], vals, 3)
}

func TestExternalScanRejectsNonCSV(t *testing.T) {
	tab := &catalog.Table{Name: "t", Format: catalog.Binary,
		Schema: []catalog.Column{{Name: "a", Type: vector.Int64}}}
	if _, err := NewExternalScan(nil, tab, []int{0}, 0); err == nil {
		t.Fatal("expected format error")
	}
}

func TestExternalScanMalformed(t *testing.T) {
	tab := &catalog.Table{Name: "t", Format: catalog.CSV,
		Schema: []catalog.Column{{Name: "a", Type: vector.Int64}}}
	s, err := NewExternalScan([]byte("12\nxx\n"), tab, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(s); err == nil {
		t.Fatal("expected parse error for malformed field")
	} else if !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("error should locate the row: %v", err)
	}
}

func TestCSVScanSequentialAndBuildPM(t *testing.T) {
	data, _, tab, vals := genTable(t, 250, 8, 2)
	pm := posmap.New(posmap.Policy{EveryK: 3}, 8) // tracks 0,3,6
	s, err := NewCSVScan(data, tab, []int{1}, nil, pm, false, 32)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	checkColumn(t, out[0], vals, 1)
	if pm.NRows() != 250 {
		t.Fatalf("posmap rows = %d", pm.NRows())
	}
	// Positions must point at the exact field starts: re-parse via the map.
	pos := pm.Positions(3).Decode(nil, 0, pm.NRows())
	for r := 0; r < 250; r++ {
		start, end, _ := csvfile.FieldBounds(data, int(pos[r]))
		got := string(data[start:end])
		want := string(data[start:end]) // structural check below instead
		_ = want
		var v int64
		for _, ch := range got {
			v = v*10 + int64(ch-'0')
		}
		if v != vals[r][3] {
			t.Fatalf("posmap row %d points at %q, want value %d", r, got, vals[r][3])
		}
		_ = end
	}
}

func TestCSVScanViaMapDirectAndNearby(t *testing.T) {
	data, _, tab, vals := genTable(t, 250, 12, 3)
	pm := posmap.New(posmap.Policy{EveryK: 5}, 12) // tracks 0,5,10
	// Build the map with a first scan.
	s1, err := NewCSVScan(data, tab, []int{0}, nil, pm, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(s1); err != nil {
		t.Fatal(err)
	}
	// Direct: column 10 is tracked. Nearby: column 7 needs skip from 5.
	s2, err := NewCSVScan(data, tab, []int{10, 7}, pm, nil, true, 100)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(s2)
	if err != nil {
		t.Fatal(err)
	}
	checkColumn(t, out[0], vals, 10)
	checkColumn(t, out[1], vals, 7)
	// Hidden row-id column.
	if s2.Schema()[2].Name != RowIDColumn {
		t.Fatalf("schema = %v", s2.Schema())
	}
	for r := 0; r < 250; r++ {
		if out[2].Int64s[r] != int64(r) {
			t.Fatalf("rid[%d] = %d", r, out[2].Int64s[r])
		}
	}
}

func TestCSVScanViaMapRequiresCoverage(t *testing.T) {
	data, _, tab, _ := genTable(t, 10, 6, 4)
	pm := posmap.New(posmap.Policy{Extra: []int{3}}, 6)
	s1, _ := NewCSVScan(data, tab, []int{3}, nil, pm, false, 0)
	if _, err := exec.Collect(s1); err != nil {
		t.Fatal(err)
	}
	// Column 1 precedes the first tracked column: unreachable via map.
	if _, err := NewCSVScan(data, tab, []int{1}, pm, nil, false, 0); err == nil {
		t.Fatal("expected coverage error")
	}
}

func TestCSVScanErrors(t *testing.T) {
	tab := &catalog.Table{Name: "t", Format: catalog.CSV,
		Schema: []catalog.Column{{Name: "a", Type: vector.Int64}}}
	if _, err := NewCSVScan(nil, tab, []int{5}, nil, nil, false, 0); err == nil {
		t.Fatal("expected out-of-range column error")
	}
	s, err := NewCSVScan([]byte("1\nbad\n"), tab, []int{0}, nil, nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(s); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestBinScan(t *testing.T) {
	_, bdata, tab, vals := genTable(t, 300, 6, 5)
	btab := *tab
	btab.Format = catalog.Binary
	r, err := binfile.NewReader(bdata)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewBinScan(r, &btab, []int{2, 5}, true, 77)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	checkColumn(t, out[0], vals, 2)
	checkColumn(t, out[1], vals, 5)
	for r := 0; r < 300; r++ {
		if out[2].Int64s[r] != int64(r) {
			t.Fatalf("rid[%d] = %d", r, out[2].Int64s[r])
		}
	}
}

func TestBinScanValidation(t *testing.T) {
	_, bdata, tab, _ := genTable(t, 10, 4, 6)
	btab := *tab
	btab.Format = catalog.Binary
	r, err := binfile.NewReader(bdata)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBinScan(r, tab, []int{0}, false, 0); err == nil {
		t.Fatal("expected format error (CSV table)")
	}
	short := btab
	short.Schema = short.Schema[:2]
	if _, err := NewBinScan(r, &short, []int{0}, false, 0); err == nil {
		t.Fatal("expected schema/file arity error")
	}
}
