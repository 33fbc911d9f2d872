package jit

import (
	"bytes"
	"math/rand"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/posmap"
	"rawdb/internal/storage/binfile"
	"rawdb/internal/storage/csvfile"
	"rawdb/internal/storage/rootfile"
	"rawdb/internal/vector"
)

func genTable(t *testing.T, rows, ncols int, seed int64) (csvData, binData []byte, tab *catalog.Table, vals [][]int64) {
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
	return "c" + string(rune('a'+c/10)) + string(rune('0'+c%10))
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

func TestCSVSequentialScanMatchesReference(t *testing.T) {
	data, _, tab, vals := genTable(t, 400, 9, 10)
	pm := posmap.New(posmap.Policy{EveryK: 4}, 9) // tracks 0,4,8
	s, err := NewCSVSequentialScan(data, tab, []int{1, 8}, pm, true, 53)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	checkColumn(t, out[0], vals, 1)
	checkColumn(t, out[1], vals, 8)
	if pm.NRows() != 400 {
		t.Fatalf("pm rows = %d", pm.NRows())
	}
	for r := 0; r < 400; r++ {
		if out[2].Int64s[r] != int64(r) {
			t.Fatalf("rid[%d] = %d", r, out[2].Int64s[r])
		}
	}
}

// TestJITPMatchesInSituPM: both scan families must build identical positional
// maps over the same file.
func TestJITPMMatchesInSituPM(t *testing.T) {
	data, _, tab, _ := genTable(t, 150, 10, 11)
	pmJ := posmap.New(posmap.Policy{EveryK: 3}, 10)
	pmI := posmap.New(posmap.Policy{EveryK: 3}, 10)
	sj, err := NewCSVSequentialScan(data, tab, []int{2}, pmJ, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(sj); err != nil {
		t.Fatal(err)
	}
	si, err := insitu.NewCSVScan(data, tab, []int{2}, nil, pmI, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(si); err != nil {
		t.Fatal(err)
	}
	for _, c := range pmJ.TrackedColumns() {
		pj, pi := pmJ.Positions(c).Decode(nil, 0, pmJ.NRows()), pmI.Positions(c).Decode(nil, 0, pmI.NRows())
		if len(pj) != len(pi) {
			t.Fatalf("col %d: %d vs %d positions", c, len(pj), len(pi))
		}
		for r := range pj {
			if pj[r] != pi[r] {
				t.Fatalf("col %d row %d: jit pos %d, insitu pos %d", c, r, pj[r], pi[r])
			}
		}
	}
}

func TestCSVMapScan(t *testing.T) {
	data, _, tab, vals := genTable(t, 300, 12, 12)
	pm := posmap.New(posmap.Policy{EveryK: 5}, 12) // 0,5,10
	s1, err := NewCSVSequentialScan(data, tab, []int{0}, pm, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(s1); err != nil {
		t.Fatal(err)
	}
	// Tracked column (10) and nearby column (12? no — 7, skip 2 from 5).
	s2, err := NewCSVMapScan(data, tab, []int{10, 7}, pm, true, 41)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(s2)
	if err != nil {
		t.Fatal(err)
	}
	checkColumn(t, out[0], vals, 10)
	checkColumn(t, out[1], vals, 7)
	for r := range vals {
		if out[2].Int64s[r] != int64(r) {
			t.Fatalf("rid[%d] = %d", r, out[2].Int64s[r])
		}
	}
}

func TestCSVMapScanRequiresMap(t *testing.T) {
	data, _, tab, _ := genTable(t, 10, 4, 13)
	if _, err := NewCSVMapScan(data, tab, []int{1}, nil, false, 0); err == nil {
		t.Fatal("expected error for nil positional map")
	}
	pm := posmap.New(posmap.Policy{EveryK: 2}, 4)
	if _, err := NewCSVMapScan(data, tab, []int{1}, pm, false, 0); err == nil {
		t.Fatal("expected error for empty positional map")
	}
}

func TestBinScanMatchesReference(t *testing.T) {
	_, bdata, tab, vals := genTable(t, 350, 7, 14)
	btab := *tab
	btab.Format = catalog.Binary
	r, err := binfile.NewReader(bdata)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewBinScan(r, &btab, []int{0, 6, 3}, true, 64)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	checkColumn(t, out[0], vals, 0)
	checkColumn(t, out[1], vals, 6)
	checkColumn(t, out[2], vals, 3)
	for i := range vals {
		if out[3].Int64s[i] != int64(i) {
			t.Fatalf("rid[%d] = %d", i, out[3].Int64s[i])
		}
	}
}

// TestJITAgreesWithInSitu is the central equivalence property: the JIT and
// general-purpose access paths must produce byte-identical columns on every
// mode over the same file.
func TestJITAgreesWithInSitu(t *testing.T) {
	data, bdata, tab, _ := genTable(t, 200, 10, 15)
	need := []int{1, 4, 9}

	pmJ := posmap.New(posmap.Policy{EveryK: 4}, 10)
	sj, err := NewCSVSequentialScan(data, tab, need, pmJ, false, 33)
	if err != nil {
		t.Fatal(err)
	}
	outJ, err := exec.Collect(sj)
	if err != nil {
		t.Fatal(err)
	}
	pmI := posmap.New(posmap.Policy{EveryK: 4}, 10)
	si, err := insitu.NewCSVScan(data, tab, need, nil, pmI, false, 33)
	if err != nil {
		t.Fatal(err)
	}
	outI, err := exec.Collect(si)
	if err != nil {
		t.Fatal(err)
	}
	for c := range need {
		for r := 0; r < 200; r++ {
			if outJ[c].Int64s[r] != outI[c].Int64s[r] {
				t.Fatalf("sequential: col %d row %d differ", c, r)
			}
		}
	}

	// ViaMap mode.
	sj2, err := NewCSVMapScan(data, tab, []int{6}, pmJ, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	outJ2, err := exec.Collect(sj2)
	if err != nil {
		t.Fatal(err)
	}
	si2, err := insitu.NewCSVScan(data, tab, []int{6}, pmI, nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	outI2, err := exec.Collect(si2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 200; r++ {
		if outJ2[0].Int64s[r] != outI2[0].Int64s[r] {
			t.Fatalf("viamap: row %d differ", r)
		}
	}

	// Binary mode.
	btab := *tab
	btab.Format = catalog.Binary
	rd, err := binfile.NewReader(bdata)
	if err != nil {
		t.Fatal(err)
	}
	sj3, err := NewBinScan(rd, &btab, need, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	outJ3, err := exec.Collect(sj3)
	if err != nil {
		t.Fatal(err)
	}
	si3, err := insitu.NewBinScan(rd, &btab, need, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	outI3, err := exec.Collect(si3)
	if err != nil {
		t.Fatal(err)
	}
	for c := range need {
		for r := 0; r < 200; r++ {
			if outJ3[c].Int64s[r] != outI3[c].Int64s[r] {
				t.Fatalf("binary: col %d row %d differ", c, r)
			}
		}
	}
}

func TestRootScan(t *testing.T) {
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: 32})
	tw := w.Tree("events")
	idb := tw.Branch("id", vector.Int64)
	ptb := tw.Branch("pt", vector.Float64)
	const n = 150
	for i := 0; i < n; i++ {
		idb.AppendInt64(int64(i * 3))
		ptb.AppendFloat64(float64(i) / 4)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := rootfile.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := f.Tree("events")
	tab := &catalog.Table{Name: "ev", Format: catalog.Root, Tree: "events",
		Schema: []catalog.Column{{Name: "id", Type: vector.Int64}, {Name: "pt", Type: vector.Float64}}}
	s, err := NewRootScanPush(tree, tab, []int{0, 1}, true, 40, Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if out[0].Int64s[i] != int64(i*3) || out[1].Float64s[i] != float64(i)/4 {
			t.Fatalf("row %d = %d/%v", i, out[0].Int64s[i], out[1].Float64s[i])
		}
		if out[2].Int64s[i] != int64(i) {
			t.Fatalf("rid[%d] = %d", i, out[2].Int64s[i])
		}
	}
	// Unknown branch and type mismatch.
	bad := *tab
	bad.Schema = []catalog.Column{{Name: "nope", Type: vector.Int64}}
	if _, err := NewRootScanPush(tree, &bad, []int{0}, false, 0, Pushdown{}); err == nil {
		t.Fatal("expected missing-branch error")
	}
	bad.Schema = []catalog.Column{{Name: "pt", Type: vector.Int64}}
	if _, err := NewRootScanPush(tree, &bad, []int{0}, false, 0, Pushdown{}); err == nil {
		t.Fatal("expected type-mismatch error")
	}
}

// lateScan runs fetch, generated for cols of tab (err is its generator's), in
// the late-scan shell over child, whose row ids are its column 1.
func lateScan(t *testing.T, child exec.Operator, tab *catalog.Table, cols []int, fetch exec.Fetch, err error) exec.Operator {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	schema, err := appendSchema(nil, tab, cols)
	if err != nil {
		t.Fatal(err)
	}
	late, err := exec.NewLateScan(child, 1, insitu.RowIDColumn, schema, fetch)
	if err != nil {
		t.Fatal(err)
	}
	return late
}

// lateChild builds a filtered child pipeline emitting row ids, for late scan
// tests: rows whose col0 value < threshold survive.
func lateChild(t *testing.T, data []byte, tab *catalog.Table, pm *posmap.Map, threshold int64) exec.Operator {
	t.Helper()
	s, err := NewCSVMapScan(data, tab, []int{0}, pm, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := exec.NewFilter(s, []exec.Pred{{Col: 0, Op: exec.Lt, I64: threshold}})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCSVLateScan(t *testing.T) {
	data, _, tab, vals := genTable(t, 300, 10, 16)
	pm := posmap.New(posmap.Policy{EveryK: 4}, 10) // 0,4,8
	s1, _ := NewCSVSequentialScan(data, tab, []int{0}, pm, false, 0)
	if _, err := exec.Collect(s1); err != nil {
		t.Fatal(err)
	}
	const threshold = 500_000_000
	child := lateChild(t, data, tab, pm, threshold)
	late, err := NewCSVLateScan(child, data, tab, []int{6}, pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(late)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: qualifying rows in order.
	var want []int64
	for r := range vals {
		if vals[r][0] < threshold {
			want = append(want, vals[r][6])
		}
	}
	got := out[2] // child cols: col0, rid; appended: col6
	if got.Len() != len(want) {
		t.Fatalf("late scan produced %d rows, want %d", got.Len(), len(want))
	}
	for i := range want {
		if got.Int64s[i] != want[i] {
			t.Fatalf("row %d: got %d, want %d", i, got.Int64s[i], want[i])
		}
	}
}

func TestCSVLateScanMultiColumn(t *testing.T) {
	data, _, tab, vals := genTable(t, 200, 10, 17)
	pm := posmap.New(posmap.Policy{EveryK: 4}, 10)
	s1, _ := NewCSVSequentialScan(data, tab, []int{0}, pm, false, 0)
	if _, err := exec.Collect(s1); err != nil {
		t.Fatal(err)
	}
	const threshold = 700_000_000
	child := lateChild(t, data, tab, pm, threshold)
	// Columns 5 and 6 share anchor 4: one parsing pass (multi-column shred).
	late, err := NewCSVLateScan(child, data, tab, []int{6, 5}, pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(late)
	if err != nil {
		t.Fatal(err)
	}
	var want5, want6 []int64
	for r := range vals {
		if vals[r][0] < threshold {
			want5 = append(want5, vals[r][5])
			want6 = append(want6, vals[r][6])
		}
	}
	// Output order: sorted columns → slot 0 = col5, slot 1 = col6.
	if out[2].Len() != len(want5) {
		t.Fatalf("rows = %d, want %d", out[2].Len(), len(want5))
	}
	for i := range want5 {
		if out[2].Int64s[i] != want5[i] || out[3].Int64s[i] != want6[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestBinLateScan(t *testing.T) {
	data, bdata, tab, vals := genTable(t, 250, 8, 18)
	pm := posmap.New(posmap.Policy{EveryK: 4}, 8)
	s1, _ := NewCSVSequentialScan(data, tab, []int{0}, pm, false, 0)
	if _, err := exec.Collect(s1); err != nil {
		t.Fatal(err)
	}
	btab := *tab
	btab.Format = catalog.Binary
	rd, err := binfile.NewReader(bdata)
	if err != nil {
		t.Fatal(err)
	}
	child, err := NewBinScan(rd, &btab, []int{0}, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := exec.NewFilter(child, []exec.Pred{{Col: 0, Op: exec.Lt, I64: 300_000_000}})
	if err != nil {
		t.Fatal(err)
	}
	fetch, err := BinLateFetch(rd, &btab, []int{7})
	out, err := exec.Collect(lateScan(t, f, &btab, []int{7}, fetch, err))
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for r := range vals {
		if vals[r][0] < 300_000_000 {
			want = append(want, vals[r][7])
		}
	}
	if out[2].Len() != len(want) {
		t.Fatalf("rows = %d want %d", out[2].Len(), len(want))
	}
	for i := range want {
		if out[2].Int64s[i] != want[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestRootLateScan(t *testing.T) {
	var buf bytes.Buffer
	w := rootfile.NewWriter(&buf, rootfile.Options{BasketEntries: 16})
	tw := w.Tree("ev")
	ib := tw.Branch("id", vector.Int64)
	vb := tw.Branch("v", vector.Int64)
	const n = 120
	for i := 0; i < n; i++ {
		ib.AppendInt64(int64(i % 7))
		vb.AppendInt64(int64(i * 11))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, _ := rootfile.Parse(buf.Bytes())
	tree, _ := f.Tree("ev")
	tab := &catalog.Table{Name: "ev", Format: catalog.Root, Tree: "ev",
		Schema: []catalog.Column{{Name: "id", Type: vector.Int64}, {Name: "v", Type: vector.Int64}}}
	base, err := NewRootScanPush(tree, tab, []int{0}, true, 0, Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	flt, err := exec.NewFilter(base, []exec.Pred{{Col: 0, Op: exec.Eq, I64: 3}})
	if err != nil {
		t.Fatal(err)
	}
	fetch, err := RootLateFetch(tree, tab, []int{1})
	out, err := exec.Collect(lateScan(t, flt, tab, []int{1}, fetch, err))
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			want = append(want, int64(i*11))
		}
	}
	if out[2].Len() != len(want) {
		t.Fatalf("rows = %d want %d", out[2].Len(), len(want))
	}
	for i := range want {
		if out[2].Int64s[i] != want[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestLateScanValidation(t *testing.T) {
	data, _, tab, _ := genTable(t, 20, 4, 19)
	pm := posmap.New(posmap.Policy{EveryK: 2}, 4)
	s1, _ := NewCSVSequentialScan(data, tab, []int{0}, pm, false, 0)
	if _, err := exec.Collect(s1); err != nil {
		t.Fatal(err)
	}
	child, _ := NewCSVMapScan(data, tab, []int{0}, pm, true, 0)
	// Bad rid index.
	if _, err := NewCSVLateScan(child, data, tab, []int{1}, pm, 0); err == nil {
		t.Fatal("expected invalid rid column error (col 0 is data, not rid)")
	}
	// Out-of-range column.
	if _, err := NewCSVLateScan(child, data, tab, []int{9}, pm, 1); err == nil {
		t.Fatal("expected out-of-range error")
	}
	// One parse pass per row reads a column once.
	if _, err := NewCSVLateScan(child, data, tab, []int{3, 3}, pm, 1); err == nil {
		t.Fatal("expected an error for a column requested twice")
	}
	if _, err := NewCSVMapScan(data, tab, []int{1, 3, 1}, pm, false, 0); err == nil {
		t.Fatal("expected an error for a map scan reading a column twice")
	}
}
