package jit

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"rawdb/internal/bytesconv"
	"rawdb/internal/catalog"
	"rawdb/internal/exec"
	"rawdb/internal/jsonidx"
	"rawdb/internal/vector"
)

// genJSONTable generates a nested JSONL table:
// {"id":…,"run":…,"payload":{"energy":…,"eta":…,"ncells":…},"tag":"s…"}
// The declared schema covers id, run and the payload leaves; "tag" is an
// undeclared string member every scan must skip.
func genJSONTable(t *testing.T, rows int, seed int64) (data []byte, tab *catalog.Table,
	ints [][]int64, floats [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	for r := 0; r < rows; r++ {
		iv := []int64{rng.Int63n(1_000_000_000), rng.Int63n(100), rng.Int63n(50)}
		fv := []float64{float64(rng.Int63n(1_000_000)) / 8, float64(rng.Int63n(1_000_000)) / 16}
		ints = append(ints, iv)
		floats = append(floats, fv)
		buf.WriteString(`{"id":`)
		appendInt(&buf, iv[0])
		buf.WriteString(`,"run":`)
		appendInt(&buf, iv[1])
		buf.WriteString(`,"tag":"skip\"me{","payload":{"energy":`)
		appendFloat(&buf, fv[0])
		buf.WriteString(`,"eta":`)
		appendFloat(&buf, fv[1])
		buf.WriteString(`,"ncells":`)
		appendInt(&buf, iv[2])
		buf.WriteString("}}\n")
	}
	tab = &catalog.Table{Name: "ev", Format: catalog.JSON, Schema: []catalog.Column{
		{Name: "id", Type: vector.Int64},
		{Name: "run", Type: vector.Int64},
		{Name: "payload.energy", Type: vector.Float64},
		{Name: "payload.eta", Type: vector.Float64},
		{Name: "payload.ncells", Type: vector.Int64},
	}}
	return buf.Bytes(), tab, ints, floats
}

func appendInt(buf *bytes.Buffer, v int64) {
	var b [24]byte
	buf.Write(bytesconv.AppendInt64(b[:0], v))
}

func appendFloat(buf *bytes.Buffer, v float64) {
	var b [32]byte
	buf.Write(bytesconv.AppendFloat6(b[:0], v))
}

func TestJSONSequentialScan(t *testing.T) {
	data, tab, ints, floats := genJSONTable(t, 400, 21)
	idx := jsonidx.New()
	// Nested float path + flat int path, odd batch size, with row ids.
	s, err := NewJSONSequentialScan(data, tab, []int{2, 0}, idx, true, 53)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Len() != 400 {
		t.Fatalf("rows = %d", out[0].Len())
	}
	for r := 0; r < 400; r++ {
		if out[0].Float64s[r] != floats[r][0] {
			t.Fatalf("row %d energy = %v want %v", r, out[0].Float64s[r], floats[r][0])
		}
		if out[1].Int64s[r] != ints[r][0] {
			t.Fatalf("row %d id = %d want %d", r, out[1].Int64s[r], ints[r][0])
		}
		if out[2].Int64s[r] != int64(r) {
			t.Fatalf("rid[%d] = %d", r, out[2].Int64s[r])
		}
	}
	// The scan committed a structural index: row starts plus both paths.
	if idx.NRows() != 400 {
		t.Fatalf("index rows = %d", idx.NRows())
	}
	for _, p := range []string{"id", "payload.energy"} {
		if !idx.Tracked(p) {
			t.Fatalf("path %q not tracked after sequential scan", p)
		}
	}
	if idx.Tracked("payload.eta") {
		t.Fatal("untouched path tracked")
	}
}

func TestJSONMapScanTrackedAndAdaptive(t *testing.T) {
	data, tab, ints, floats := genJSONTable(t, 300, 22)
	idx := jsonidx.New()
	s1, err := NewJSONSequentialScan(data, tab, []int{0}, idx, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(s1); err != nil {
		t.Fatal(err)
	}
	// id is tracked; payload.eta and payload.ncells are untracked and must be
	// served via row-start walks that record them adaptively.
	s2, rec, err := NewJSONMapScanPush(data, tab, []int{0, 3, 4}, idx, []int{0, 3, 4}, true, 41, Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(s2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 300; r++ {
		if out[0].Int64s[r] != ints[r][0] ||
			out[1].Float64s[r] != floats[r][1] ||
			out[2].Int64s[r] != ints[r][2] {
			t.Fatalf("row %d mismatch", r)
		}
		if out[3].Int64s[r] != int64(r) {
			t.Fatalf("rid[%d] = %d", r, out[3].Int64s[r])
		}
	}
	// Adaptive population: the published index tracks the new paths, the
	// scanned one still does not.
	grown := rec.Publish(idx)
	for _, p := range []string{"payload.eta", "payload.ncells"} {
		if idx.Tracked(p) || !grown.Tracked(p) {
			t.Fatalf("path %q: tracked %v by the scanned index, %v by the published one",
				p, idx.Tracked(p), grown.Tracked(p))
		}
	}
	idx = grown
	// A third scan over a freshly tracked path must serve from offsets and
	// agree exactly.
	s3, err := NewJSONMapScan(data, tab, []int{3}, idx, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	out3, err := exec.Collect(s3)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 300; r++ {
		if out3[0].Float64s[r] != floats[r][1] {
			t.Fatalf("row %d: tracked re-read differs", r)
		}
	}
}

func TestJSONMapScanRequiresIndex(t *testing.T) {
	data, tab, _, _ := genJSONTable(t, 10, 23)
	if _, err := NewJSONMapScan(data, tab, []int{0}, nil, false, 0); err == nil {
		t.Fatal("expected error for nil index")
	}
	if _, err := NewJSONMapScan(data, tab, []int{0}, jsonidx.New(), false, 0); err == nil {
		t.Fatal("expected error for empty index")
	}
}

func TestJSONScanMissingPath(t *testing.T) {
	data := []byte(`{"a":1}` + "\n")
	tab := &catalog.Table{Name: "t", Format: catalog.JSON,
		Schema: []catalog.Column{{Name: "b", Type: vector.Int64}}}
	s, err := NewJSONSequentialScan(data, tab, []int{0}, nil, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(s); err == nil {
		t.Fatal("expected missing-path error")
	}
	// A failed scan must not commit anything.
	idx := jsonidx.New()
	s2, _ := NewJSONSequentialScan(data, tab, []int{0}, idx, false, 0)
	_, _ = exec.Collect(s2)
	if idx.NRows() != 0 {
		t.Fatal("failed scan committed index rows")
	}
}

func TestJSONMatcherConflicts(t *testing.T) {
	data := []byte(`{"a":{"b":1}}` + "\n")
	tab := &catalog.Table{Name: "t", Format: catalog.JSON, Schema: []catalog.Column{
		{Name: "a", Type: vector.Int64},
		{Name: "a.b", Type: vector.Int64},
	}}
	if _, err := NewJSONSequentialScan(data, tab, []int{1, 0}, nil, false, 0); err == nil {
		t.Fatal("expected conflicting-path error")
	}
	bad := &catalog.Table{Name: "t", Format: catalog.JSON, Schema: []catalog.Column{
		{Name: "a..b", Type: vector.Int64}}}
	if _, err := NewJSONSequentialScan(data, bad, []int{0}, nil, false, 0); err == nil {
		t.Fatal("expected empty-segment error")
	}
}

func TestJSONLateScan(t *testing.T) {
	data, tab, ints, floats := genJSONTable(t, 250, 24)
	idx := jsonidx.New()
	s1, err := NewJSONSequentialScan(data, tab, []int{0}, idx, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(s1); err != nil {
		t.Fatal(err)
	}
	const threshold = 500_000_000
	base, err := NewJSONMapScan(data, tab, []int{0}, idx, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := exec.NewFilter(base, []exec.Pred{{Col: 0, Op: exec.Lt, I64: threshold}})
	if err != nil {
		t.Fatal(err)
	}
	// Column 2 (payload.energy) is untracked: late fetch walks from row
	// starts; column 0 would be tracked. Fetch the untracked one.
	fetch, err := JSONLateFetch(data, tab, []int{2}, idx)
	out, err := exec.Collect(lateScan(t, f, tab, []int{2}, fetch, err))
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for r := range ints {
		if ints[r][0] < threshold {
			want = append(want, floats[r][0])
		}
	}
	got := out[2]
	if got.Len() != len(want) {
		t.Fatalf("late scan produced %d rows, want %d", got.Len(), len(want))
	}
	for i := range want {
		if got.Float64s[i] != want[i] {
			t.Fatalf("row %d: got %v, want %v", i, got.Float64s[i], want[i])
		}
	}
	// Requires a populated index.
	if _, err := JSONLateFetch(data, tab, []int{2}, jsonidx.New()); err == nil {
		t.Fatal("expected error for empty index")
	}
}

// TestJSONAgreesAcrossModes: sequential, via-index and late access paths
// must produce byte-identical columns over the same file.
func TestJSONAgreesAcrossModes(t *testing.T) {
	data, tab, _, _ := genJSONTable(t, 200, 25)
	need := []int{1, 2, 4}

	idx := jsonidx.New()
	seq, err := NewJSONSequentialScan(data, tab, need, idx, false, 33)
	if err != nil {
		t.Fatal(err)
	}
	outSeq, err := exec.Collect(seq)
	if err != nil {
		t.Fatal(err)
	}
	viaIdx, err := NewJSONMapScan(data, tab, need, idx, false, 77)
	if err != nil {
		t.Fatal(err)
	}
	outVia, err := exec.Collect(viaIdx)
	if err != nil {
		t.Fatal(err)
	}
	for c := range need {
		for r := 0; r < 200; r++ {
			if outSeq[c].Value(r) != outVia[c].Value(r) {
				t.Fatalf("col %d row %d: modes disagree", c, r)
			}
		}
	}
}

// TestJSONScanRecords pins what each JSON access path records into the
// structural index: a first scan that tees its columns records the row starts
// only, a via-map read records the paths the index does not track yet, and a
// late read records nothing.
func TestJSONScanRecords(t *testing.T) {
	const rows = 200
	data, tab, ints, floats := genJSONTable(t, rows, 31)

	// A first scan records the row starts and the paths record lists.
	first := func(record []int) *jsonidx.Index {
		idx := jsonidx.New()
		s, err := NewJSONSequentialScanPush(data, tab, []int{0, 2}, idx, record, true, 0, Pushdown{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Collect(s); err != nil {
			t.Fatal(err)
		}
		return idx
	}
	if teed := first(nil); teed.NRows() != rows || len(teed.TrackedPaths()) != 0 {
		t.Fatalf("teeing first scan: %d rows, paths %v; want %d rows and no path", teed.NRows(), teed.TrackedPaths(), rows)
	}
	idx := first([]int{0})
	if idx.NRows() != rows || !slices.Equal(idx.TrackedPaths(), []string{"id"}) {
		t.Fatalf("recording first scan: %d rows, paths %v; want %d rows and [id]", idx.NRows(), idx.TrackedPaths(), rows)
	}
	footprint := idx.MemoryFootprint()

	// A via-map read records the untracked path it reads, and not the
	// tracked one; the index it read stays as it was.
	via, rec, err := NewJSONMapScanPush(data, tab, []int{0, 4}, idx, []int{0, 4}, false, 0, Pushdown{})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || !slices.Equal(rec.Paths(), []string{"payload.ncells"}) {
		t.Fatalf("via-map recorder %v, want one of [payload.ncells]", rec)
	}
	out, err := exec.Collect(via)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		if out[0].Int64s[r] != ints[r][0] || out[1].Int64s[r] != ints[r][2] {
			t.Fatalf("via-map row %d: id %d ncells %d", r, out[0].Int64s[r], out[1].Int64s[r])
		}
	}
	if !slices.Equal(idx.TrackedPaths(), []string{"id"}) || idx.MemoryFootprint() != footprint {
		t.Fatalf("via-map read wrote its index: paths %v", idx.TrackedPaths())
	}
	grown := rec.Publish(idx)
	if !slices.Equal(grown.TrackedPaths(), []string{"id", "payload.ncells"}) || grown.NRows() != rows {
		t.Fatalf("published recording: %d rows, paths %v", grown.NRows(), grown.TrackedPaths())
	}

	// A late read, of a tracked and an untracked path, records nothing.
	fetch, err := JSONLateFetch(data, tab, []int{4, 3}, grown)
	if err != nil {
		t.Fatal(err)
	}
	rids := []int64{3, 77, 150, 199}
	outs := []*vector.Vector{vector.New(vector.Int64, len(rids)), vector.New(vector.Float64, len(rids))}
	footprint = grown.MemoryFootprint()
	if err := fetch(rids, outs); err != nil {
		t.Fatal(err)
	}
	for i, r := range rids {
		if outs[0].Int64s[i] != ints[r][2] || outs[1].Float64s[i] != floats[r][1] {
			t.Fatalf("late row %d: ncells %d eta %v", r, outs[0].Int64s[i], outs[1].Float64s[i])
		}
	}
	if !slices.Equal(grown.TrackedPaths(), []string{"id", "payload.ncells"}) || grown.MemoryFootprint() != footprint {
		t.Fatalf("late read recorded: paths %v", grown.TrackedPaths())
	}
}
