package vault

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rawdb/internal/catalog"
	"rawdb/internal/dataset"
	"rawdb/internal/jsonidx"
	"rawdb/internal/posmap"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

func testFP() Fingerprint {
	// Size must exceed every encoded offset: decoders range-check positions
	// against the fingerprinted file size.
	return Fingerprint{Size: 1 << 20, MTime: 987654321, Sum: 0xdeadbeefcafe, Schema: 42}
}

func samplePosMap(t *testing.T) *posmap.Map {
	t.Helper()
	pm := posmap.New(posmap.Policy{Extra: []int{0, 3, 7}}, 10)
	for r := int64(0); r < 50; r++ {
		pm.AppendRow([]int64{r * 100, r*100 + 30, r*100 + 70})
	}
	return pm
}

func TestVaultCodecPosMapRoundTrip(t *testing.T) {
	pm := samplePosMap(t)
	enc := EncodePosMap(testFP(), pm)
	fp, got, err := DecodePosMap(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fp != testFP() {
		t.Fatalf("fingerprint %+v, want %+v", fp, testFP())
	}
	if got.NRows() != pm.NRows() {
		t.Fatalf("nrows %d, want %d", got.NRows(), pm.NRows())
	}
	if !reflect.DeepEqual(got.TrackedColumns(), pm.TrackedColumns()) {
		t.Fatalf("tracked %v, want %v", got.TrackedColumns(), pm.TrackedColumns())
	}
	for _, c := range pm.TrackedColumns() {
		if !reflect.DeepEqual(got.Positions(c).Decode(nil, 0, got.NRows()), pm.Positions(c).Decode(nil, 0, pm.NRows())) {
			t.Fatalf("positions of col %d differ", c)
		}
	}
	// Nearest/Lookup behave identically after the round trip.
	p1, s1, ok1 := pm.Lookup(13, 5)
	p2, s2, ok2 := got.Lookup(13, 5)
	if p1 != p2 || s1 != s2 || ok1 != ok2 {
		t.Fatalf("Lookup differs: (%d,%d,%v) vs (%d,%d,%v)", p2, s2, ok2, p1, s1, ok1)
	}
}

func TestVaultCodecJSONIdxRoundTrip(t *testing.T) {
	x := jsonidx.New(0)
	rec := x.Record([]string{"a", "payload.energy"})
	for r := int64(0); r < 40; r++ {
		rec.AppendRow(r*64, []int64{r*64 + 5, r*64 + 21})
	}
	rec.Commit()
	enc := EncodeJSONIdx(testFP(), x)
	fp, got, err := DecodeJSONIdx(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fp != testFP() {
		t.Fatalf("fingerprint %+v", fp)
	}
	if got.NRows() != x.NRows() {
		t.Fatalf("nrows %d, want %d", got.NRows(), x.NRows())
	}
	if !reflect.DeepEqual(got.TrackedPaths(), x.TrackedPaths()) {
		t.Fatalf("paths %v, want %v", got.TrackedPaths(), x.TrackedPaths())
	}
	for _, p := range x.TrackedPaths() {
		if !reflect.DeepEqual(got.Positions(p).Decode(nil, 0, got.NRows()), x.Positions(p).Decode(nil, 0, x.NRows())) {
			t.Fatalf("positions of %q differ", p)
		}
	}
	if got.RowStart(17) != x.RowStart(17) {
		t.Fatal("row starts differ")
	}
}

func TestVaultCodecShredsRoundTrip(t *testing.T) {
	iv := vector.New(vector.Int64, 4)
	iv.Int64s = []int64{5, -2, 9, 11}
	fv := vector.New(vector.Float64, 3)
	fv.Float64s = []float64{1.5, math.Inf(-1), -0.0}
	bv := vector.New(vector.Bool, 3)
	bv.Bools = []bool{true, false, true}
	sv := vector.New(vector.Bytes, 2)
	sv.Bytess = [][]byte{[]byte("hello"), {}}
	in := []TableShred{
		{Col: 0, RowIDs: nil, Vec: iv}, // full column
		{Col: 2, RowIDs: []int64{1, 5, 9}, Vec: fv},
		{Col: 3, RowIDs: []int64{0, 2, 4}, Vec: bv},
		{Col: 5, RowIDs: []int64{7, 8}, Vec: sv},
	}
	enc := EncodeShreds(testFP(), in)
	fp, out, err := DecodeShreds(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fp != testFP() {
		t.Fatalf("fingerprint %+v", fp)
	}
	if len(out) != len(in) {
		t.Fatalf("%d shreds, want %d", len(out), len(in))
	}
	for i, s := range in {
		g := out[i]
		if g.Col != s.Col {
			t.Fatalf("shred %d col %d, want %d", i, g.Col, s.Col)
		}
		if (g.RowIDs == nil) != (s.RowIDs == nil) || !reflect.DeepEqual(append([]int64{}, g.RowIDs...), append([]int64{}, s.RowIDs...)) {
			t.Fatalf("shred %d row ids %v, want %v", i, g.RowIDs, s.RowIDs)
		}
		if g.Vec.Type != s.Vec.Type || g.Vec.Len() != s.Vec.Len() {
			t.Fatalf("shred %d vector shape differs", i)
		}
		for r := 0; r < s.Vec.Len(); r++ {
			if s.Vec.Type == vector.Float64 {
				if math.Float64bits(g.Vec.Float64s[r]) != math.Float64bits(s.Vec.Float64s[r]) {
					t.Fatalf("shred %d row %d float bits differ", i, r)
				}
				continue
			}
			if g.Vec.Value(r) != s.Vec.Value(r) {
				t.Fatalf("shred %d row %d: %v, want %v", i, r, g.Vec.Value(r), s.Vec.Value(r))
			}
		}
	}
}

// TestVaultCodecCorruption: any single-byte corruption or truncation of a
// valid entry decodes to an error, never to silently wrong data or a panic.
func TestVaultCodecCorruption(t *testing.T) {
	pm := samplePosMap(t)
	enc := EncodePosMap(testFP(), pm)
	for off := 0; off < len(enc); off += 7 {
		bad := append([]byte{}, enc...)
		bad[off] ^= 0x40
		if _, _, err := DecodePosMap(bad); err == nil {
			t.Fatalf("corruption at byte %d decoded successfully", off)
		}
	}
	for cut := 0; cut < len(enc); cut += 11 {
		if _, _, err := DecodePosMap(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	// Kind confusion is rejected too.
	if _, _, err := DecodeJSONIdx(enc); err == nil {
		t.Fatal("posmap entry decoded as jsonidx")
	}
	if _, _, err := DecodeShreds(enc); err == nil {
		t.Fatal("posmap entry decoded as shreds")
	}
}

// TestVaultCodecRejectsOutOfRange: a checksum-valid entry whose offsets
// escape the fingerprinted file size must fail decode (scans would slice the
// raw buffer with those positions), and an oversized path count must not
// drive a huge allocation.
func TestVaultCodecRejectsOutOfRange(t *testing.T) {
	pm := samplePosMap(t) // positions up to ~5000
	small := testFP()
	small.Size = 100
	if _, _, err := DecodePosMap(EncodePosMap(small, pm)); err == nil {
		t.Fatal("posmap positions beyond the raw file size decoded successfully")
	}
	x := jsonidx.New(0)
	rec := x.Record([]string{"a"})
	rec.AppendRow(5000, []int64{5005})
	rec.Commit()
	if _, _, err := DecodeJSONIdx(EncodeJSONIdx(small, x)); err == nil {
		t.Fatal("jsonidx offsets beyond the raw file size decoded successfully")
	}
	// Forge a huge npaths count with a recomputed checksum: decode must
	// error on the implausible count, not allocate for it.
	enc := EncodeJSONIdx(testFP(), jsonidx.New(0))
	body := enc[:len(enc)-8]
	copy(body[len(body)-4:], []byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := DecodeJSONIdx(appendCheck(body)); err == nil {
		t.Fatal("forged path count decoded successfully")
	}
}

func TestVaultStorePublishAndInvalidate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "vault"))
	if err != nil {
		t.Fatal(err)
	}
	fp := testFP()
	pm := samplePosMap(t)
	if err := s.WriteEntry("t", KindPosMap, EncodePosMap(fp, pm)); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Load("t", KindPosMap, fp).(*posmap.Map); got == nil || got.NRows() != pm.NRows() {
		t.Fatal("published entry did not load")
	}
	// A different fingerprint invalidates and removes the entry.
	other := fp
	other.Size++
	if got := s.Load("t", KindPosMap, other); got != nil {
		t.Fatal("stale entry loaded")
	}
	if got := s.Load("t", KindPosMap, fp); got != nil {
		t.Fatal("stale entry not removed after invalidation")
	}
	// Corrupt bytes on disk are also removed on load.
	if err := s.WriteEntry("t", KindPosMap, EncodePosMap(fp, pm)); err != nil {
		t.Fatal(err)
	}
	path := s.EntryPath("t", KindPosMap)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.Load("t", KindPosMap, fp); got != nil {
		t.Fatal("corrupt entry loaded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
	// Table names with path-hostile characters stay inside the vault dir.
	weird := "../evil/..\\t"
	if err := s.WriteEntry(weird, KindPosMap, EncodePosMap(fp, pm)); err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(s.Dir(), s.EntryPath(weird, KindPosMap))
	if err != nil || rel == ".." || filepath.IsAbs(rel) || len(rel) >= 2 && rel[:2] == ".." {
		t.Fatalf("entry path escapes the vault dir: %q", s.EntryPath(weird, KindPosMap))
	}
	if got := s.Load(weird, KindPosMap, fp); got == nil {
		t.Fatal("escaped table name did not round-trip")
	}
}

// TestVaultStoreEveryKind: Encode picks each structure's own kind, and Load
// selects the decoder by kind and hands back what was written.
func TestVaultStoreEveryKind(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "vault"))
	if err != nil {
		t.Fatal(err)
	}
	syn := synopsis.NewBuilder(4, map[int]vector.Type{0: vector.Int64})
	for r := int64(0); r < 10; r++ {
		syn.Acc(0).ObserveInt64(r)
		syn.Advance(1)
	}
	idx := jsonidx.New(0)
	rec := idx.Record([]string{"a"})
	rec.AppendRow(0, []int64{5})
	rec.Commit()
	iv := vector.New(vector.Int64, 2)
	iv.Int64s = []int64{3, 4}
	fp := testFP()
	for _, c := range []struct {
		kind  Kind
		file  string
		x     any
		nrows func(any) int64
	}{
		{KindPosMap, "posmap.rawv", samplePosMap(t), func(x any) int64 { return x.(*posmap.Map).NRows() }},
		{KindJSONIdx, "jsonidx.rawv", idx, func(x any) int64 { return x.(*jsonidx.Index).NRows() }},
		{KindShreds, "shreds.rawv", []TableShred{{Col: 1, Vec: iv}}, func(x any) int64 { return int64(len(x.([]TableShred))) }},
		{KindSynopsis, "synopsis.rawv", syn.Finish(), func(x any) int64 { return x.(*synopsis.Synopsis).NRows() }},
		{KindManifest, "manifest.rawv", sampleManifest(), func(x any) int64 { return int64(len(x.(*dataset.Manifest).Parts)) }},
	} {
		if err := s.WriteEntry("t", c.kind, Encode(fp, c.x)); err != nil {
			t.Fatal(err)
		}
		if got := filepath.Base(s.EntryPath("t", c.kind)); got != c.file {
			t.Fatalf("%s entry file %q, want %q", c.kind, got, c.file)
		}
		got := s.Load("t", c.kind, fp)
		if got == nil || c.nrows(got) != c.nrows(c.x) {
			t.Fatalf("%s: loaded %v, want %v", c.kind, got, c.x)
		}
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Fatalf("unknown kind label %q", got)
	}
}

// TestVaultFingerprintInvalidation covers the raw-file mutation matrix: a
// vault entry must survive an untouched file and be rejected after an
// append, a truncation, a same-size rewrite, or an mtime-only touch (the
// sampled checksum cannot prove the unsampled bytes are unchanged, so a
// bare mtime change conservatively invalidates too).
func TestVaultFingerprintInvalidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	content := []byte("1,2,3\n4,5,6\n7,8,9\n")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	// Pin a known mtime so we can both change and restore it.
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	if err := os.Chtimes(path, t0, t0); err != nil {
		t.Fatal(err)
	}
	saved, err := FileFingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	saved.Schema = SchemaHash([]catalog.Column{{Name: "col1", Type: vector.Int64}})

	check := func(name string, mutate func(), wantValid bool) {
		t.Helper()
		// Restore the original state, then apply the mutation.
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, t0, t0); err != nil {
			t.Fatal(err)
		}
		mutate()
		now, err := FileFingerprint(path)
		if err != nil {
			t.Fatal(err)
		}
		now.Schema = saved.Schema
		if got := now == saved; got != wantValid {
			t.Fatalf("%s: fingerprint match = %v, want %v (saved %+v, now %+v)",
				name, got, wantValid, saved, now)
		}
	}

	check("untouched", func() {}, true)
	check("appended", func() {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString("10,11,12\n")
		f.Close()
	}, false)
	check("truncated", func() {
		if err := os.Truncate(path, int64(len(content)-6)); err != nil {
			t.Fatal(err)
		}
	}, false)
	check("rewritten same size", func() {
		swapped := bytes.ReplaceAll(content, []byte("5"), []byte("6"))
		if len(swapped) != len(content) {
			t.Fatal("rewrite changed size")
		}
		if err := os.WriteFile(path, swapped, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, t0, t0); err != nil { // even with mtime forged back
			t.Fatal(err)
		}
	}, false)
	check("mtime-only touch", func() {
		t1 := t0.Add(time.Hour)
		if err := os.Chtimes(path, t1, t1); err != nil {
			t.Fatal(err)
		}
	}, false)
	// A changed schema invalidates even with an identical file.
	now, err := FileFingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	now.Schema = SchemaHash([]catalog.Column{{Name: "col1", Type: vector.Float64}})
	if now == saved {
		t.Fatal("schema change did not invalidate")
	}
	// Data and file fingerprints of the same content share the checksum.
	df := DataFingerprint(content)
	if df.Sum != saved.Sum || df.Size != saved.Size {
		t.Fatal("data/file fingerprints disagree on identical content")
	}
}

// TestEncodeJSONIdxLeavesLRU checks that writing an index back to the vault is
// not a query: it counts no seek and leaves the paths' LRU order alone, so
// the path a query touched last still outlives the one it did not.
func TestEncodeJSONIdxLeavesLRU(t *testing.T) {
	x := jsonidx.New(200) // two one-letter paths over three rows fit, three do not
	for _, p := range []string{"a", "b"} {
		rec := x.Record([]string{p})
		for r := int64(0); r < 3; r++ {
			rec.AppendRow(r*10, []int64{r*10 + 2})
		}
		rec.Commit()
	}
	x.Positions("a") // a query reads a: b is now least recently used
	seeks := x.Seeks()
	EncodeJSONIdx(testFP(), x)
	if got := x.Seeks(); got != seeks {
		t.Fatalf("encode moved Seeks from %d to %d", seeks, got)
	}
	rec := x.Record([]string{"c"})
	for r := int64(0); r < 3; r++ {
		rec.AppendRow(r*10, []int64{r*10 + 4})
	}
	rec.Commit()
	if got := x.TrackedPaths(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("after an encode and one eviction the index tracks %v, want [a c]", got)
	}
}
