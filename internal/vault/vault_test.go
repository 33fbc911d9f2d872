package vault

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"rawdb/internal/catalog"
	"rawdb/internal/dataset"
	"rawdb/internal/jsonidx"
	"rawdb/internal/offsets"
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
	x := jsonidx.New()
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

// column chunks vals as a sealed offsets column.
func column(vals ...int64) *offsets.Column {
	c := offsets.New(nil)
	c.AppendAll(vals)
	c.Clip()
	return c
}

// decoded returns c's values, or nil for a nil column.
func decoded(c *offsets.Column) []int64 {
	if c == nil {
		return nil
	}
	return c.Decode(make([]int64, 0, c.Len()), 0, c.Len())
}

// sameShreds fails unless got holds want's shreds: their columns, row ids and
// values, decoded (an Int64 one always comes back chunked).
func sameShreds(t *testing.T, got, want []TableShred) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d shreds, want %d", len(got), len(want))
	}
	for i, s := range want {
		g := got[i]
		if g.Col != s.Col || (g.Rows == nil) != (s.Rows == nil) || !slices.Equal(decoded(g.Rows), decoded(s.Rows)) {
			t.Fatalf("shred %d: column %d row ids %v, want column %d row ids %v", i, g.Col, decoded(g.Rows), s.Col, decoded(s.Rows))
		}
		if gv, wv := values(g), values(s); gv != wv {
			t.Fatalf("shred %d values %s, want %s", i, gv, wv)
		}
	}
}

// values renders s's values, Int64 ones decoded and floats as their bits, so
// that -0 differs from 0.
func values(s TableShred) string {
	if s.Type() == vector.Int64 {
		if s.Ints != nil {
			return fmt.Sprint(decoded(s.Ints))
		}
		return fmt.Sprint(s.Vec.Int64s)
	}
	bits := make([]uint64, len(s.Vec.Float64s))
	for i, f := range s.Vec.Float64s {
		bits[i] = math.Float64bits(f)
	}
	return fmt.Sprintf("%v %v %v %q", s.Vec.Type, bits, s.Vec.Bools, s.Vec.Bytess)
}

// sampleShreds has a shred of every kind the codec writes: a full Int64
// column chunked and one flat, a partial one with row ids, Float64, Bool and
// VARCHAR values, and a partial shred of no rows.
func sampleShreds() []TableShred {
	iv := vector.New(vector.Int64, 4)
	iv.Int64s = []int64{5, -2, 9, 1 << 40}
	fv := vector.New(vector.Float64, 3)
	fv.Float64s = []float64{1.5, math.Inf(-1), math.Copysign(0, -1)}
	bv := vector.New(vector.Bool, 3)
	bv.Bools = []bool{true, false, true}
	sv := vector.New(vector.Bytes, 2)
	sv.Bytess = [][]byte{[]byte("hello"), {}}
	return []TableShred{
		{Col: 0, Ints: column(3, 1, 4, 1, 5, 9, 2, 6)}, // full column, narrow
		{Col: 1, Vec: iv}, // full column, flat: chunked on the way out
		{Col: 2, Rows: column(1, 5, 9), Vec: fv},
		{Col: 3, Rows: column(0, 2, 4), Vec: bv},
		{Col: 4, Rows: column(7, 300), Ints: column(-7, 70)},
		{Col: 5, Rows: column(7, 8), Vec: sv},
		{Col: 6, Rows: column(), Ints: column()},
	}
}

func TestVaultCodecShredsRoundTrip(t *testing.T) {
	in := sampleShreds()
	fp, got, err := DecodeShreds(EncodeShreds(testFP(), in))
	if err != nil {
		t.Fatal(err)
	}
	if fp != testFP() {
		t.Fatalf("fingerprint %+v", fp)
	}
	sameShreds(t, got, in)
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

// encodePosMapV1 encodes pm in the layout positional maps had before the
// vault wrote chunks: version 1, every position as an int64.
func encodePosMapV1(fp Fingerprint, pm *posmap.Map) []byte {
	b := appendHeader(nil, KindPosMap, fp)
	binary.LittleEndian.PutUint16(b[len(codecMagic):], 1)
	b = binary.LittleEndian.AppendUint64(b, uint64(pm.NRows()))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pm.TrackedColumns())))
	for _, c := range pm.TrackedColumns() {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	for _, c := range pm.TrackedColumns() {
		b = appendI64s(b, decoded(pm.Positions(c)))
	}
	return appendCheck(b)
}

// atVersion returns entry b stamped with layout version v and re-sealed.
func atVersion(b []byte, v uint16) []byte {
	b = bytes.Clone(b[:len(b)-8])
	binary.LittleEndian.PutUint16(b[len(codecMagic):], v)
	return appendCheck(b)
}

// errOf returns a decoder's error.
func errOf[T any](_ Fingerprint, _ T, err error) error { return err }

// TestVaultCodecRejectsOldLayouts: positional maps, structural indexes and
// shreds written before the vault wrote chunks (version 1) are invalid, so
// their tables rebuild cold; nothing migrates them.
func TestVaultCodecRejectsOldLayouts(t *testing.T) {
	x := jsonidx.New()
	rec := x.Record([]string{"a"})
	rec.AppendRow(0, []int64{3})
	rec.Commit()
	for name, err := range map[string]error{
		"posmap":  errOf(DecodePosMap(encodePosMapV1(testFP(), samplePosMap(t)))),
		"jsonidx": errOf(DecodeJSONIdx(atVersion(EncodeJSONIdx(testFP(), x), 1))),
		"shreds":  errOf(DecodeShreds(atVersion(EncodeShreds(testFP(), sampleShreds()), 1))),
	} {
		if !errors.Is(err, ErrCodec) {
			t.Errorf("a version 1 %s entry decoded: %v", name, err)
		}
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteEntry("t", KindPosMap, encodePosMapV1(testFP(), samplePosMap(t))); err != nil {
		t.Fatal(err)
	}
	if got := s.Load("t", KindPosMap, testFP()); got != nil {
		t.Fatalf("a version 1 posmap entry loaded: %v", got)
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
	x := jsonidx.New()
	rec := x.Record([]string{"a"})
	rec.AppendRow(5000, []int64{5005})
	rec.Commit()
	if _, _, err := DecodeJSONIdx(EncodeJSONIdx(small, x)); err == nil {
		t.Fatal("jsonidx offsets beyond the raw file size decoded successfully")
	}
	// Forge a huge npaths count with a recomputed checksum: decode must
	// error on the implausible count, not allocate for it.
	enc := EncodeJSONIdx(testFP(), jsonidx.New())
	body := enc[:len(enc)-8]
	copy(body[len(appendHeader(nil, KindJSONIdx, testFP())):], []byte{0xff, 0xff, 0xff, 0xff})
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
	idx := jsonidx.New()
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

// TestEncodeJSONIdxCountsNoSeek checks that writing an index back to the
// vault is not a query: it counts no seek.
func TestEncodeJSONIdxCountsNoSeek(t *testing.T) {
	x := jsonidx.New()
	rec := x.Record([]string{"a", "b"})
	for r := int64(0); r < 3; r++ {
		rec.AppendRow(r*10, []int64{r*10 + 2, r*10 + 4})
	}
	rec.Commit()
	x.Positions("a")
	seeks := x.Seeks()
	EncodeJSONIdx(testFP(), x)
	if got := x.Seeks(); got != seeks {
		t.Fatalf("encode moved Seeks from %d to %d", seeks, got)
	}
}
