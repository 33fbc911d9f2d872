package vault

import (
	"encoding/binary"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/dataset"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

func sampleManifest() *dataset.Manifest {
	return &dataset.Manifest{Pattern: "logs/*", Parts: []dataset.Partition{
		{Path: "logs/2026-07-24.csv", ID: "2026-07-24.csv", Format: catalog.CSV,
			Size: 4096, MTime: 1000, Inode: 7340033, Rows: 120},
		{Path: "logs/2026-07-25.jsonl", ID: "2026-07-25.jsonl", Format: catalog.JSON,
			Size: 9000, MTime: 2000, Inode: 1<<63 | 5, Rows: -1},
		{Path: "logs/2026-07-26.bin", ID: "2026-07-26.bin", Format: catalog.Binary,
			Size: 50, MTime: 3000, Rows: 0},
	}}
}

func TestManifestCodecRoundTrip(t *testing.T) {
	fp := testFP()
	m := sampleManifest()
	gotFP, got, err := DecodeManifest(EncodeManifest(fp, m))
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != fp {
		t.Fatalf("fingerprint round trip: got %+v want %+v", gotFP, fp)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest round trip: got %+v want %+v", got, m)
	}

	// Empty manifests round-trip too (a dataset registered over an empty
	// directory persists as such).
	empty := &dataset.Manifest{Pattern: "x/*.csv"}
	_, got, err = DecodeManifest(EncodeManifest(fp, empty))
	if err != nil {
		t.Fatal(err)
	}
	if got.Pattern != empty.Pattern || len(got.Parts) != 0 {
		t.Fatalf("empty manifest round trip: %+v", got)
	}
}

func TestManifestCodecCorruption(t *testing.T) {
	enc := EncodeManifest(testFP(), sampleManifest())
	for off := 0; off < len(enc); off += 5 {
		bad := append([]byte{}, enc...)
		bad[off] ^= 0x20
		if _, _, err := DecodeManifest(bad); err == nil {
			t.Fatalf("corruption at byte %d decoded successfully", off)
		}
	}
	for cut := 0; cut < len(enc); cut += 9 {
		if _, _, err := DecodeManifest(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	// Kind confusion both ways.
	if _, _, err := DecodePosMap(enc); err == nil {
		t.Fatal("manifest entry decoded as posmap")
	}
	if _, _, err := DecodeManifest(EncodePosMap(testFP(), samplePosMap(t))); err == nil {
		t.Fatal("posmap entry decoded as manifest")
	}
}

// encodeManifestV1 encodes m in the layout manifests had before they stored
// the inode: version 1, no inode field.
func encodeManifestV1(fp Fingerprint, m *dataset.Manifest) []byte {
	b := appendHeader(nil, KindManifest, fp)
	binary.LittleEndian.PutUint16(b[len(codecMagic):], 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Pattern)))
	b = append(b, m.Pattern...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Parts)))
	for _, p := range m.Parts {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Path)))
		b = append(b, p.Path...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.ID)))
		b = append(b, p.ID...)
		b = append(b, byte(p.Format))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.Size))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.MTime))
		b = binary.LittleEndian.AppendUint64(b, uint64(p.Rows))
	}
	return appendCheck(b)
}

// TestManifestWithoutInodeRejected: a manifest saved before the inode was
// stored is invalid (the dataset re-discovers its partitions cold), not
// read with every inode unknown; entries of the other kinds keep their
// version.
func TestManifestWithoutInodeRejected(t *testing.T) {
	if _, _, err := DecodeManifest(encodeManifestV1(testFP(), sampleManifest())); !errors.Is(err, ErrCodec) {
		t.Fatalf("a manifest without inodes decoded: %v", err)
	}
	syn := synopsis.NewBuilder(4, map[int]vector.Type{0: vector.Int64})
	syn.Acc(0).ObserveInt64(1)
	syn.Advance(1)
	if v := binary.LittleEndian.Uint16(EncodeSynopsis(testFP(), syn.Finish())[len(codecMagic):]); v != 1 {
		t.Fatalf("synopsis entries are written at version %d, want 1", v)
	}
}

func TestManifestStoreRoundTrip(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "vault"))
	if err != nil {
		t.Fatal(err)
	}
	fp := testFP()
	m := sampleManifest()
	if err := s.WriteEntry("ds", KindManifest, EncodeManifest(fp, m)); err != nil {
		t.Fatal(err)
	}
	if got := s.Load("ds", KindManifest, fp); !reflect.DeepEqual(got, m) {
		t.Fatalf("store round trip: got %+v", got)
	}
	// A fingerprint mismatch (schema change, different pattern) invalidates.
	other := fp
	other.Schema++
	if got := s.Load("ds", KindManifest, other); got != nil {
		t.Fatalf("stale manifest served: %+v", got)
	}
	if got := s.Load("ds", KindManifest, fp); got != nil {
		t.Fatal("stale manifest entry not removed after mismatch")
	}
}
