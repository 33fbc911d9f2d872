package vault

import (
	"path/filepath"
	"reflect"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/dataset"
)

func sampleManifest() *dataset.Manifest {
	return &dataset.Manifest{Pattern: "logs/*", Parts: []dataset.Partition{
		{Path: "logs/2026-07-24.csv", ID: "2026-07-24.csv", Format: catalog.CSV,
			Size: 4096, MTime: 1000, Rows: 120},
		{Path: "logs/2026-07-25.jsonl", ID: "2026-07-25.jsonl", Format: catalog.JSON,
			Size: 9000, MTime: 2000, Rows: -1},
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
