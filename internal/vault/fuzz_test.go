package vault

import (
	"bytes"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/dataset"
	"rawdb/internal/posmap"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// FuzzManifestDecode is the same never-panic/round-trip contract for the
// fifth record type: a corrupt manifest.rawv must cold-rebuild the dataset's
// partition list (re-discovery), never crash a restart.
func FuzzManifestDecode(f *testing.F) {
	fp := Fingerprint{Sum: 42, Schema: 9}
	m := &dataset.Manifest{Pattern: "logs/*.csv", Parts: []dataset.Partition{
		{Path: "logs/a.csv", ID: "a.csv", Format: catalog.CSV, Size: 100, MTime: 1111, Inode: 0, Rows: 10},
		{Path: "logs/b.jsonl", ID: "b.jsonl", Format: catalog.JSON, Size: 2000, MTime: 2222, Inode: 31337, Rows: -1},
	}}
	enc := EncodeManifest(fp, m)
	f.Add(enc)
	f.Add(encodeManifestV1(fp, m))                 // the layout before inodes: rejected
	f.Add(EncodeManifest(fp, sampleManifest()))    // inodes up to the top bit
	f.Add(EncodeManifest(fp, &dataset.Manifest{})) // no pattern, no parts
	f.Add(enc[:len(enc)-20])                       // cut inside the last inode
	f.Add(enc[:len(enc)/2])
	flipped := append([]byte{}, enc...)
	flipped[11] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("RAWV"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		gotFP, got, err := DecodeManifest(data)
		if err != nil {
			return
		}
		enc := EncodeManifest(gotFP, got)
		_, again, err2 := DecodeManifest(enc)
		if err2 != nil {
			t.Fatalf("manifest re-encode does not decode: %v", err2)
		}
		if again.Pattern != got.Pattern || len(again.Parts) != len(got.Parts) {
			t.Fatal("manifest round trip changed shape")
		}
		for i := range got.Parts {
			if again.Parts[i] != got.Parts[i] {
				t.Fatalf("partition %d round trip mismatch", i)
			}
		}
	})
}

// FuzzVaultDecode feeds arbitrary bytes to every entry decoder. The
// contract under test is the vault's safety property: decoding untrusted
// bytes never panics, and either yields a structure that re-encodes to a
// decodable entry (round trip) or returns an error — which the engine turns
// into a clean cold rebuild. Allocation bounds are implicit: a decoder that
// believed a huge length prefix would OOM the fuzzer.
func FuzzVaultDecode(f *testing.F) {
	// Seed with valid entries of each kind, plus truncations and bit flips.
	pm := posmap.New(posmap.Policy{Extra: []int{0, 2}}, 5)
	for r := int64(0); r < 8; r++ {
		pm.AppendRow([]int64{r * 10, r*10 + 4})
	}
	fp := Fingerprint{Size: 80, MTime: 123, Sum: 7, Schema: 9}
	posEnc := EncodePosMap(fp, pm)

	iv := vector.New(vector.Int64, 3)
	iv.Int64s = []int64{1, 2, 3}
	sv := vector.New(vector.Bytes, 2)
	sv.Bytess = [][]byte{[]byte("ab"), []byte("c")}
	shredEnc := EncodeShreds(fp, []TableShred{
		{Col: 0, Vec: iv},
		{Col: 1, RowIDs: []int64{0, 2}, Vec: sv},
	})

	f.Add(posEnc)
	f.Add(shredEnc)
	f.Add(posEnc[:len(posEnc)/2])
	flipped := append([]byte{}, posEnc...)
	flipped[9] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("RAWV"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Re-encode under the fingerprint the entry decoded with: offsets are
		// range-checked against the fingerprinted file size.
		if gotFP, got, err := DecodePosMap(data); err == nil {
			enc := EncodePosMap(gotFP, got)
			if _, again, err2 := DecodePosMap(enc); err2 != nil {
				t.Fatalf("posmap re-encode does not decode: %v", err2)
			} else if again.NRows() != got.NRows() {
				t.Fatal("posmap round trip changed row count")
			}
		}
		if gotFP, got, err := DecodeJSONIdx(data); err == nil {
			enc := EncodeJSONIdx(gotFP, got)
			if _, again, err2 := DecodeJSONIdx(enc); err2 != nil {
				t.Fatalf("jsonidx re-encode does not decode: %v", err2)
			} else if again.NRows() != got.NRows() {
				t.Fatal("jsonidx round trip changed row count")
			}
		}
		if gotFP, got, err := DecodeShreds(data); err == nil {
			enc := EncodeShreds(gotFP, got)
			_, again, err2 := DecodeShreds(enc)
			if err2 != nil {
				t.Fatalf("shreds re-encode does not decode: %v", err2)
			}
			if len(again) != len(got) {
				t.Fatal("shreds round trip changed count")
			}
			for i := range got {
				if again[i].Col != got[i].Col || again[i].Vec.Len() != got[i].Vec.Len() {
					t.Fatal("shreds round trip changed shape")
				}
			}
		}
		// Fingerprints of arbitrary data are deterministic.
		if DataFingerprint(data) != DataFingerprint(bytes.Clone(data)) {
			t.Fatal("DataFingerprint not deterministic")
		}
	})
}

// FuzzSynopsisDecode mirrors FuzzVaultDecode for the zone-map entry kind: a
// corrupt synopsis.rawv must never panic a restart, and anything that decodes
// must round-trip (the soundness of a decoded synopsis — ordered bounds,
// min <= max, full coverage — is enforced by synopsis.Restore inside the
// decoder, so a successful decode is safe to prune with).
func FuzzSynopsisDecode(f *testing.F) {
	b := synopsis.NewBuilder(4, map[int]vector.Type{0: vector.Int64, 2: vector.Float64})
	for r := int64(0); r < 10; r++ {
		b.Acc(0).ObserveInt64(r * 3)
		b.Acc(2).ObserveFloat64(float64(r) / 2)
		b.Advance(1)
	}
	fp := Fingerprint{Size: 80, MTime: 123, Sum: 7, Schema: 9}
	enc := EncodeSynopsis(fp, b.Finish())
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	flipped := append([]byte{}, enc...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("RAWV"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		gotFP, got, err := DecodeSynopsis(data)
		if err != nil {
			return
		}
		enc := EncodeSynopsis(gotFP, got)
		_, again, err2 := DecodeSynopsis(enc)
		if err2 != nil {
			t.Fatalf("synopsis re-encode does not decode: %v", err2)
		}
		if again.NRows() != got.NRows() || again.NBlocks() != got.NBlocks() {
			t.Fatal("synopsis round trip changed shape")
		}
	})
}
