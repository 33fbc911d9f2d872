package vault

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"rawdb/internal/catalog"
	"rawdb/internal/dataset"
	"rawdb/internal/jsonidx"
	"rawdb/internal/posmap"
	"rawdb/internal/synopsis"
	"rawdb/internal/vector"
)

// sealed returns data as given and, when it is long enough to carry a
// trailer, with its trailer re-sealed over the bytes before it: a mutated
// input then passes the checksum, and the payload checks behind it are what
// the fuzzer exercises.
func sealed(data []byte) [][]byte {
	if len(data) < 8 {
		return [][]byte{data}
	}
	return [][]byte{data, appendCheck(bytes.Clone(data[:len(data)-8]))}
}

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
		for _, data := range sealed(data) {
			gotFP, got, err := DecodeManifest(data)
			if err != nil {
				continue
			}
			_, again, err := DecodeManifest(EncodeManifest(gotFP, got))
			if err != nil {
				t.Fatalf("manifest re-encode does not decode: %v", err)
			}
			if again.Pattern != got.Pattern || !slices.Equal(again.Parts, got.Parts) {
				t.Fatalf("manifest round trip: %+v, want %+v", again, got)
			}
		}
	})
}

// posmapText renders a map's row count, tracked columns and positions.
func posmapText(pm *posmap.Map) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d rows\n", pm.NRows())
	for _, c := range pm.TrackedColumns() {
		fmt.Fprintf(&b, "%d: %v\n", c, decoded(pm.Positions(c)))
	}
	return b.String()
}

// jsonidxText renders an index's row starts and each path's offsets.
func jsonidxText(x *jsonidx.Index) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rows: %v\n", decoded(x.RowStarts()))
	for _, p := range x.TrackedPaths() {
		fmt.Fprintf(&b, "%q: %v\n", p, decoded(x.Peek(p)))
	}
	return b.String()
}

// linkedPosMap is a map merged from a fragment of 5 rows and one of 130:
// its columns hold a short chunk mid-column, which ends a segment. Its rows
// are w bytes apart, so that the first column's full chunk is as wide as w
// takes to span 127 rows.
func linkedPosMap(w int64) *posmap.Map {
	pm := posmap.New(posmap.Policy{Extra: []int{0, 2}}, 5)
	var at int64
	for _, n := range []int{5, 130} {
		frag := posmap.New(posmap.Policy{Extra: []int{0, 2}}, 5)
		for range n {
			frag.AppendRow([]int64{at, at + 4})
			at += w
		}
		if err := pm.Merge(frag, 0); err != nil {
			panic(err)
		}
	}
	return pm
}

// FuzzVaultDecode feeds arbitrary bytes, as given and re-sealed, to every
// chunked entry decoder. The contract under test is the vault's safety
// property: decoding untrusted bytes never panics, and either yields a
// structure that re-encodes to an entry decoding to the same values (round
// trip) or returns an error — which the engine turns into a clean cold
// rebuild. Allocation bounds are implicit: a decoder that believed a huge
// length prefix would OOM the fuzzer.
func FuzzVaultDecode(f *testing.F) {
	// Seed with valid entries of each kind, plus truncations and bit flips.
	pm := posmap.New(posmap.Policy{Extra: []int{0, 2}}, 5)
	for r := int64(0); r < 8; r++ {
		pm.AppendRow([]int64{r * 10, r*10 + 4})
	}
	fp := Fingerprint{Size: 80, MTime: 123, Sum: 7, Schema: 9}
	posEnc := EncodePosMap(fp, pm)
	x := jsonidx.New()
	rec := x.Record([]string{"a", "p.e"})
	for r := int64(0); r < 6; r++ {
		rec.AppendRow(r*12, []int64{r*12 + 5, r*12 + 9})
	}
	rec.Commit()
	shredEnc := EncodeShreds(fp, sampleShreds())

	f.Add(posEnc)
	f.Add(EncodeJSONIdx(fp, x))
	f.Add(shredEnc)
	// Chunks of each width, and a short chunk mid-column.
	wide := Fingerprint{Size: 1 << 62}
	for _, w := range []int64{1, 1 << 8, 1 << 16, 1 << 32} {
		f.Add(EncodePosMap(wide, linkedPosMap(w)))
	}
	f.Add(EncodeShreds(fp, []TableShred{{Col: 1, Rows: column(), Ints: column()}})) // a partial shred of no rows
	// Anchored offsets past Size: rejected, a step from valid.
	past := posmap.New(posmap.Policy{Extra: []int{0, 2}}, 5)
	past.AppendRow([]int64{10, 85})
	f.Add(EncodePosMap(fp, past))
	f.Add(posEnc[:len(posEnc)/2])
	flipped := append([]byte{}, posEnc...)
	flipped[9] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("RAWV"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, data := range sealed(data) {
			// Re-encode under the fingerprint the entry decoded with: offsets
			// are range-checked against the fingerprinted file size.
			if gotFP, got, err := DecodePosMap(data); err == nil {
				if _, again, err := DecodePosMap(EncodePosMap(gotFP, got)); err != nil {
					t.Fatalf("posmap re-encode does not decode: %v", err)
				} else if a, g := posmapText(again), posmapText(got); a != g {
					t.Fatalf("posmap round trip:\n%s\nwant\n%s", a, g)
				}
			}
			if gotFP, got, err := DecodeJSONIdx(data); err == nil {
				if _, again, err := DecodeJSONIdx(EncodeJSONIdx(gotFP, got)); err != nil {
					t.Fatalf("jsonidx re-encode does not decode: %v", err)
				} else if a, g := jsonidxText(again), jsonidxText(got); a != g {
					t.Fatalf("jsonidx round trip:\n%s\nwant\n%s", a, g)
				}
			}
			if gotFP, got, err := DecodeShreds(data); err == nil {
				_, again, err := DecodeShreds(EncodeShreds(gotFP, got))
				if err != nil {
					t.Fatalf("shreds re-encode does not decode: %v", err)
				}
				sameShreds(t, again, got)
			}
		}
		// Fingerprints of arbitrary data are deterministic.
		if DataFingerprint(data) != DataFingerprint(bytes.Clone(data)) {
			t.Fatal("DataFingerprint not deterministic")
		}
	})
}

// synopsisText renders a synopsis's rows, bounds and each column's minima
// and maxima, floats as their bits.
func synopsisText(s *synopsis.Synopsis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d rows, bounds %v\n", s.NRows(), s.Bounds())
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	for _, c := range s.Columns() {
		fmt.Fprintf(&b, "%d %v: %v %v %v %v\n", c.Col, c.Type, c.IMin, c.IMax, bits(c.FMin), bits(c.FMax))
	}
	return b.String()
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
		for _, data := range sealed(data) {
			gotFP, got, err := DecodeSynopsis(data)
			if err != nil {
				continue
			}
			_, again, err := DecodeSynopsis(EncodeSynopsis(gotFP, got))
			if err != nil {
				t.Fatalf("synopsis re-encode does not decode: %v", err)
			}
			if a, g := synopsisText(again), synopsisText(got); a != g {
				t.Fatalf("synopsis round trip:\n%s\nwant\n%s", a, g)
			}
		}
	})
}
