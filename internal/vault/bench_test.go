package vault

import (
	"testing"

	"rawdb/internal/jsonidx"
	"rawdb/internal/posmap"
	"rawdb/internal/vector"
)

// Codec benchmarks: encode/decode cost is paid under the per-table query
// lock (encode) and at Register* (decode), so it must stay linear and brisk.
// Each reports ns per row of the encoded structure beside ns per op.

const benchRows = 20_000

// benchFP covers every offset the benchmark structures record (100 bytes a
// row), so that the decoders' range checks pass.
var benchFP = Fingerprint{Size: benchRows * 100, MTime: 2, Sum: 3, Schema: 4}

func benchPosMap(rows int64) *posmap.Map {
	pm := posmap.New(posmap.Policy{EveryK: 10}, 30)
	offs := make([]int64, len(pm.TrackedColumns()))
	for r := int64(0); r < rows; r++ {
		for i := range offs {
			offs[i] = r*100 + int64(i)*10
		}
		pm.AppendRow(offs)
	}
	pm.Clip()
	return pm
}

func benchJSONIdx(rows int64) *jsonidx.Index {
	x := jsonidx.New()
	rec := x.Record([]string{"a", "b.c", "d"})
	offs := make([]int64, 3)
	for r := int64(0); r < rows; r++ {
		for i := range offs {
			offs[i] = r*100 + 7 + int64(i)*20 + r%13
		}
		rec.AppendRow(r*100, offs)
	}
	rec.Commit()
	return x
}

// benchCodec times encode and decode of one entry of rows rows.
func benchCodec[T any](b *testing.B, rows int, x T, enc func(Fingerprint, T) []byte, dec func([]byte) (Fingerprint, T, error)) {
	data := enc(benchFP, x)
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			enc(benchFP, x)
		}
		perRow(b)
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, _, err := dec(data); err != nil {
				b.Fatal(err)
			}
		}
		perRow(b)
	})
}

func BenchmarkVaultCodecPosMap(b *testing.B) {
	benchCodec(b, benchRows, benchPosMap(benchRows), EncodePosMap, DecodePosMap)
}

func BenchmarkVaultCodecJSONIdx(b *testing.B) {
	benchCodec(b, benchRows, benchJSONIdx(benchRows), EncodeJSONIdx, DecodeJSONIdx)
}

func BenchmarkVaultCodecShreds(b *testing.B) {
	iv := vector.New(vector.Int64, benchRows)
	fv := vector.New(vector.Float64, benchRows)
	for r := 0; r < benchRows; r++ {
		iv.AppendInt64(int64(r) * 3)
		fv.AppendFloat64(float64(r) / 64)
	}
	benchCodec(b, 2*benchRows, []TableShred{{Col: 0, Vec: iv}, {Col: 11, Vec: fv}}, EncodeShreds, DecodeShreds)
}
