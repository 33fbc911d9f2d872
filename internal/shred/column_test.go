package shred

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rawdb/internal/exec"
	"rawdb/internal/offsets"
	"rawdb/internal/vector"
)

// columnBases and columnSpans draw a chunk of values: a base, and a span the
// values fall in above it, just inside or just past each width's reach.
var (
	columnBases = []int64{0, -1, 1 << 40, -(1 << 40), math.MinInt64, math.MaxInt64 - (1 << 33), math.MinInt64 + 1}
	columnSpans = []uint64{1, 1 << 8, 1<<8 + 1, 1 << 16, 1<<16 + 1, 1 << 32, 1<<32 + 1, math.MaxUint64}
)

// columnCase derives a column from fuzzer bytes: n values, a base and a span
// drawn per run of up to two chunks (runs do not align with chunks), the row
// ids a partial shred of them holds (nil: full), and the batch cut.
func columnCase(data []byte) (vals, rids []int64, batch int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	word := func() uint64 {
		var b [8]byte
		for i := range b {
			b[i] = next()
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	n := int(next())<<2 | int(next()&3)
	batch = 1 + int(next())%300
	partial := next()&1 == 1
	for len(vals) < n {
		base, span := columnBases[int(next())%len(columnBases)], columnSpans[int(next())%len(columnSpans)]
		for range min(1+int(next()), n-len(vals)) {
			v := base
			if span > 1 {
				v += int64(word() % span) // wraps past MaxInt64, as any int64 may
			}
			vals = append(vals, v)
		}
	}
	if partial {
		rids = []int64{}
		r := int64(next())
		for range vals {
			rids = append(rids, r)
			r += 1 + int64(next()%4)*int64(next()) // runs, gaps and chunk-sized jumps
		}
	}
	return vals, rids, batch
}

// FuzzShredColumn holds a shred whose Int64 values and row ids are chunked
// columns to the flat values it was put from: scanned in batches, gathered by
// ascending, shuffled and repeated ids, fetched by LateFill, and filtered in
// the narrow lanes by each comparison with literals at a chunk's base, at its
// base plus its width's reach, and past both.
func FuzzShredColumn(f *testing.F) {
	f.Add([]byte{200, 1, 7, 0, 4, 1, 90, 3, 2, 200, 6, 6, 255})
	f.Add([]byte{0, 3, 64, 1, 2, 5, 127, 4, 7, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 3, 255, 0, 6, 7, 255, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, rids, batch := columnCase(data)
		p := NewPool(1 << 30)
		key := Key{"t", 0}
		s, _ := p.Put(key, rids, intVec(vals...))
		if s == nil {
			t.Fatalf("Put refused %d values, row ids %v", len(vals), rids)
		}
		if got := s.Values().Int64s; !slices.Equal(got, vals) || !slices.Equal(s.RowIDs(), rids) {
			t.Fatalf("decodes values %v row ids %v, want %v %v", got, s.RowIDs(), vals, rids)
		}
		if len(vals) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(data))))

		// A scan in batches, emitting the column with row ids.
		sc, err := exec.NewMemScanPred(vector.Schema{{Name: "c", Type: vector.Int64}, {Name: "rid", Type: vector.Int64}},
			[]exec.Column{s.Column()}, true, batch, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Collect(sc)
		if err != nil || !slices.Equal(out[0].Int64s, vals) {
			t.Fatalf("scan: %v, %v; want %v", out, err, vals)
		}

		// Gathers by position.
		asc := make([]int64, 0, len(vals))
		for i := range vals {
			if rng.Intn(3) > 0 {
				asc = append(asc, int64(i))
			}
		}
		shuffled := slices.Clone(asc)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		repeated := make([]int64, 0, 2*len(asc))
		for _, i := range asc {
			repeated = append(repeated, i, i, int64(rng.Intn(len(vals))))
		}
		for _, ids := range [][]int64{asc, shuffled, repeated} {
			got := s.ints.Gather(nil, ids)
			for k, i := range ids {
				if got[k] != vals[i] {
					t.Fatalf("gather of %d ids: position %d reads %d, want %d", len(ids), i, got[k], vals[i])
				}
			}
		}

		// LateFill, the rows the shred lacks read from a raw reference.
		at := map[int64]int64{}
		for i, v := range vals {
			if rids != nil {
				at[rids[i]] = v
			} else {
				at[int64(i)] = v
			}
		}
		raw := func(ids []int64, outs []*vector.Vector) error {
			for _, r := range ids {
				if _, ok := at[r]; ok {
					t.Fatalf("raw fetch asked for row %d, which the shred holds", r)
				}
				outs[0].AppendInt64(^r)
			}
			return nil
		}
		var ask []int64
		for i := range vals {
			r := int64(i)
			if rids != nil {
				r = rids[i]
			}
			ask = append(ask, r, r+1, max(r-1, 0))
		}
		rng.Shuffle(len(ask), func(i, j int) { ask[i], ask[j] = ask[j], ask[i] })
		fill := NewLateFill([]*Shred{s}, []exec.Fetch{raw})
		for lo := 0; lo < len(ask); lo += batch {
			ids := ask[lo:min(lo+batch, len(ask))]
			got := vector.New(vector.Int64, len(ids))
			if err := fill.Fetch(ids, []*vector.Vector{got}); err != nil {
				t.Fatal(err)
			}
			for k, r := range ids {
				want, ok := at[r]
				if !ok {
					want = ^r
				}
				if got.Int64s[k] != want {
					t.Fatalf("LateFill: row id %d reads %d, want %d", r, got.Int64s[k], want)
				}
			}
		}

		// Each comparison in the lanes, literals around every chunk's base
		// and width.
		var lits []int64
		for lo := 0; lo < len(vals); lo += offsets.ChunkRows {
			chunk := vals[lo:min(lo+offsets.ChunkRows, len(vals))]
			base := slices.Min(chunk)
			reach := int64(math.MaxInt64)
			for _, w := range []uint{8, 16, 32} {
				if uint64(slices.Max(chunk)-base) < 1<<w {
					reach = 1<<w - 1
					break
				}
			}
			for _, l := range []int64{base, base - 1, base + 1, base + reach, base + reach + 1, chunk[0]} {
				lits = append(lits, l) // wraps at the extremes, as any literal may
			}
		}
		for _, lit := range lits {
			for op := exec.Lt; op <= exec.Ne; op++ {
				p := exec.Pred{Op: op, I64: lit}
				sc, err := exec.NewMemScanPred(vector.Schema{{Name: "rid", Type: vector.Int64}},
					[]exec.Column{s.Column()}, true, batch, []exec.Pred{p}, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				out, err := exec.Collect(sc)
				if err != nil {
					t.Fatal(err)
				}
				var want []int64
				for i, v := range vals {
					if p.MatchInt64(v) {
						want = append(want, int64(i))
					}
				}
				if !slices.Equal(out[0].Int64s, want) {
					t.Fatalf("%s %d: rows %v, want %v", op, lit, out[0].Int64s, want)
				}
			}
		}
	})
}

// TestShredFootprintHonest: what a pooled shred charges the budget is within
// 10 % of what building it grew the heap by, for a full column and a partial
// one of random values and row ids.
func TestShredFootprintHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 100_000
	vals, rids := make([]int64, n), make([]int64, n)
	r := int64(0)
	for i := range vals {
		vals[i], rids[i] = rng.Int63n(1_000_000_000), r
		r += 1 + rng.Int63n(20)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, partial := range []bool{false, true} {
		var ids []int64
		if partial {
			ids = rids
		}
		before := heap()
		s := flatShred(Key{"t", 0}, ids, intVec(vals...))
		grew := int64(heap() - before)
		runtime.KeepAlive(s)
		fp := s.SizeBytes()
		t.Logf("partial=%v: %d bytes (%.2f B/row), heap grew %d", partial, fp, float64(fp)/n, grew)
		if d := fp - grew; d > grew/10 || -d > grew/10 {
			t.Errorf("partial=%v: charges %d bytes, heap grew %d", partial, fp, grew)
		}
	}
}
