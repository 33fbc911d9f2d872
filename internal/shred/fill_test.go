package shred

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/vector"
)

// fillCase is one LateFill check: a column of n rows, the sorted row ids its
// shred holds (nil: a full shred of all n), the sorted row ids a query asks
// for, the child's batch size and how many passes (re-Opens) to run.
type fillCase struct {
	typ           vector.Type
	n             int64
	have, want    []int64
	batch, passes int
}

// fillValue is row r's value in a fillCase column, distinct per row; the
// float one is not an integer.
func fillValue(typ vector.Type, r int64, out *vector.Vector) {
	if typ == vector.Int64 {
		out.AppendInt64(r*7919 - 3)
	} else {
		out.AppendFloat64(float64(r)*0.37 - 11)
	}
}

// checkLateFill runs c through a late scan over a LateFill whose raw fetch
// records its calls, and holds it to the per-row reference: every value is
// the column's at that row, bit for bit, and on every pass the raw fetch was
// called with exactly the row ids the shred lacks, in order.
func checkLateFill(t *testing.T, c fillCase) {
	t.Helper()
	held := c.have
	if held == nil {
		for r := int64(0); r < c.n; r++ {
			held = append(held, r)
		}
	}
	vec := vector.New(c.typ, len(held))
	for _, r := range held {
		fillValue(c.typ, r, vec)
	}
	s := &Shred{key: Key{"t", 1}, rowIDs: c.have, vec: vec}
	var calls []int64
	raw := func(rids []int64, outs []*vector.Vector) error {
		calls = append(calls, rids...)
		for _, r := range rids {
			fillValue(c.typ, r, outs[0])
		}
		return nil
	}
	fill := NewLateFill([]*Shred{s}, []exec.Fetch{raw})
	child, err := exec.NewMemScan(vector.Schema{{Name: insitu.RowIDColumn, Type: vector.Int64}},
		[]*vector.Vector{intVec(c.want...)}, c.batch)
	if err != nil {
		t.Fatal(err)
	}
	late, err := exec.NewLateScan(child, 0, insitu.RowIDColumn, vector.Schema{{Name: "c", Type: c.typ}}, fill.Fetch)
	if err != nil {
		t.Fatal(err)
	}
	var missing []int64
	ref := vector.New(c.typ, len(c.want))
	for _, r := range c.want {
		if _, ok := slices.BinarySearch(held, r); !ok {
			missing = append(missing, r)
		}
		fillValue(c.typ, r, ref)
	}
	for pass := 0; pass < c.passes; pass++ {
		calls = calls[:0]
		out, err := exec.Collect(late)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		got := out[1]
		if got.Len() != len(c.want) {
			t.Fatalf("pass %d: %d rows, want %d", pass, got.Len(), len(c.want))
		}
		for k, r := range c.want {
			if c.typ == vector.Int64 && got.Int64s[k] != ref.Int64s[k] ||
				c.typ == vector.Float64 && math.Float64bits(got.Float64s[k]) != math.Float64bits(ref.Float64s[k]) {
				t.Fatalf("pass %d: row id %d got %v, want %v", pass, r, got.Value(k), ref.Value(k))
			}
		}
		if !slices.Equal(calls, missing) {
			t.Fatalf("pass %d: raw fetch read %v, want the missing rows %v", pass, calls, missing)
		}
	}
	if want := int64(c.passes * len(missing)); fill.Filled != want {
		t.Fatalf("Filled = %d, want %d", fill.Filled, want)
	}
}

// TestLateFillMatchesNaive: the completing fetch against a per-row reference
// over shreds holding nothing, everything, one row, interleaved runs and
// random subsets of a column, asked for none, all, one, runs and random rows,
// Int64 and Float64, in batches of random sizes over three passes.
func TestLateFillMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const n = 3000
	subset := func(p float64) []int64 {
		out := []int64{}
		for r := int64(0); r < n; r++ {
			if rng.Float64() < p {
				out = append(out, r)
			}
		}
		return out
	}
	runs := func() []int64 {
		out := []int64{}
		for r := int64(0); r < n; {
			l := 1 + rng.Int63n(300)
			if rng.Intn(2) == 0 {
				for k := r; k < min(r+l, n); k++ {
					out = append(out, k)
				}
			}
			r += l
		}
		return out
	}
	type named struct {
		name string
		ids  []int64
	}
	haves := []named{{"empty", []int64{}}, {"full", nil}, {"all-listed", subset(1)}, {"single", []int64{1234}},
		{"runs", runs()}, {"sparse", subset(0.05)}, {"dense", subset(0.9)}}
	wants := []named{{"none", nil}, {"all", subset(1)}, {"single", []int64{1234}}, {"other-single", []int64{17}},
		{"runs", runs()}, {"random", subset(0.3)}}
	for _, h := range haves {
		for _, w := range wants {
			for _, typ := range []vector.Type{vector.Int64, vector.Float64} {
				c := fillCase{typ: typ, n: n, have: h.ids, want: w.ids, batch: 1 + rng.Intn(700), passes: 3}
				t.Run(fmt.Sprintf("%s/%s/%s", h.name, w.name, typ), func(t *testing.T) { checkLateFill(t, c) })
			}
		}
	}
}

// FuzzLateFill: the same reference over arbitrary held and asked-for row
// sets (bit masks), full shreds, batch sizes, types and pass counts.
func FuzzLateFill(f *testing.F) {
	f.Add([]byte{0xff, 0x0f}, []byte{0xf0, 0x33}, false, uint8(3), false, uint8(2))
	f.Add([]byte{}, []byte{0xff, 0x01}, false, uint8(0), true, uint8(1))
	f.Add([]byte{0x55}, []byte{0xaa, 0xff}, true, uint8(2), true, uint8(3))
	f.Fuzz(func(t *testing.T, haveBits, wantBits []byte, full bool, batch uint8, float bool, passes uint8) {
		bits := func(b []byte) []int64 {
			out := []int64{}
			for r := 0; r < 8*len(b); r++ {
				if b[r/8]>>(r%8)&1 == 1 {
					out = append(out, int64(r))
				}
			}
			return out
		}
		c := fillCase{typ: vector.Int64, n: int64(8 * max(len(haveBits), len(wantBits))),
			have: bits(haveBits), want: bits(wantBits), batch: 1 + int(batch)%64, passes: 1 + int(passes)%3}
		if full {
			c.have = nil
		}
		if float {
			c.typ = vector.Float64
		}
		checkLateFill(t, c)
	})
}
