package posmap_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"rawdb/internal/jsonidx"
	"rawdb/internal/posmap"
	"rawdb/internal/vault"
)

// offsetsRef is one recorded file, kept as plain []int64: the row starts, the
// offsets of the positional map's tracked columns (0, 3, 6 of 8) and of the
// structural index's paths.
type offsetsRef struct {
	rows  []int64
	cols  [][]int64 // tracked column -> per-row offset; column 0 is the row start
	paths map[string][]int64
}

var (
	refPolicy = posmap.Policy{EveryK: 3}
	refPaths  = []string{"a", "b.c", "wide"}
)

const refCols = 8

// genOffsets draws n rows whose widths come from widths (byte counts chosen
// per row), so that one chunk's span crosses 2^8, 2^16 or 2^32 as the widths
// demand. Field offsets lie anywhere inside their row, in either order.
func genOffsets(rng *rand.Rand, n int, start int64, widths []int64) offsetsRef {
	ref := offsetsRef{cols: make([][]int64, 3), paths: map[string][]int64{}}
	at := start
	for r := 0; r < n; r++ {
		w := widths[rng.Intn(len(widths))]
		in := func() int64 { return at + rng.Int63n(w) }
		ref.rows = append(ref.rows, at)
		f1 := in()
		f2 := max(f1, in())
		ref.cols[0] = append(ref.cols[0], at)
		ref.cols[1] = append(ref.cols[1], f1)
		ref.cols[2] = append(ref.cols[2], f2)
		ref.paths["a"] = append(ref.paths["a"], in())
		ref.paths["b.c"] = append(ref.paths["b.c"], in())
		ref.paths["wide"] = append(ref.paths["wide"], at+w-1)
		at += w
	}
	return ref
}

// serial builds both structures the way one cold scan does: row by row.
func (ref offsetsRef) serial(lo, hi int, shift int64) (*posmap.Map, *jsonidx.Index) {
	pm := posmap.New(refPolicy, refCols)
	x := jsonidx.New()
	rec := x.Record(refPaths)
	row := make([]int64, len(ref.cols))
	offs := make([]int64, len(refPaths))
	for r := lo; r < hi; r++ {
		for i := range ref.cols {
			row[i] = ref.cols[i][r] - shift
		}
		pm.AppendRow(row)
		for i, p := range refPaths {
			offs[i] = ref.paths[p][r] - shift
		}
		rec.AppendRow(ref.rows[r]-shift, offs)
	}
	rec.Commit()
	return pm, x
}

// merged builds both structures the way a parallel cold scan publishes them:
// one fragment per cut, each recorded relative to its own byte offset.
func (ref offsetsRef) merged(cuts []int) (*posmap.Map, *jsonidx.Index, error) {
	pm := posmap.New(refPolicy, refCols)
	var frags []*jsonidx.Index
	var offs []int64
	lo := 0
	for _, hi := range append(cuts, len(ref.rows)) {
		var shift int64
		if lo < hi {
			shift = ref.rows[lo] - int64(lo%7) // a span starts at or before its first row
		}
		fm, fx := ref.serial(lo, hi, shift)
		if err := pm.Merge(fm, shift); err != nil {
			return nil, nil, err
		}
		frags, offs = append(frags, fx), append(offs, shift)
		lo = hi
	}
	return pm, jsonidx.Merge(frags, offs), nil
}

// restored round-trips both structures through the vault's binary form, as a
// save and a restart do: the chunks come back as they were written.
func restored(pm *posmap.Map, x *jsonidx.Index) (*posmap.Map, *jsonidx.Index, error) {
	fp := vault.Fingerprint{Size: math.MaxInt64}
	_, pm, err := vault.DecodePosMap(vault.EncodePosMap(fp, pm))
	if err != nil {
		return nil, nil, err
	}
	_, x, err = vault.DecodeJSONIdx(vault.EncodeJSONIdx(fp, x))
	return pm, x, err
}

// pmBatch and idxBatch read rows [lo, hi) of one recorded column as a batch.
// Each decodes into a scratch slice that already holds other values.
func pmBatch(pm *posmap.Map, c int, lo, hi int64) []int64 {
	return pm.Positions(c).Decode([]int64{-1, -2, -3}, lo, hi)
}

func idxBatch(x *jsonidx.Index, path string, lo, hi int64) []int64 {
	if path == "" {
		return x.RowStarts().Decode(make([]int64, 5, 2000), lo, hi)
	}
	return x.Positions(path).Decode(nil, lo, hi)
}

// check compares every Lookup, RowStart and a spread of batch reads of pm and
// x against the reference.
func (ref offsetsRef) check(pm *posmap.Map, x *jsonidx.Index, rng *rand.Rand) error {
	n := int64(len(ref.rows))
	if pm.NRows() != n || x.NRows() != n {
		return fmt.Errorf("rows: posmap %d, jsonidx %d, want %d", pm.NRows(), x.NRows(), n)
	}
	tracked := refPolicy.Columns(refCols)
	if n > 0 && !slices.Equal(x.TrackedPaths(), []string{"a", "b.c", "wide"}) {
		return fmt.Errorf("paths %v", x.TrackedPaths())
	}
	for r := int64(0); r < n; r++ {
		for c := 0; c < refCols; c++ {
			slot := c / 3
			pos, skip, ok := pm.Lookup(r, c)
			if !ok || pos != ref.cols[slot][r] || skip != c-tracked[slot] {
				return fmt.Errorf("Lookup(%d, %d) = %d, %d, %v, want %d, %d", r, c, pos, skip, ok, ref.cols[slot][r], c-tracked[slot])
			}
		}
		if got := x.RowStart(r); got != ref.rows[r] {
			return fmt.Errorf("RowStart(%d) = %d, want %d", r, got, ref.rows[r])
		}
	}
	if _, _, ok := pm.Lookup(n, 0); ok {
		return fmt.Errorf("Lookup past the last row succeeded")
	}
	ranges := [][2]int64{{0, n}}
	for i := 0; i < 8 && n > 0; i++ {
		lo := rng.Int63n(n)
		ranges = append(ranges, [2]int64{lo, lo + rng.Int63n(n-lo+1)})
	}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		for slot, c := range tracked {
			if got := pmBatch(pm, c, lo, hi); !slices.Equal(got, ref.cols[slot][lo:hi]) {
				return fmt.Errorf("posmap column %d rows [%d, %d): %v, want %v", c, lo, hi, got, ref.cols[slot][lo:hi])
			}
		}
		if got := idxBatch(x, "", lo, hi); !slices.Equal(got, ref.rows[lo:hi]) {
			return fmt.Errorf("row starts [%d, %d): %v, want %v", lo, hi, got, ref.rows[lo:hi])
		}
		if n == 0 {
			continue
		}
		for _, p := range refPaths {
			if got := idxBatch(x, p, lo, hi); !slices.Equal(got, ref.paths[p][lo:hi]) {
				return fmt.Errorf("path %s rows [%d, %d): %v, want %v", p, lo, hi, got, ref.paths[p][lo:hi])
			}
		}
	}
	return nil
}

// checkAllWays builds the structures of ref serially and by a merge of the
// fragments cuts draws, round-trips the merge through the vault's binary
// form, and checks each against ref.
func (ref offsetsRef) checkAllWays(cuts []int, rng *rand.Rand) error {
	pm, x := ref.serial(0, len(ref.rows), 0)
	if err := ref.check(pm, x, rng); err != nil {
		return fmt.Errorf("serial: %w", err)
	}
	pm, x, err := ref.merged(cuts)
	if err == nil {
		err = ref.check(pm, x, rng)
	}
	if err != nil {
		return fmt.Errorf("merge of %d fragments at %v: %w", len(cuts)+1, cuts, err)
	}
	pm, x, err = restored(pm, x)
	if err == nil {
		err = ref.check(pm, x, rng)
	}
	if err != nil {
		return fmt.Errorf("vault round trip of the merge: %w", err)
	}
	return nil
}

// drawCuts draws k-1 sorted fragment ends over n rows. Only the first
// fragment is kept non-empty: Merge takes the tracked paths from it.
func drawCuts(rng *rand.Rand, n, k int) []int {
	cuts := make([]int, 0, k-1)
	for i := 1; i < k; i++ {
		cuts = append(cuts, rng.Intn(n+1))
	}
	for i := range cuts {
		if n > 0 && cuts[i] == 0 {
			cuts[i] = 1
		}
	}
	slices.Sort(cuts)
	return cuts
}

// TestOffsetsMatchReference checks the positional map and the structural
// index against plain []int64 offsets, built serially, by a k-fragment merge
// (k = 1..9, with empty fragments and row counts off any chunk multiple) and
// by a vault round trip of the merge, over row widths whose spans cross 2^8,
// 2^16 and 2^32 and rows wider than 64 KiB.
func TestOffsetsMatchReference(t *testing.T) {
	widths := map[string][]int64{
		"narrow":  {1, 2, 3},
		"byte":    {60, 90, 200},
		"word":    {300, 900, 70_000},
		"wide":    {66_000, 1 << 17},
		"huge":    {1 << 20, 5 << 30},
		"mixed":   {1, 250, 70_000, 1<<32 + 17},
		"4GiBrow": {1<<32 + 1},
	}
	for name, w := range widths {
		for _, n := range []int{0, 1, 127, 128, 129, 383, 1000} {
			for k := 1; k <= 9; k++ {
				rng := rand.New(rand.NewSource(int64(n*31 + k)))
				ref := genOffsets(rng, n, rng.Int63n(1<<20), w)
				if err := ref.checkAllWays(drawCuts(rng, n, k), rng); err != nil {
					t.Fatalf("%s, %d rows: %v", name, n, err)
				}
			}
		}
	}
}

// FuzzOffsets is TestOffsetsMatchReference over fuzzed row counts, widths,
// first offsets and fragment cuts.
func FuzzOffsets(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(3), uint64(0), []byte{1, 200, 7})
	f.Add(int64(2), uint16(128), uint8(9), uint64(1<<40), []byte{255, 0, 3, 90})
	f.Add(int64(3), uint16(1), uint8(1), uint64(7), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, k uint8, start uint64, shape []byte) {
		rows := int(n % 1500)
		frags := int(k%9) + 1
		widths := []int64{1}
		for _, b := range shape {
			// each byte picks a width on a log scale up to 2^35
			widths = append(widths, int64(1)<<(b%36)+int64(b>>6))
		}
		rng := rand.New(rand.NewSource(seed))
		ref := genOffsets(rng, rows, int64(start%(1<<50)), widths)
		if err := ref.checkAllWays(drawCuts(rng, rows, frags), rng); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFootprintHonest checks that MemoryFootprint, which the cache budget
// charges, is what a 100k-row positional map and structural index take on
// the heap: within 10 % of the heap's growth while each is built, measured
// after a collection so that regrown buffers do not count.
func TestFootprintHonest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := genOffsets(rng, 100_000, 0, []int64{70, 85, 100, 140})
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, kind := range []string{"posmap", "jsonidx"} {
		before := heap()
		pm, x := ref.serial(0, len(ref.rows), 0)
		var fp int64
		if kind == "posmap" {
			x, fp = nil, pm.MemoryFootprint()
		} else {
			pm, fp = nil, x.MemoryFootprint()
		}
		grew := int64(heap() - before)
		runtime.KeepAlive(pm)
		runtime.KeepAlive(x)
		t.Logf("%s: footprint %d bytes (%.2f B/row), heap grew %d", kind, fp, float64(fp)/1e5, grew)
		if d := fp - grew; d > grew/10 || -d > grew/10 {
			t.Errorf("%s: footprint %d bytes, heap grew %d", kind, fp, grew)
		}
	}
}
