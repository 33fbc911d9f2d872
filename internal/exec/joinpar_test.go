package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rawdb/internal/vector"
)

// TestHashProbeMatchesHashJoin: splitting the probe side into morsels probed
// against one SharedBuild, replayed in morsel order, must reproduce the
// serial join (one probe over the build) exactly — rows, order, and
// values.
func TestHashProbeMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nprobe, nbuild := 1000, 300
	pk := vector.New(vector.Int64, nprobe)
	pv := vector.New(vector.Float64, nprobe)
	for i := 0; i < nprobe; i++ {
		pk.AppendInt64(rng.Int63n(80))
		pv.AppendFloat64(float64(i) / 4)
	}
	bk := vector.New(vector.Int64, nbuild)
	bv := vector.New(vector.Int64, nbuild)
	for i := 0; i < nbuild; i++ {
		bk.AppendInt64(rng.Int63n(80))
		bv.AppendInt64(int64(i))
	}
	pschema := vector.Schema{{Name: "pk", Type: vector.Int64}, {Name: "pv", Type: vector.Float64}}
	bschema := vector.Schema{{Name: "bk", Type: vector.Int64}, {Name: "bv", Type: vector.Int64}}

	serialJoin, err := hashJoin(
		memScan(t, pschema, []*vector.Vector{pk, pv}, 128),
		memScan(t, bschema, []*vector.Vector{bk, bv}, 128),
		0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(serialJoin)
	if err != nil {
		t.Fatal(err)
	}

	for _, nmorsels := range []int{1, 2, 3, 8} {
		build, err := NewSharedBuild(memScan(t, bschema, []*vector.Vector{bk, bv}, 128), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		var parts []Operator
		for m := 0; m < nmorsels; m++ {
			lo, hi := nprobe*m/nmorsels, nprobe*(m+1)/nmorsels
			scan := memScan(t, pschema,
				[]*vector.Vector{pk.Slice(lo, hi), pv.Slice(lo, hi)}, 128)
			probe, err := NewHashProbe(scan, build, 0)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, probe)
		}
		par, err := NewParallel(parts, 4, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(par)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("morsels=%d: %d columns, want %d", nmorsels, len(got), len(want))
		}
		for c := range want {
			if got[c].Len() != want[c].Len() {
				t.Fatalf("morsels=%d col %d: %d rows, want %d",
					nmorsels, c, got[c].Len(), want[c].Len())
			}
			for r := 0; r < want[c].Len(); r++ {
				if got[c].Value(r) != want[c].Value(r) {
					t.Fatalf("morsels=%d: cell (%d,%d) = %v, want %v",
						nmorsels, r, c, got[c].Value(r), want[c].Value(r))
				}
			}
		}
	}
}

// TestSharedBuildPartitionedMatchesSingle: a build asked for parallelism
// links exactly the chains a serial one does under the same seed, each in
// ascending stream order and every row in its key's bucket.
func TestSharedBuildPartitionedMatchesSingle(t *testing.T) {
	n := 50000
	rng := rand.New(rand.NewSource(3))
	bk := vector.New(vector.Int64, n)
	bv := vector.New(vector.Int64, n)
	for i := 0; i < n; i++ {
		bk.AppendInt64(rng.Int63n(int64(n/3)) - int64(n/6))
		bv.AppendInt64(int64(i))
	}
	bschema := vector.Schema{{Name: "bk", Type: vector.Int64}, {Name: "bv", Type: vector.Int64}}
	single, err := NewSharedBuild(memScan(t, bschema, []*vector.Vector{bk, bv}, 256), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := NewSharedBuild(memScan(t, bschema, []*vector.Vector{bk, bv}, 256), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	multi.seed = single.seed
	if err := single.ensure(); err != nil {
		t.Fatal(err)
	}
	if err := multi.ensure(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(single.head, multi.head) || !slices.Equal(single.next, multi.next) {
		t.Fatal("parallelism changed the chains")
	}
	for bucket, link := range single.head {
		for prev := int32(0); link != 0; prev, link = link, single.next[link-1] {
			if link <= prev {
				t.Fatalf("bucket %d: row %d after row %d (stream order broken)", bucket, link-1, prev-1)
			}
			if khash(single.keys[link-1]^single.seed)>>single.shift != uint64(bucket) {
				t.Fatalf("row %d chained into bucket %d", link-1, bucket)
			}
		}
	}
}

// TestSharedBuildRowLimit: row indexes past the int32 chain entries are an
// error, not a silent wrap.
func TestSharedBuildRowLimit(t *testing.T) {
	if err := checkBuildRows(maxBuildRows); err != nil {
		t.Fatalf("limit rejected: %v", err)
	}
	if err := checkBuildRows(maxBuildRows + 1); err == nil {
		t.Fatal("build past the row limit accepted")
	}
}

// TestSharedBuildSeedScattersCraftedKeys: keys that share one chain under
// one seed spread out under another, and every build draws its own seed.
func TestSharedBuildSeedScattersCraftedKeys(t *testing.T) {
	keys := bucketZeroKeys(20)
	schema := vector.Schema{{Name: "k", Type: vector.Int64}}
	longest := func(seed int64) int {
		b, err := NewSharedBuild(memScan(t, schema, []*vector.Vector{intVec(keys...)}, 0), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		b.seed = seed
		if err := b.ensure(); err != nil {
			t.Fatal(err)
		}
		most := 0
		for _, link := range b.head {
			n := 0
			for ; link != 0; link = b.next[link-1] {
				n++
			}
			most = max(most, n)
		}
		return most
	}
	if n := longest(0); n != len(keys) {
		t.Fatalf("crafted keys: longest chain %d under seed 0, want %d", n, len(keys))
	}
	if n := longest(0x5DEECE66D); n > 4 {
		t.Fatalf("crafted keys: longest chain %d under another seed", n)
	}
	a, _ := NewSharedBuild(memScan(t, schema, []*vector.Vector{intVec(1)}, 0), 0, 1)
	b, _ := NewSharedBuild(memScan(t, schema, []*vector.Vector{intVec(1)}, 0), 0, 1)
	if a.seed == b.seed {
		t.Fatalf("two builds drew the same seed %#x", a.seed)
	}
}

// loopScan returns the same batch forever, allocating nothing.
type loopScan struct {
	schema vector.Schema
	b      *vector.Batch
}

func (s *loopScan) Schema() vector.Schema        { return s.schema }
func (s *loopScan) Open() error                  { return nil }
func (s *loopScan) Next() (*vector.Batch, error) { return s.b, nil }
func (s *loopScan) Close() error                 { return nil }

// TestHashProbeNextAllocs: after the first batch, probing allocates nothing.
func TestHashProbeNextAllocs(t *testing.T) {
	bschema := vector.Schema{{Name: "bk", Type: vector.Int64}, {Name: "bs", Type: vector.Bytes}}
	bk, bs := vector.New(vector.Int64, 1000), vector.New(vector.Bytes, 1000)
	for i := 0; i < 1000; i++ {
		bk.AppendInt64(int64(i))
		bs.AppendBytes([]byte("b"))
	}
	build, err := NewSharedBuild(memScan(t, bschema, []*vector.Vector{bk, bs}, 0), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pschema := vector.Schema{{Name: "pk", Type: vector.Int64}, {Name: "pf", Type: vector.Float64}}
	pk, pf := vector.New(vector.Int64, 1500), vector.New(vector.Float64, 1500)
	var sel []int32
	for i := 0; i < 1500; i++ {
		pk.AppendInt64(int64(i))
		pf.AppendFloat64(float64(i))
		if i%3 != 0 {
			sel = append(sel, int32(i))
		}
	}
	src := &loopScan{pschema, &vector.Batch{Cols: []*vector.Vector{pk, pf}, Sel: sel}}
	j, err := NewHashProbe(src, build, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Open(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	next := func() {
		b, err := j.Next()
		if err != nil || b.Len() != vector.DefaultBatchSize {
			t.Fatalf("Next = %v, %v", b, err)
		}
	}
	next()
	if allocs := testing.AllocsPerRun(50, next); allocs != 0 {
		t.Fatalf("HashProbe.Next allocates %v times per batch", allocs)
	}
}

// TestSharedBuildAllocsIndependentOfKeys: the build allocates per table, not
// per distinct key.
func TestSharedBuildAllocsIndependentOfKeys(t *testing.T) {
	n := 20000
	bschema := vector.Schema{{Name: "bk", Type: vector.Int64}}
	allocs := func(distinct int64) float64 {
		bk := seqKeys(n, distinct)
		return testing.AllocsPerRun(5, func() {
			build, err := NewSharedBuild(memScan(t, bschema, []*vector.Vector{intVec(bk...)}, 0), 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := build.ensure(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(10000); few != many {
		t.Fatalf("build allocates %v times for 10 keys, %v for 10000", few, many)
	}
}

func TestSharedBuildValidation(t *testing.T) {
	schema := vector.Schema{{Name: "f", Type: vector.Float64}}
	scan := memScan(t, schema, []*vector.Vector{floatVec(1)}, 0)
	if _, err := NewSharedBuild(scan, 0, 4); err == nil {
		t.Fatal("float join key accepted")
	}
	if _, err := NewSharedBuild(scan, 3, 4); err == nil {
		t.Fatal("out-of-range key accepted")
	}
	ischema := vector.Schema{{Name: "k", Type: vector.Int64}}
	iscan := memScan(t, ischema, []*vector.Vector{intVec(1)}, 0)
	build, err := NewSharedBuild(iscan, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	fscan := memScan(t, schema, []*vector.Vector{floatVec(1)}, 0)
	if _, err := NewHashProbe(fscan, build, 0); err == nil {
		t.Fatal("float probe key accepted")
	}
}

// joinDiff runs probe ⋈ build through the serial join, its table hashed
// under seed, and compares it, row for row and batch for batch, with a
// nested loop: probe rows in order (only
// those keep marks, when keep is non-nil, delivered through a selection
// vector), each with its build matches in build order, in output batches of
// outBatch rows but the last.
func joinDiff(bk, pk []int64, keep []bool, inBatch, outBatch int, seed int64) error {
	rowIDs := func(n int) *vector.Vector {
		v := vector.New(vector.Int64, n)
		for i := 0; i < n; i++ {
			v.AppendInt64(int64(i))
		}
		return v
	}
	keepv := vector.New(vector.Int64, len(pk))
	for i := range pk {
		if keep == nil || keep[i] {
			keepv.AppendInt64(1)
		} else {
			keepv.AppendInt64(0)
		}
	}
	bscan, err := NewMemScan(vector.Schema{{Name: "bk", Type: vector.Int64}, {Name: "brow", Type: vector.Int64}},
		[]*vector.Vector{intVec(bk...), rowIDs(len(bk))}, inBatch)
	if err != nil {
		return err
	}
	pscan, err := NewMemScanPred(vector.Schema{{Name: "pk", Type: vector.Int64}, {Name: "prow", Type: vector.Int64}, {Name: "keep", Type: vector.Int64}},
		[]*vector.Vector{intVec(pk...), rowIDs(len(pk)), keepv}, inBatch, []Pred{{Col: 2, Op: Eq, I64: 1}})
	if err != nil {
		return err
	}
	build, err := NewSharedBuild(bscan, 0, 1)
	if err != nil {
		return err
	}
	build.seed = seed
	j, err := NewHashProbe(pscan, build, 0)
	if err != nil {
		return err
	}
	j.batchSize = outBatch

	var want [][2]int64
	for p, k := range pk {
		if keep != nil && !keep[p] {
			continue
		}
		for b, k2 := range bk {
			if k == k2 {
				want = append(want, [2]int64{int64(p), int64(b)})
			}
		}
	}
	if err := j.Open(); err != nil {
		return err
	}
	defer j.Close()
	var got [][2]int64
	short := false
	for {
		out, err := j.Next()
		if err != nil {
			return err
		}
		if out == nil {
			break
		}
		n := out.Len()
		if out.Sel != nil || n == 0 || n > outBatch || short {
			return fmt.Errorf("batch of %d rows (sel %v) after %d rows, want full batches of %d", n, out.Sel != nil, len(got), outBatch)
		}
		short = n < outBatch
		for i := 0; i < n; i++ {
			p, b := out.Cols[1].Int64s[i], out.Cols[4].Int64s[i]
			if out.Cols[0].Int64s[i] != pk[p] || out.Cols[2].Int64s[i] != 1 || out.Cols[3].Int64s[i] != bk[b] {
				return fmt.Errorf("row %d: columns do not match probe row %d, build row %d", len(got), p, b)
			}
			got = append(got, [2]int64{p, b})
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("joined (probe, build) rows %v, want %v", firstRows(got), firstRows(want))
	}
	return nil
}

func firstRows(rows [][2]int64) [][2]int64 { return rows[:min(len(rows), 12)] }

// FuzzHashJoin: the join against the nested loop on arbitrary build and
// probe keys, probe selections, batch sizes and hash seeds.
func FuzzHashJoin(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3}, []byte{2, 0xff, 3, 4}, []byte{0xfd}, uint8(1), uint8(2), int64(0))
	f.Add([]byte{0xf0, 0xf1, 0xf2, 0xf0}, []byte{0xf0, 0xf1, 0xf2, 0xf3}, []byte{}, uint8(3), uint8(0), int64(-1))
	f.Add([]byte{}, []byte{1}, []byte{}, uint8(0), uint8(0), int64(7))
	f.Fuzz(func(t *testing.T, braw, praw, mask []byte, inBatch, outBatch uint8, seed int64) {
		extremes := []int64{math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64 + 1, math.MaxInt64 - 1}
		keys := func(raw []byte) []int64 {
			ks := make([]int64, len(raw))
			for i, v := range raw {
				if v >= 0xf0 {
					ks[i] = extremes[int(v-0xf0)%len(extremes)]
				} else {
					ks[i] = int64(v%32) - 16
				}
			}
			return ks
		}
		bk, pk := keys(braw), keys(praw)
		var keep []bool
		if len(mask) > 0 {
			keep = make([]bool, len(pk))
			for i := range keep {
				keep[i] = mask[i/8%len(mask)]>>(i%8)&1 == 1
			}
		}
		if err := joinDiff(bk, pk, keep, int(inBatch)%16+1, int(outBatch)+1, seed); err != nil {
			t.Fatal(err)
		}
	})
}
