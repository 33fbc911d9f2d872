package rootfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rawdb/internal/vector"
)

func buildFile(t *testing.T, opts Options, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, opts)
	tw := w.Tree("events")
	id := tw.Branch("eventID", vector.Int64)
	eta := tw.Branch("eta", vector.Float64)
	for i := 0; i < n; i++ {
		id.AppendInt64(int64(i))
		eta.AppendFloat64(float64(i) * 0.5)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		data := buildFile(t, Options{BasketEntries: 16, Compress: compress}, 100)
		f, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := f.Tree("events")
		if err != nil {
			t.Fatal(err)
		}
		if tr.NEntries() != 100 {
			t.Fatalf("NEntries = %d", tr.NEntries())
		}
		id, err := tr.Branch("eventID")
		if err != nil {
			t.Fatal(err)
		}
		eta, err := tr.Branch("eta")
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 100; i++ {
			v, err := id.Int64At(i)
			if err != nil {
				t.Fatal(err)
			}
			if v != i {
				t.Fatalf("compress=%v id[%d] = %d", compress, i, v)
			}
			fv, err := eta.Float64At(i)
			if err != nil {
				t.Fatal(err)
			}
			if fv != float64(i)*0.5 {
				t.Fatalf("compress=%v eta[%d] = %v", compress, i, fv)
			}
		}
	}
}

func TestRandomAccessAcrossBaskets(t *testing.T) {
	data := buildFile(t, Options{BasketEntries: 7}, 50) // uneven basket boundary
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := f.Tree("events")
	id, _ := tr.Branch("eventID")
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 500; k++ {
		i := rng.Int63n(50)
		v, err := id.Int64At(i)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("id[%d] = %d", i, v)
		}
	}
}

func TestVectorReads(t *testing.T) {
	data := buildFile(t, Options{BasketEntries: 8}, 60)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := f.Tree("events")
	id, _ := tr.Branch("eventID")
	eta, _ := tr.Branch("eta")

	ids := []int64{5, 6, 7, 8, 9, 30, 2, 2, 59, 0}
	got, err := id.Int64sAt([]int64{-1}, ids, new(Inflated))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids)+1 || got[0] != -1 {
		t.Fatalf("read %v", got)
	}
	for i, v := range got[1:] {
		if v != ids[i] {
			t.Fatalf("got[%d] = %d, want %d", i, v, ids[i])
		}
	}
	fg, err := eta.Float64sAt(nil, []int64{58, 59}, new(Inflated))
	if err != nil {
		t.Fatal(err)
	}
	if len(fg) != 2 || fg[1] != 59*0.5 {
		t.Fatalf("float read = %v", fg)
	}
	// Out-of-range ids and the wrong type are errors.
	for _, bad := range [][]int64{{60}, {3, -1}, {59, 60}} {
		if _, err := id.Int64sAt(nil, bad, new(Inflated)); err == nil {
			t.Fatalf("ids %v: expected an error", bad)
		}
	}
	if _, err := eta.Int64sAt(nil, []int64{0}, new(Inflated)); err == nil {
		t.Fatal("expected an error reading a float branch as int64")
	}
	if _, err := id.Float64sAt(nil, []int64{0}, new(Inflated)); err == nil {
		t.Fatal("expected an error reading an int branch as float64")
	}
	if _, err := eta.Int64At(0); err == nil {
		t.Fatal("expected an error reading a float entry as int64")
	}
	if _, err := id.Float64At(0); err == nil {
		t.Fatal("expected an error reading an int entry as float64")
	}
}

// poison overwrites the bytes of every basket in holds with ones, so that a
// value read back as all ones comes from a held basket, not a new inflation.
func poison(in *Inflated) {
	for _, h := range in.held {
		for i := range h.buf {
			h.buf[i] = 0xff
		}
	}
}

// TestGatherInflatesEachBasketOnce: over a compressed tree, a reader's gathers
// in ascending batches hold one basket; its gathers of shuffled and repeated
// ids after that equal Int64At/Float64At pointwise without touching the
// buffer pool, and keep every basket they reach from gather to gather: with
// the held bytes poisoned, a further gather reads only the poison. Past
// maxInflated baskets a reader drops some and still reads right.
func TestGatherInflatesEachBasketOnce(t *testing.T) {
	const n, basket = 1000, 64
	f, err := Parse(buildFile(t, Options{BasketEntries: basket, Compress: true}, n))
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := f.Tree("events")
	id, _ := tr.Branch("eventID")
	eta, _ := tr.Branch("eta")
	var in, fin Inflated
	for lo := int64(0); lo < n; lo += 100 {
		ids := make([]int64, min(100, n-lo))
		for i := range ids {
			ids[i] = lo + int64(i)
		}
		if _, err := id.Int64sAt(nil, ids, &in); err != nil {
			t.Fatal(err)
		}
	}
	if len(in.held) != 1 {
		t.Fatalf("ascending batches hold %d baskets, want 1", len(in.held))
	}
	rng := rand.New(rand.NewSource(5))
	shuffled := func(size int) []int64 {
		ids := make([]int64, size)
		for i := range ids {
			ids[i] = rng.Int63n(n)
			if i%3 == 2 {
				ids[i] = ids[rng.Intn(i)] // a repeat
			}
		}
		return ids
	}
	for round := range 20 {
		ids := shuffled(300)
		iv, err := id.Int64sAt(nil, ids, &in)
		if err != nil {
			t.Fatal(err)
		}
		fv, err := eta.Float64sAt(nil, ids, &fin)
		if err != nil {
			t.Fatal(err)
		}
		if f.Pool().Len() != 0 {
			t.Fatalf("round %d: a gather filled the buffer pool", round)
		}
		for i, x := range ids {
			pi, err := id.Int64At(x)
			if err != nil || pi != iv[i] {
				t.Fatalf("round %d: id[%d] gathered %d, Int64At %d (%v)", round, x, iv[i], pi, err)
			}
			pf, err := eta.Float64At(x)
			if err != nil || math.Float64bits(pf) != math.Float64bits(fv[i]) {
				t.Fatalf("round %d: eta[%d] gathered %v, Float64At %v (%v)", round, x, fv[i], pf, err)
			}
		}
		f.Pool().Reset()
	}
	if want := (n + basket - 1) / basket; len(in.held) != want || len(fin.held) != want {
		t.Fatalf("readers hold %d and %d baskets, want %d", len(in.held), len(fin.held), want)
	}
	poison(&in)
	poison(&fin)
	ids := shuffled(n)
	iv, err := id.Int64sAt(nil, ids, &in)
	if err != nil {
		t.Fatal(err)
	}
	fv, err := eta.Float64sAt(nil, ids, &fin)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range ids {
		if iv[i] != -1 || math.Float64bits(fv[i]) != math.MaxUint64 {
			t.Fatalf("entry %d read %d and %v: its basket was inflated again", x, iv[i], fv[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := id.Int64sAt(make([]int64, 0, 8), []int64{7, 8, 9, 900}, &in); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 { // the one is dst
		t.Fatalf("a gather from held baskets allocates %v times", allocs)
	}

	// Two entries a basket: a reader reaching every basket holds maxInflated.
	const many = 2 * (maxInflated + 40)
	f, err = Parse(buildFile(t, Options{BasketEntries: 2, Compress: true}, many))
	if err != nil {
		t.Fatal(err)
	}
	tr, _ = f.Tree("events")
	id, _ = tr.Branch("eventID")
	var lru Inflated
	for range 3 {
		ids := make([]int64, many)
		for i, x := range rng.Perm(many) {
			ids[i] = int64(x)
		}
		got, err := id.Int64sAt(nil, ids, &lru)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range ids {
			if got[i] != x {
				t.Fatalf("entry %d read %d past the held bound", x, got[i])
			}
		}
	}
	if len(lru.held) != maxInflated {
		t.Fatalf("a reader of %d baskets holds %d, want %d", many/2, len(lru.held), maxInflated)
	}
}

func TestReadPropertyMatchesPointwise(t *testing.T) {
	data := buildFile(t, Options{BasketEntries: 5}, 37)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := f.Tree("events")
	id, _ := tr.Branch("eventID")
	// ids: runs of consecutive entries from a, b long, then a jump back.
	prop := func(a, b, c uint8) bool {
		var ids []int64
		for start := int64(a) % 37; start < 37 && len(ids) < 60; start += int64(c)%9 + 1 {
			for i := start; i < min(start+int64(b)%12, 37); i++ {
				ids = append(ids, i)
			}
			ids = append(ids, int64(c)%37)
		}
		vec, err := id.Int64sAt(nil, ids, new(Inflated))
		if err != nil || len(vec) != len(ids) {
			return false
		}
		for i, v := range vec {
			pv, err := id.Int64At(ids[i])
			if err != nil || pv != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBufferPoolBehaviour(t *testing.T) {
	data := buildFile(t, Options{BasketEntries: 10, Compress: true}, 100)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := f.Tree("events")
	id, _ := tr.Branch("eventID")

	// Cold scan: every basket is a miss.
	for i := int64(0); i < 100; i++ {
		if _, err := id.Int64At(i); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := f.Pool().Stats()
	if misses != 10 {
		t.Fatalf("cold misses = %d, want 10", misses)
	}
	if hits != 90 {
		t.Fatalf("cold hits = %d, want 90", hits)
	}

	// Warm scan: all hits.
	f.Pool().Reset()
	for i := int64(0); i < 100; i++ {
		_, _ = id.Int64At(i)
	}
	h0, _ := f.Pool().Stats()
	for i := int64(0); i < 100; i++ {
		_, _ = id.Int64At(i)
	}
	h1, m1 := f.Pool().Stats()
	if h1-h0 != 100 {
		t.Fatalf("warm hits = %d, want 100", h1-h0)
	}
	if m1 != 10 {
		t.Fatalf("warm misses = %d, want 10", m1)
	}
}

func TestBufferPoolEviction(t *testing.T) {
	p := NewBufferPool(2)
	b := &Branch{}
	p.Put(b, 0, []byte{0})
	p.Put(b, 1, []byte{0})
	p.Put(b, 2, []byte{0}) // evicts basket 0
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.Get(b, 0) != nil {
		t.Fatal("basket 0 should have been evicted")
	}
	if p.Get(b, 2) == nil || p.Get(b, 1) == nil {
		t.Fatal("baskets 1 and 2 should be cached")
	}
	p.Put(b, 3, []byte{0}) // evicts basket 2, reached before 1
	if p.Get(b, 2) != nil || p.Get(b, 1) == nil || p.Len() != 2 {
		t.Fatal("basket 2 should have been evicted, basket 1 kept")
	}
}

func TestMultipleTrees(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{BasketEntries: 4})
	t1 := w.Tree("events")
	t1.Branch("id", vector.Int64).AppendInt64(1)
	t2 := w.Tree("muons")
	mb := t2.Branch("pt", vector.Float64)
	mb.AppendFloat64(10)
	mb.AppendFloat64(20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Trees(); len(got) != 2 || got[0] != "events" || got[1] != "muons" {
		t.Fatalf("Trees = %v", got)
	}
	mt, err := f.Tree("muons")
	if err != nil {
		t.Fatal(err)
	}
	if mt.NEntries() != 2 {
		t.Fatalf("muons entries = %d", mt.NEntries())
	}
	if _, err := f.Tree("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing tree err = %v", err)
	}
	if _, err := mt.Branch("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing branch err = %v", err)
	}
	if br := mt.Branches(); len(br) != 1 || br[0] != "pt" {
		t.Fatalf("Branches = %v", br)
	}
}

func TestWriterValidatesBranchLengths(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	tw := w.Tree("t")
	tw.Branch("a", vector.Int64).AppendInt64(1)
	b := tw.Branch("b", vector.Int64)
	b.AppendInt64(1)
	b.AppendInt64(2)
	if err := w.Close(); err == nil {
		t.Fatal("expected ragged-branch error")
	}
}

func TestWriterRejectsEmptyTree(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	w.Tree("empty")
	if err := w.Close(); err == nil {
		t.Fatal("expected error for tree with no branches")
	}
}

func TestCorruptFiles(t *testing.T) {
	good := buildFile(t, Options{BasketEntries: 8}, 20)
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXXXXXX"), good[8:]...),
		"truncated": good[:len(good)-6],
	}
	// The first basket's meta follows the directory's header, the tree
	// ("events", 20 entries, 2 branches) and the first branch's name, type
	// and basket count.
	meta := int(binary.LittleEndian.Uint64(good[len(good)-8:])) + 12 + 4 + len("events") + 8 + 4 +
		4 + len("eventID") + 1 + 4
	patch := func(name string, at int, v uint64, width int) {
		bad := bytes.Clone(good)
		if width == 8 {
			binary.LittleEndian.PutUint64(bad[at:], v)
		} else {
			binary.LittleEndian.PutUint32(bad[at:], uint32(v))
		}
		cases[name] = bad
	}
	// An offset near MaxInt64 once wrapped the bounds check's sum.
	patch("offset near MaxInt64", meta, math.MaxInt64-4, 8)
	patch("negative entries", meta+12, uint64(math.MaxUint32), 4)
	patch("short inner basket", meta+12, 7, 4)
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: expected parse error", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzRootParse: on any bytes Parse either fails, or every entry of every
// branch reads through the gather without a panic, in one call and entry by
// entry, and equals Int64At/Float64At.
func FuzzRootParse(f *testing.F) {
	for _, compress := range []bool{false, true} {
		for _, n := range []int{0, 1, 20} {
			var buf bytes.Buffer
			w := NewWriter(&buf, Options{BasketEntries: 8, Compress: compress})
			tw := w.Tree("t")
			a, b := tw.Branch("a", vector.Int64), tw.Branch("b", vector.Float64)
			for i := 0; i < n; i++ {
				a.AppendInt64(int64(i) * 3)
				b.AppendFloat64(float64(i) / 4)
			}
			if err := w.Close(); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		for _, name := range file.Trees() {
			tr, err := file.Tree(name)
			if err != nil {
				t.Fatal(err)
			}
			if tr.NEntries() > 1<<16 {
				continue // a directory may declare more entries than a test can read
			}
			ids := make([]int64, tr.NEntries())
			for i := range ids {
				ids[i] = int64(i)
			}
			for _, bname := range tr.Branches() {
				br, err := tr.Branch(bname)
				if err != nil {
					t.Fatal(err)
				}
				checkGather(t, br, ids)
			}
		}
	})
}

// gatherBits reads ids of br in one gather, as the values' bits.
func gatherBits(br *Branch, ids []int64, in *Inflated) ([]uint64, error) {
	var bits []uint64
	if br.Type == vector.Int64 {
		v, err := br.Int64sAt(nil, ids, in)
		for _, x := range v {
			bits = append(bits, uint64(x))
		}
		return bits, err
	}
	v, err := br.Float64sAt(nil, ids, in)
	for _, x := range v {
		bits = append(bits, math.Float64bits(x))
	}
	return bits, err
}

// checkGather reads ids (0, 1, ...) of br in one gather and entry by entry;
// where the gather succeeds every value must equal the point read, and a point
// read may fail only where the gather did. The ids shuffled, each followed by
// a random one of them, read the same values through one Inflated in two
// gathers, and a third gather of them inflates no basket the Inflated holds.
func checkGather(t *testing.T, br *Branch, ids []int64) {
	t.Helper()
	var all []float64
	var err error
	if br.Type == vector.Int64 {
		var v []int64
		v, err = br.Int64sAt(nil, ids, new(Inflated))
		for _, x := range v {
			all = append(all, float64(x))
		}
	} else {
		all, err = br.Float64sAt(nil, ids, new(Inflated))
	}
	if err == nil && len(ids) > 0 {
		want, _ := gatherBits(br, ids, new(Inflated))
		rng := rand.New(rand.NewSource(int64(len(ids))))
		var mixed []int64
		for _, i := range rng.Perm(len(ids)) {
			mixed = append(mixed, ids[i], ids[rng.Intn(len(ids))])
		}
		var in Inflated
		for _, part := range [][]int64{mixed[:len(mixed)/2], mixed[len(mixed)/2:]} {
			got, gerr := gatherBits(br, part, &in)
			if gerr != nil {
				t.Fatalf("branch %q: unordered gather failed where the ordered one did not: %v", br.Name, gerr)
			}
			for k, id := range part {
				if got[k] != want[id] {
					t.Fatalf("branch %q entry %d: unordered gather %x, ordered %x", br.Name, id, got[k], want[id])
				}
			}
		}
		// Below the bound nothing is dropped, so what is held is read as held.
		if br.file.compressed && len(br.baskets) <= maxInflated {
			held := maps.Clone(in.at)
			poison(&in)
			got, _ := gatherBits(br, mixed, &in)
			for k, id := range mixed {
				if _, ok := held[br.basketFor(id)]; ok && got[k] != math.MaxUint64 {
					t.Fatalf("branch %q entry %d: its held basket was inflated again", br.Name, id)
				}
			}
		}
	}
	for _, id := range ids {
		var x float64
		var perr error
		if br.Type == vector.Int64 {
			var v []int64
			if v, perr = br.Int64sAt(nil, []int64{id}, new(Inflated)); perr == nil {
				var pv int64
				if pv, perr = br.Int64At(id); perr == nil && pv != v[0] {
					t.Fatalf("branch %q entry %d: gather %d, Int64At %d", br.Name, id, v[0], pv)
				}
				x = float64(v[0])
			}
		} else {
			var v []float64
			if v, perr = br.Float64sAt(nil, []int64{id}, new(Inflated)); perr == nil {
				var pv float64
				if pv, perr = br.Float64At(id); perr == nil && math.Float64bits(pv) != math.Float64bits(v[0]) {
					t.Fatalf("branch %q entry %d: gather %v, Float64At %v", br.Name, id, v[0], pv)
				}
				x = v[0]
			}
		}
		if err == nil && (perr != nil || math.Float64bits(x) != math.Float64bits(all[id])) {
			t.Fatalf("branch %q entry %d: whole gather %v, point read %v (%v)", br.Name, id, all[id], x, perr)
		}
	}
}

func TestDropCaches(t *testing.T) {
	data := buildFile(t, Options{BasketEntries: 8}, 20)
	f, _ := Parse(data)
	tr, _ := f.Tree("events")
	id, _ := tr.Branch("eventID")
	_, _ = id.Int64At(0)
	if f.Pool().Len() == 0 {
		t.Fatal("pool should be warm")
	}
	f.Pool().Reset()
	if f.Pool().Len() != 0 {
		t.Fatal("pool should be empty after Reset")
	}
}
