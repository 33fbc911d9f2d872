package shred

import (
	"sort"
	"testing"
	"testing/quick"

	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/vector"
)

func intVec(vals ...int64) *vector.Vector {
	v := vector.New(vector.Int64, len(vals))
	v.Int64s = append(v.Int64s, vals...)
	return v
}

func TestShredSubsumesAndExtract(t *testing.T) {
	full := &Shred{key: Key{"t", 1}, vec: intVec(10, 20, 30, 40)}
	if !full.Full() || !full.Subsumes([]int64{0, 3}) || full.Subsumes([]int64{4}) {
		t.Fatal("full shred subsumption wrong")
	}
	out := vector.New(vector.Int64, 2)
	extract := func(s *Shred, rids ...int64) error {
		return NewLateFill([]*Shred{s}, nil).Fetch(rids, []*vector.Vector{out})
	}
	if err := extract(full, 1, 3); err != nil {
		t.Fatal(err)
	}
	if out.Int64s[0] != 20 || out.Int64s[1] != 40 {
		t.Fatalf("extract = %v", out.Int64s)
	}

	part := &Shred{key: Key{"t", 2}, rowIDs: []int64{2, 5, 9}, vec: intVec(200, 500, 900)}
	if part.Full() {
		t.Fatal("partial shred reported full")
	}
	if _, err := NewScan([]*Shred{full, part}, []string{"a", "b"}, false, 0); err == nil {
		t.Fatal("a base scan over a partial shred must be refused")
	}
	if !part.Subsumes([]int64{2, 9}) || part.Subsumes([]int64{2, 3}) {
		t.Fatal("partial subsumption wrong")
	}
	out.Reset()
	if err := extract(part, 5, 9); err != nil {
		t.Fatal(err)
	}
	if out.Int64s[0] != 500 || out.Int64s[1] != 900 {
		t.Fatalf("extract = %v", out.Int64s)
	}
	if err := extract(part, 3); err == nil {
		t.Fatal("expected missing-row error")
	}
}

func TestSubsumesProperty(t *testing.T) {
	f := func(haveRaw, wantRaw []uint8) bool {
		have := dedupSorted(haveRaw)
		want := dedupSorted(wantRaw)
		vec := vector.New(vector.Int64, len(have))
		for _, r := range have {
			vec.AppendInt64(r * 10)
		}
		s := &Shred{rowIDs: have, vec: vec}
		got := s.Subsumes(want)
		// Reference: set containment.
		set := make(map[int64]bool, len(have))
		for _, r := range have {
			set[r] = true
		}
		ref := true
		for _, r := range want {
			if !set[r] {
				ref = false
				break
			}
		}
		return got == ref
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func dedupSorted(raw []uint8) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, r := range raw {
		v := int64(r)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestPoolLookupSubsumption(t *testing.T) {
	p := NewPool(1 << 20)
	key := Key{"t", 3}
	p.Put(key, []int64{1, 4, 7}, intVec(10, 40, 70))
	if s := p.Lookup(key, []int64{1, 7}); s == nil {
		t.Fatal("expected subsuming shred")
	}
	if s := p.Lookup(key, []int64{1, 5}); s != nil {
		t.Fatal("row 5 not cached; lookup must miss")
	}
	if s := p.Lookup(key, nil); s != nil {
		t.Fatal("full lookup must miss with only a partial shred")
	}
	hits, misses := p.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
	// Full column satisfies everything.
	p.Put(key, nil, intVec(0, 10, 20, 30, 40, 50, 60, 70))
	if s := p.Lookup(key, []int64{5}); s == nil || !s.Full() {
		t.Fatal("full shred should serve any rows")
	}
	if s := p.LookupFull(key); s == nil {
		t.Fatal("LookupFull should hit")
	}
}

func TestPoolPutSubsumptionDedup(t *testing.T) {
	p := NewPool(1 << 20)
	key := Key{"t", 0}
	p.Put(key, []int64{1, 2}, intVec(1, 2))
	// A full column subsumes the partial: the partial must be dropped.
	p.Put(key, nil, intVec(0, 1, 2, 3))
	if p.Len() != 1 {
		t.Fatalf("pool kept %d shreds, want 1", p.Len())
	}
	// Inserting a shred an existing one subsumes is a no-op returning the
	// existing shred.
	s := p.Put(key, []int64{2, 3}, intVec(2, 3))
	if !s.Full() {
		t.Fatal("Put should have returned the covering full shred")
	}
	if p.Len() != 1 {
		t.Fatalf("pool size grew to %d", p.Len())
	}
	// A partial shred that subsumes the first and third of three disjoint
	// partials drops exactly those two, and the second stays reachable.
	k2 := Key{"t", 1}
	p.Put(k2, []int64{0, 1}, intVec(0, 1))
	p.Put(k2, []int64{5, 6}, intVec(5, 6))
	p.Put(k2, []int64{2, 3}, intVec(2, 3))
	p.Put(k2, []int64{0, 1, 2, 3}, intVec(0, 1, 2, 3))
	if p.Len() != 3 || p.Lookup(k2, []int64{5, 6}) == nil || p.Lookup(k2, []int64{0, 3}) == nil {
		t.Fatalf("after a two-way subsumption the pool holds %d shreds, want 3 reachable", p.Len())
	}
}

func TestPoolEviction(t *testing.T) {
	// Each 10-value int64 shred is 80 bytes; capacity fits two.
	p := NewPool(170)
	mk := func(col int) *vector.Vector {
		v := vector.New(vector.Int64, 10)
		for i := int64(0); i < 10; i++ {
			v.AppendInt64(i)
		}
		return v
	}
	p.Put(Key{"t", 0}, nil, mk(0))
	p.Put(Key{"t", 1}, nil, mk(1))
	p.Put(Key{"t", 2}, nil, mk(2)) // evicts col 0 (LRU)
	if p.Lookup(Key{"t", 0}, nil) != nil {
		t.Fatal("col 0 should have been evicted")
	}
	if p.Lookup(Key{"t", 2}, nil) == nil {
		t.Fatal("col 2 should be cached")
	}
	if p.SizeBytes() > 170 {
		t.Fatalf("size %d exceeds capacity", p.SizeBytes())
	}
}

func TestPoolResetAndKeys(t *testing.T) {
	p := NewPool(0)
	p.Put(Key{"b", 1}, nil, intVec(1))
	p.Put(Key{"a", 2}, nil, intVec(2))
	keys := p.Keys()
	if len(keys) != 2 || keys[0].Table != "a" || keys[1].Table != "b" {
		t.Fatalf("keys = %v", keys)
	}
	p.Reset()
	if p.Len() != 0 || p.SizeBytes() != 0 {
		t.Fatal("reset did not empty pool")
	}
}

func ridSchema(names ...string) vector.Schema {
	s := vector.Schema{}
	for _, n := range names {
		s = append(s, vector.Col{Name: n, Type: vector.Int64})
	}
	s = append(s, vector.Col{Name: insitu.RowIDColumn, Type: vector.Int64})
	return s
}

func TestScanOperator(t *testing.T) {
	shA := &Shred{key: Key{"t", 0}, vec: intVec(1, 2, 3, 4, 5)}
	shB := &Shred{key: Key{"t", 1}, vec: intVec(10, 20, 30, 40, 50)}
	s, err := NewScan([]*Shred{shA, shB}, []string{"a", "b"}, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sc := s.Schema(); len(sc) != 3 || sc[0].Name != "a" || sc[1].Name != "b" ||
		sc[2].Name != insitu.RowIDColumn {
		t.Fatalf("scan schema = %v", sc)
	}
	out, err := exec.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Len() != 5 || out[1].Int64s[4] != 50 || out[2].Int64s[3] != 3 {
		t.Fatalf("scan output wrong: %v %v %v", out[0].Int64s, out[1].Int64s, out[2].Int64s)
	}
	// Partial shreds are rejected.
	part := &Shred{key: Key{"t", 2}, rowIDs: []int64{0}, vec: intVec(9)}
	if _, err := NewScan([]*Shred{part}, []string{"c"}, false, 0); err == nil {
		t.Fatal("expected partial-shred rejection")
	}
	// Ragged columns are rejected.
	if _, err := NewScan([]*Shred{shA, {key: Key{"t", 3}, vec: intVec(1)}},
		[]string{"a", "c"}, false, 0); err == nil {
		t.Fatal("expected ragged error")
	}
	// Names must align with shreds.
	if _, err := NewScan([]*Shred{shA, shB}, []string{"a"}, false, 0); err == nil {
		t.Fatal("expected name-count error")
	}
}

func TestLateScanOperator(t *testing.T) {
	// Child: rows 1 and 3 survived, rid column at index 1.
	child, err := exec.NewMemScan(ridSchema("a"),
		[]*vector.Vector{intVec(100, 300), intVec(1, 3)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh := &Shred{key: Key{"t", 5}, vec: intVec(0, 11, 22, 33)}
	late, err := NewLateScan(child, 1, []*Shred{sh}, []string{"c5"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(late)
	if err != nil {
		t.Fatal(err)
	}
	if out[2].Int64s[0] != 11 || out[2].Int64s[1] != 33 {
		t.Fatalf("late scan = %v", out[2].Int64s)
	}
	// Every pass (a new Open) restarts a partial shred's merge, even one the
	// previous pass left at the shred's end.
	part := &Shred{key: Key{"t", 6}, rowIDs: []int64{1, 3}, vec: intVec(10, 30)}
	again, err := NewLateScan(child, 1, []*Shred{part}, []string{"c6"})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		out, err := exec.Collect(again)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if got := out[2].Int64s; len(got) != 2 || got[0] != 10 || got[1] != 30 {
			t.Fatalf("pass %d: late scan = %v", pass, got)
		}
	}
	// Bad rid index.
	if _, err := NewLateScan(child, 0, []*Shred{sh}, []string{"c5"}); err == nil {
		t.Fatal("expected rid validation error")
	}
}

func TestCaptureOperator(t *testing.T) {
	pool := NewPool(1 << 20)
	child, err := exec.NewMemScan(ridSchema("a"),
		[]*vector.Vector{intVec(100, 300, 500), intVec(1, 3, 5)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cap1, err := NewCapture(child, pool, []CaptureSpec{
		{Key: Key{"t", 9}, ColIdx: 0, RIDIdx: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(cap1); err != nil {
		t.Fatal(err)
	}
	s := pool.Lookup(Key{"t", 9}, []int64{1, 5})
	if s == nil {
		t.Fatal("capture did not publish shred")
	}
	out := vector.New(vector.Int64, 2)
	if err := NewLateFill([]*Shred{s}, nil).Fetch([]int64{3, 5}, []*vector.Vector{out}); err != nil {
		t.Fatal(err)
	}
	if out.Int64s[0] != 300 || out.Int64s[1] != 500 {
		t.Fatalf("extract = %v", out.Int64s)
	}
	// Full-column capture (RIDIdx -1).
	child2, _ := exec.NewMemScan(vector.Schema{{Name: "a", Type: vector.Int64}},
		[]*vector.Vector{intVec(7, 8, 9)}, 0)
	cap2, err := NewCapture(child2, pool, []CaptureSpec{{Key: Key{"t", 10}, ColIdx: 0, RIDIdx: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(cap2); err != nil {
		t.Fatal(err)
	}
	if s := pool.LookupFull(Key{"t", 10}); s == nil || s.Len() != 3 {
		t.Fatal("full capture missing")
	}
	// Validation.
	if _, err := NewCapture(child2, pool, []CaptureSpec{{ColIdx: 7}}); err == nil {
		t.Fatal("expected capture validation error")
	}
}

func TestKeyString(t *testing.T) {
	if (Key{"t", 3}).String() != "t.col3" {
		t.Fatal("Key.String wrong")
	}
}

// TestPoolDropTable: dropping a table removes exactly its shreds and
// releases every budget byte they held (the leak the cache-budget audit
// guards against).
func TestPoolDropTable(t *testing.T) {
	p := NewPool(1 << 20)
	bud := p.Budget()
	p.Put(Key{"a", 0}, nil, intVec(1, 2, 3))
	p.Put(Key{"a", 1}, []int64{0, 2}, intVec(4, 5))
	p.Put(Key{"b", 0}, nil, intVec(6))
	before := bud.SizeBytes()
	if before != p.SizeBytes() || bud.Len() != 3 {
		t.Fatalf("budget holds %d bytes in %d entries, pool %d bytes in 3 shreds",
			before, bud.Len(), p.SizeBytes())
	}

	p.DropTable("a")
	if p.Lookup(Key{"a", 0}, nil) != nil || p.LookupAny(Key{"a", 1}) != nil {
		t.Fatal("table a shreds survive DropTable")
	}
	if p.Lookup(Key{"b", 0}, nil) == nil {
		t.Fatal("table b shred lost by a's drop")
	}
	if got := bud.SizeBytes(); got >= before || got != p.SizeBytes() || bud.Len() != 1 {
		t.Fatalf("budget holds %d bytes in %d entries after drop (before %d, pool %d)",
			got, bud.Len(), before, p.SizeBytes())
	}
	p.DropTable("b")
	if got := bud.SizeBytes(); got != 0 || bud.Len() != 0 {
		t.Fatalf("budget holds %d bytes in %d entries after dropping every table", got, bud.Len())
	}
	if p.SizeBytes() != 0 || p.Len() != 0 {
		t.Fatalf("pool retains %d bytes / %d shreds", p.SizeBytes(), p.Len())
	}
	p.DropTable("a") // idempotent no-op
}
