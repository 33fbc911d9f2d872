package shred

import (
	"slices"
	"testing"

	"rawdb/internal/exec"
	"rawdb/internal/insitu"
	"rawdb/internal/offsets"
	"rawdb/internal/vector"
)

func intVec(vals ...int64) *vector.Vector {
	v := vector.New(vector.Int64, len(vals))
	v.Int64s = append(v.Int64s, vals...)
	return v
}

// flatShred builds the shred of flat row ids (nil: the full column) and
// values, encoded as Pool.Put encodes them, outside any pool.
func flatShred(key Key, rowIDs []int64, vec *vector.Vector) *Shred {
	var rows, ints *offsets.Column
	if rowIDs != nil {
		rows = encode(rowIDs)
	}
	if vec.Type == vector.Int64 {
		ints = encode(vec.Int64s)
	}
	return newShred(key, rows, ints, vec)
}

func TestShredExtract(t *testing.T) {
	full := flatShred(Key{"t", 1}, nil, intVec(10, 20, 30, 40))
	if !full.Full() {
		t.Fatal("full shred reported partial")
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
	out.Reset()
	if err := extract(full, 4); err == nil {
		t.Fatal("expected a row past the full column to be missing")
	}

	part := flatShred(Key{"t", 2}, []int64{2, 5, 9}, intVec(200, 500, 900))
	if part.Full() {
		t.Fatal("partial shred reported full")
	}
	if _, err := NewScan([]*Shred{full, part}, []string{"a", "b"}, false, 0); err == nil {
		t.Fatal("a base scan over a partial shred must be refused")
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

// TestPoolOutranks walks one column through the pool's rule: a full shred
// beats a partial one, then more rows beat fewer, and a tie keeps the pooled
// shred. Lookup serves whatever is pooled, LookupFull only a full column.
func TestPoolOutranks(t *testing.T) {
	p := NewPool(1 << 20)
	key := Key{"t", 3}
	stats := func(what string, hits, misses int64) {
		t.Helper()
		if h, m := p.Stats(); h != hits || m != misses {
			t.Fatalf("%s: stats = %d/%d, want %d/%d", what, h, m, hits, misses)
		}
	}
	if s, old := p.Put(key, []int64{1, 4, 7}, intVec(10, 40, 70)); s == nil || old != nil {
		t.Fatalf("first Put: installed %v, replaced %v", s, old)
	}
	if s := p.Lookup(key); s == nil || s.Len() != 3 {
		t.Fatalf("Lookup = %v, want the 3-row partial shred", s)
	}
	if s := p.LookupFull(key); s != nil {
		t.Fatal("LookupFull must miss with only a partial shred")
	}
	stats("partial", 1, 1)

	// Fewer rows, or as many, lose to the pooled shred.
	for _, rids := range [][]int64{{2, 3}, {2, 3, 5}} {
		vals := make([]int64, len(rids))
		if s, old := p.Put(key, rids, intVec(vals...)); s != nil || old != nil {
			t.Fatalf("Put of %d rows over 3: installed %v, replaced %v", len(rids), s, old)
		}
	}
	if s := p.Lookup(key); s.RowIDs()[0] != 1 {
		t.Fatalf("a refused Put changed the pooled shred to %v", s.RowIDs())
	}
	// More rows win, whichever rows they are.
	s, old := p.Put(key, []int64{0, 2, 5, 8}, intVec(0, 20, 50, 80))
	if s == nil || old == nil || old.Len() != 3 || p.Len() != 1 {
		t.Fatalf("Put of 4 rows over 3: installed %v, replaced %v, pool holds %d", s, old, p.Len())
	}
	// A full column beats any partial one, and nothing partial beats it.
	if s, old := p.Put(key, nil, intVec(0, 10)); s == nil || !s.Full() || old == nil || old.Len() != 4 {
		t.Fatalf("full Put over a partial: installed %v, replaced %v", s, old)
	}
	if s, _ := p.Put(key, []int64{0, 1, 2, 3, 4, 5}, intVec(0, 1, 2, 3, 4, 5)); s != nil {
		t.Fatal("a partial shred displaced a full one")
	}
	if s := p.LookupFull(key); s == nil || s.Len() != 2 {
		t.Fatalf("LookupFull = %v, want the 2-row full column", s)
	}
	stats("full", 3, 1)
	if b := narrowBytes(2); p.Len() != 1 || p.SizeBytes() != b || p.Budget().SizeBytes() != b || p.Budget().Len() != 1 {
		t.Fatalf("pool holds %d shreds in %d bytes, budget %d bytes in %d entries, want one of %d",
			p.Len(), p.SizeBytes(), p.Budget().SizeBytes(), p.Budget().Len(), b)
	}
}

func TestPoolEviction(t *testing.T) {
	// Each 10-value int64 shred is 90 bytes; capacity fits two.
	p := NewPool(190)
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
	if p.LookupFull(Key{"t", 0}) != nil {
		t.Fatal("col 0 should have been evicted")
	}
	if p.LookupFull(Key{"t", 2}) == nil {
		t.Fatal("col 2 should be cached")
	}
	if p.SizeBytes() > 190 {
		t.Fatalf("size %d exceeds capacity", p.SizeBytes())
	}
}

func TestPoolReset(t *testing.T) {
	p := NewPool(0)
	p.Put(Key{"b", 1}, nil, intVec(1))
	p.Put(Key{"a", 2}, nil, intVec(2))
	p.LookupFull(Key{"a", 2})
	p.Reset()
	if h, m := p.Stats(); p.Len() != 0 || p.SizeBytes() != 0 || p.Budget().Len() != 0 || h+m != 0 {
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
	shA := flatShred(Key{"t", 0}, nil, intVec(1, 2, 3, 4, 5))
	shB := flatShred(Key{"t", 1}, nil, intVec(10, 20, 30, 40, 50))
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
	part := flatShred(Key{"t", 2}, []int64{0}, intVec(9))
	if _, err := NewScan([]*Shred{part}, []string{"c"}, false, 0); err == nil {
		t.Fatal("expected partial-shred rejection")
	}
	// Ragged columns are rejected.
	if _, err := NewScan([]*Shred{shA, flatShred(Key{"t", 3}, nil, intVec(1))},
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
	sh := flatShred(Key{"t", 5}, nil, intVec(0, 11, 22, 33))
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
	part := flatShred(Key{"t", 6}, []int64{1, 3}, intVec(10, 30))
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
	s := pool.Lookup(Key{"t", 9})
	if s == nil || !slices.Equal(s.RowIDs(), []int64{1, 3, 5}) {
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
	if p.LookupFull(Key{"a", 0}) != nil || p.Lookup(Key{"a", 1}) != nil {
		t.Fatal("table a shreds survive DropTable")
	}
	if p.LookupFull(Key{"b", 0}) == nil {
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
