package shred

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"rawdb/internal/offsets"
	"rawdb/internal/vector"
)

// poolModel is the pool's contract as a map: one shred per key, the one that
// outranks (full beats partial, then more rows beat fewer, a tie keeps the
// pooled one), evicted least recently used first when the bytes pass the
// capacity.
type poolModel struct {
	capacity     int64
	shreds       map[Key]modelShred
	lru          []Key // least recently used first
	hits, misses int64
}

type modelShred struct {
	full bool
	rows int
}

// bytes is what a shred of ms charges: a chunked column of its values, and
// one more of its row ids if partial. The fuzz's values and row ids are
// below 256, one byte each.
func (ms modelShred) bytes() int64 {
	if ms.full {
		return narrowBytes(ms.rows)
	}
	return 2 * narrowBytes(ms.rows)
}

// narrowBytes is what a chunked column of n one-byte rows holds: nothing for
// no rows, else its segment (56 B), a chunk header per ChunkRows rows (24 B)
// and a byte a row.
func narrowBytes(n int) int64 {
	if n == 0 {
		return 0
	}
	return 56 + 24*int64((n+offsets.ChunkRows-1)/offsets.ChunkRows) + int64(n)
}

func (m *poolModel) size() (b int64) {
	for _, ms := range m.shreds {
		b += ms.bytes()
	}
	return b
}

func (m *poolModel) touch(k Key) {
	m.lru = append(slices.DeleteFunc(m.lru, func(o Key) bool { return o == k }), k)
}

func (m *poolModel) remove(k Key) {
	delete(m.shreds, k)
	m.lru = slices.DeleteFunc(m.lru, func(o Key) bool { return o == k })
}

// evict drops least-recently-used shreds until extra more bytes fit.
func (m *poolModel) evict(extra int64) {
	for len(m.lru) > 0 && m.size()+extra > m.capacity {
		m.remove(m.lru[0])
	}
}

// put returns whether the offered shred is installed, and what it replaces.
func (m *poolModel) put(k Key, ms modelShred) (installed bool, replaced *modelShred) {
	old, ok := m.shreds[k]
	if ok && !(ms.full != old.full && ms.full || ms.full == old.full && ms.rows > old.rows) {
		m.touch(k)
		return false, nil
	}
	if ok {
		m.remove(k)
		replaced = &old
	}
	m.shreds[k] = ms
	m.touch(k)
	m.evict(0)
	return true, replaced
}

func (m *poolModel) lookup(k Key, full bool) bool {
	ms, ok := m.shreds[k]
	if !ok || full && !ms.full {
		m.misses++
		return false
	}
	m.hits++
	m.touch(k)
	return true
}

var fuzzTables = []string{"a", "b"}

// FuzzShredPool runs sequences of Put (full or partial, or with row ids out of
// order or repeated, which it refuses), Lookup, LookupFull, DropTable, Reset
// and evictions a foreign budget entry forces against
// poolModel, checking after every step the pool's size, bytes, budget,
// statistics and the shred it serves per key.
func FuzzShredPool(f *testing.F) {
	f.Add(byte(200), []byte{0, 0, 6, 1, 0, 8, 2, 0, 7, 3, 0, 0, 4, 0, 0})
	f.Add(byte(40), []byte{0, 1, 21, 0, 2, 9, 0, 3, 5, 6, 0, 90, 3, 2, 0})
	f.Add(byte(0), []byte{0, 0, 4, 0, 0, 4, 0, 0, 5, 5, 1, 0, 7, 0, 0, 0, 4, 3})
	// Three disjoint partial shreds of one key, then one covering two of
	// them: one shred per key, whatever rows it holds.
	f.Add(byte(255), []byte{0, 1, 4, 0, 1, 4, 0, 1, 4, 0, 1, 8, 3, 1, 0, 4, 1, 0})
	// A partial shred, then offers of row ids out of order and repeated for
	// its key and another: both refused.
	f.Add(byte(255), []byte{0, 1, 4, 8, 1, 5, 8, 1, 6, 8, 2, 9, 3, 1, 0, 3, 2, 0})
	f.Fuzz(func(t *testing.T, capacity byte, ops []byte) {
		m := &poolModel{capacity: 64 + 2*int64(capacity), shreds: make(map[Key]modelShred)}
		p := NewPool(m.capacity)
		for i := 0; i+2 < len(ops) && i < 3*64; i += 3 {
			op, k, arg := ops[i]%9, Key{fuzzTables[ops[i+1]%6/3], int(ops[i+1] % 3)}, ops[i+2]
			step := fmt.Sprintf("step %d (op %d on %v, arg %d)", i/3, op, k, arg)
			switch op {
			case 0, 1, 2:
				ms := modelShred{full: arg&1 == 1, rows: int(arg>>1) % 12}
				var rids []int64
				if !ms.full {
					rids = make([]int64, ms.rows)
					for r := range rids {
						rids[r] = int64(2*r + int(arg)%3)
					}
				}
				vals := vector.New(vector.Int64, ms.rows)
				for r := 0; r < ms.rows; r++ {
					vals.AppendInt64(int64(r))
				}
				s, old := p.Put(k, rids, vals)
				wantIn, wantOld := m.put(k, ms)
				if (s != nil) != wantIn || (old != nil) != (wantOld != nil) {
					t.Fatalf("%s: installed %v replaced %v, model says %v %v", step, s, old, wantIn, wantOld)
				}
				if old != nil && (old.Full() != wantOld.full || old.Len() != wantOld.rows) {
					t.Fatalf("%s: replaced %d rows (full %v), model %+v", step, old.Len(), old.Full(), *wantOld)
				}
			case 3, 4:
				full := op == 4
				var s *Shred
				if full {
					s = p.LookupFull(k)
				} else {
					s = p.Lookup(k)
				}
				if want := m.lookup(k, full); (s != nil) != want {
					t.Fatalf("%s: served %v, model hit %v", step, s, want)
				}
			case 5:
				p.DropTable(k.Table)
				for mk := range m.shreds {
					if mk.Table == k.Table {
						m.remove(mk)
					}
				}
			case 6:
				// Another structure charged to the shared budget evicts
				// shreds to fit, least recently used first, then leaves.
				bytes := int64(arg)
				p.Budget().Set("foreign", bytes, nil)
				p.Budget().Remove("foreign")
				m.evict(bytes)
			case 7:
				p.Reset()
				m = &poolModel{capacity: m.capacity, shreds: make(map[Key]modelShred)}
			case 8:
				// Row ids out of order or repeated, as a capture above a
				// join would see them: refused, and nothing is touched.
				rids := make([]int64, 2+int(arg>>1)%10)
				vals := vector.New(vector.Int64, len(rids))
				for r := range rids {
					rids[r] = int64(2 * r)
					vals.AppendInt64(int64(r))
				}
				if arg&1 == 1 {
					rids[0], rids[len(rids)-1] = rids[len(rids)-1], rids[0]
				} else {
					rids[len(rids)-1] = rids[len(rids)-2]
				}
				if s, old := p.Put(k, rids, vals); s != nil || old != nil {
					t.Fatalf("%s: row ids %v installed %v, replaced %v", step, rids, s, old)
				}
			}
			checkPool(t, step, p, m)
		}
	})
}

// checkPool compares the pool to the model without touching its statistics
// or recency.
func checkPool(t *testing.T, step string, p *Pool, m *poolModel) {
	t.Helper()
	if p.Len() != len(m.shreds) || p.Budget().Len() != len(m.shreds) {
		t.Fatalf("%s: pool holds %d shreds in %d budget entries, model %d", step, p.Len(), p.Budget().Len(), len(m.shreds))
	}
	if size := m.size(); p.SizeBytes() != size || p.Budget().SizeBytes() != size {
		t.Fatalf("%s: pool %d bytes, budget %d, model %d", step, p.SizeBytes(), p.Budget().SizeBytes(), size)
	}
	if h, mi := p.Stats(); h != m.hits || mi != m.misses {
		t.Fatalf("%s: stats %d/%d, model %d/%d", step, h, mi, m.hits, m.misses)
	}
	for _, tab := range fuzzTables {
		for _, s := range p.ShredsOf(tab) {
			ms, ok := m.shreds[s.Key()]
			if !ok || s.Full() != ms.full || s.Len() != ms.rows || s.SizeBytes() != ms.bytes() {
				t.Fatalf("%s: pool serves %v with %d rows (full %v), model %+v (held %v)",
					step, s.Key(), s.Len(), s.Full(), ms, ok)
			}
			if rids := s.RowIDs(); !slices.IsSorted(rids) || len(slices.Compact(slices.Clone(rids))) != len(rids) {
				t.Fatalf("%s: pool serves %v with row ids %v", step, s.Key(), rids)
			}
		}
	}
}

// TestPoolConcurrent races Puts, lookups, table drops and the evictions a
// small budget forces on a few keys; once they are done the pool's and the
// budget's bytes and entries agree, one shred per key.
func TestPoolConcurrent(t *testing.T) {
	p := NewPool(600)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{fuzzTables[i%2], (g + i) % 3}
				switch n := (g*7 + i) % 13; {
				case n == 0:
					p.DropTable(k.Table)
				case n < 4:
					p.Lookup(k)
				default:
					vals := vector.New(vector.Int64, n)
					for r := 0; r < n; r++ {
						vals.AppendInt64(int64(r))
					}
					var rids []int64
					if n%2 == 0 {
						rids = make([]int64, n)
						for r := range rids {
							rids[r] = int64(r)
						}
					}
					p.Put(k, rids, vals)
				}
			}
		}(g)
	}
	wg.Wait()
	if p.Len() != p.Budget().Len() || p.SizeBytes() != p.Budget().SizeBytes() {
		t.Fatalf("pool holds %d shreds in %d bytes, budget %d entries of %d bytes",
			p.Len(), p.SizeBytes(), p.Budget().Len(), p.Budget().SizeBytes())
	}
	var sum int64
	for _, tab := range fuzzTables {
		for _, s := range p.ShredsOf(tab) {
			sum += s.SizeBytes()
		}
	}
	if sum != p.SizeBytes() {
		t.Fatalf("pooled shreds hold %d bytes, the pool accounts %d", sum, p.SizeBytes())
	}
}
