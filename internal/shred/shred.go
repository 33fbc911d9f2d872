// Package shred implements the pool of column shreds: partial (or full)
// columns materialised as a side effect of earlier queries and reused by
// later ones.
//
// A shred stores the values of one table column for a sorted set of row ids
// (nil row ids meaning the full column). An incoming query is served from a
// shred for the rows the shred holds — wholly when they subsume the rows the
// query needs, the paper's reuse rule; a partial shred is completed from the
// raw file, never replanned — and the pool evicts least-recently-used shreds
// under a byte budget. This is RAW's answer to "at some moment data must adapt to
// the query engine": only data that actually flowed through a query gets
// cached, and only that cache is ever consulted.
package shred

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"rawdb/internal/vector"
)

// Key identifies a cached column.
type Key struct {
	Table string
	Col   int
}

// String returns "table.colN".
func (k Key) String() string { return fmt.Sprintf("%s.col%d", k.Table, k.Col) }

// Shred is one cached (partial) column.
type Shred struct {
	key Key
	// rowIDs are the sorted row ids present; nil means the full column
	// (rows 0..vec.Len()-1).
	rowIDs []int64
	vec    *vector.Vector
}

// Key returns the shred's column identity.
func (s *Shred) Key() Key { return s.key }

// Full reports whether the shred holds the entire column.
func (s *Shred) Full() bool { return s.rowIDs == nil }

// Len returns the number of cached rows.
func (s *Shred) Len() int { return s.vec.Len() }

// Vector returns the cached values (aligned with RowIDs; full columns are
// aligned with 0..Len()-1). Callers must not modify it.
func (s *Shred) Vector() *vector.Vector { return s.vec }

// RowIDs returns the sorted row ids, or nil for a full column.
func (s *Shred) RowIDs() []int64 { return s.rowIDs }

// SizeBytes returns the shred's accounted memory footprint.
func (s *Shred) SizeBytes() int64 { return s.bytes() }

// bytes estimates memory footprint for the pool budget.
func (s *Shred) bytes() int64 {
	var b int64
	switch s.vec.Type {
	case vector.Int64, vector.Float64:
		b = int64(s.vec.Len()) * 8
	case vector.Bool:
		b = int64(s.vec.Len())
	case vector.Bytes:
		for _, x := range s.vec.Bytess {
			b += int64(len(x)) + 24
		}
	}
	return b + int64(len(s.rowIDs))*8
}

// Subsumes reports whether every id in rids (sorted ascending) is present in
// the shred.
func (s *Shred) Subsumes(rids []int64) bool {
	if s.rowIDs == nil {
		n := int64(s.vec.Len())
		return len(rids) == 0 || (rids[0] >= 0 && rids[len(rids)-1] < n)
	}
	have := s.rowIDs
	j := 0
	for _, r := range rids {
		for j < len(have) && have[j] < r {
			j++
		}
		if j >= len(have) || have[j] != r {
			return false
		}
		j++
	}
	return true
}

// appendAt appends src's value i to dst.
func appendAt(dst, src *vector.Vector, i int) {
	switch dst.Type {
	case vector.Int64:
		dst.Int64s = append(dst.Int64s, src.Int64s[i])
	case vector.Float64:
		dst.Float64s = append(dst.Float64s, src.Float64s[i])
	case vector.Bool:
		dst.Bools = append(dst.Bools, src.Bools[i])
	case vector.Bytes:
		dst.Bytess = append(dst.Bytess, src.Bytess[i])
	}
}

// setAt overwrites dst's value i with src's value j.
func setAt(dst *vector.Vector, i int, src *vector.Vector, j int) {
	switch dst.Type {
	case vector.Int64:
		dst.Int64s[i] = src.Int64s[j]
	case vector.Float64:
		dst.Float64s[i] = src.Float64s[j]
	case vector.Bool:
		dst.Bools[i] = src.Bools[j]
	case vector.Bytes:
		dst.Bytess[i] = src.Bytess[j]
	}
}

// An Accountant tracks the pool's shreds in an external cache budget shared
// with other structure types (the engine's unified byte budget). When set,
// the pool stops enforcing its own capacity: the accountant decides evictions
// and calls back the evict closure handed to Set. vault.Budget implements it.
type Accountant interface {
	// Set records (or updates) an entry and marks it most recently used.
	Set(key string, size int64, evict func())
	// Touch marks an entry most recently used.
	Touch(key string)
	// Remove forgets an entry without invoking its eviction callback.
	Remove(key string)
}

// Pool is a concurrency-safe LRU cache of shreds with a byte budget (its
// own, or an external Accountant's).
type Pool struct {
	mu       sync.Mutex
	capacity int64
	size     int64
	lru      *list.List // *Shred, front = most recent
	els      map[*Shred]*list.Element
	byKey    map[Key][]*Shred
	keyOf    map[*Shred]string // accountant key per shred
	tver     map[string]int64  // per-table mutation version
	seq      int64

	// acct is set once before the pool is shared (SetAccountant); pool
	// methods call it only after releasing mu, so accountant callbacks may
	// re-enter the pool without deadlocking.
	acct Accountant

	// onEvict, when set, observes evictions under the pool's OWN capacity
	// (the accountant path reports through the budget's observer instead).
	// Invoked outside mu.
	onEvict func(key Key, bytes int64)

	hits, misses int64
}

// NewPool returns a pool with the given capacity in bytes (<=0 selects a
// 256 MiB default).
func NewPool(capacityBytes int64) *Pool {
	if capacityBytes <= 0 {
		capacityBytes = 256 << 20
	}
	return &Pool{
		capacity: capacityBytes,
		lru:      list.New(),
		els:      make(map[*Shred]*list.Element),
		byKey:    make(map[Key][]*Shred),
		keyOf:    make(map[*Shred]string),
		tver:     make(map[string]int64),
	}
}

// SetAccountant delegates byte budgeting to an external accountant. Must be
// called before the pool is shared across goroutines (the engine sets it at
// construction).
func (p *Pool) SetAccountant(a Accountant) { p.acct = a }

// SetEvictObserver registers an observer for evictions under the pool's own
// capacity (lifecycle events; no-op while an accountant owns budgeting).
// Must be set before the pool is shared.
func (p *Pool) SetEvictObserver(fn func(key Key, bytes int64)) { p.onEvict = fn }

// Put inserts a shred for key. rowIDs must be sorted ascending and aligned
// with vec (nil for a full column). The pool takes ownership of both slices.
func (p *Pool) Put(key Key, rowIDs []int64, vec *vector.Vector) *Shred {
	s := &Shred{key: key, rowIDs: rowIDs, vec: vec}
	p.mu.Lock()
	// Drop cached shreds this one makes redundant (it subsumes them), and
	// refuse the insert if an existing shred already subsumes it.
	for _, old := range p.byKey[key] {
		if old.subsumesShred(s) {
			p.touch(old)
			ak := p.keyOf[old]
			p.mu.Unlock()
			if p.acct != nil && ak != "" {
				p.acct.Touch(ak)
			}
			return old
		}
	}
	var removed []string
	kept := p.byKey[key][:0]
	for _, old := range p.byKey[key] {
		if s.subsumesShred(old) {
			if ak := p.keyOf[old]; ak != "" {
				removed = append(removed, ak)
			}
			p.remove(old)
		} else {
			kept = append(kept, old)
		}
	}
	p.byKey[key] = append(kept, s)
	p.els[s] = p.lru.PushFront(s)
	p.seq++
	ak := fmt.Sprintf("shred:%s#%d", key, p.seq)
	p.keyOf[s] = ak
	p.tver[key.Table]++
	bytes := s.bytes()
	p.size += bytes
	if p.acct == nil {
		victims := p.evict()
		onEvict := p.onEvict
		p.mu.Unlock()
		if onEvict != nil {
			for _, v := range victims {
				onEvict(v.key, v.bytes())
			}
		}
		return s
	}
	p.mu.Unlock()
	for _, k := range removed {
		p.acct.Remove(k)
	}
	p.acct.Set(ak, bytes, func() { p.dropEvicted(s) })
	return s
}

// dropEvicted removes a shred the accountant evicted (idempotent: the shred
// may already be gone if a subsuming Put raced the eviction).
func (p *Pool) dropEvicted(s *Shred) {
	p.mu.Lock()
	if _, ok := p.els[s]; ok {
		p.remove(s)
	}
	p.mu.Unlock()
}

// subsumesShred reports whether s covers every row of o.
func (s *Shred) subsumesShred(o *Shred) bool {
	if s.rowIDs == nil {
		n := int64(s.vec.Len())
		if o.rowIDs == nil {
			return o.vec.Len() <= s.vec.Len()
		}
		return len(o.rowIDs) == 0 || (o.rowIDs[0] >= 0 && o.rowIDs[len(o.rowIDs)-1] < n)
	}
	if o.rowIDs == nil {
		return false
	}
	return s.Subsumes(o.rowIDs)
}

// Lookup returns a shred for key subsuming rids (sorted ascending), or nil.
// Passing nil rids requests a full column.
func (p *Pool) Lookup(key Key, rids []int64) *Shred {
	p.mu.Lock()
	for _, s := range p.byKey[key] {
		if rids != nil && !s.Subsumes(rids) {
			continue
		}
		if rids == nil && s.rowIDs != nil {
			continue
		}
		p.touch(s)
		p.hits++
		ak := p.keyOf[s]
		p.mu.Unlock()
		if p.acct != nil && ak != "" {
			p.acct.Touch(ak)
		}
		return s
	}
	p.misses++
	p.mu.Unlock()
	return nil
}

// LookupFull returns the full-column shred for key, or nil.
func (p *Pool) LookupFull(key Key) *Shred { return p.Lookup(key, nil) }

// LookupAny returns the best cached shred for key without knowing the rows a
// query will need — preferring a full column, falling back to the largest
// partial shred. The planner uses it to choose access paths before
// execution; the rows a partial choice lacks are read from the raw file at
// runtime (LateFill).
func (p *Pool) LookupAny(key Key) *Shred {
	p.mu.Lock()
	var best *Shred
	for _, s := range p.byKey[key] {
		if s.rowIDs == nil {
			best = s
			break
		}
		if best == nil || s.vec.Len() > best.vec.Len() {
			best = s
		}
	}
	if best == nil {
		p.misses++
		p.mu.Unlock()
		return nil
	}
	p.touch(best)
	p.hits++
	ak := p.keyOf[best]
	p.mu.Unlock()
	if p.acct != nil && ak != "" {
		p.acct.Touch(ak)
	}
	return best
}

func (p *Pool) touch(s *Shred) {
	if el, ok := p.els[s]; ok {
		p.lru.MoveToFront(el)
	}
}

func (p *Pool) remove(s *Shred) {
	if el, ok := p.els[s]; ok {
		p.lru.Remove(el)
		delete(p.els, s)
		p.size -= s.bytes()
	}
	delete(p.keyOf, s)
	p.tver[s.key.Table]++
	kept := p.byKey[s.key][:0]
	for _, x := range p.byKey[s.key] {
		if x != s {
			kept = append(kept, x)
		}
	}
	if len(kept) == 0 {
		delete(p.byKey, s.key)
	} else {
		p.byKey[s.key] = kept
	}
}

// evict enforces the pool's own capacity, returning the evicted shreds so
// the caller can notify the observer outside mu.
func (p *Pool) evict() []*Shred {
	var victims []*Shred
	for p.size > p.capacity && p.lru.Len() > 0 {
		s := p.lru.Back().Value.(*Shred)
		p.remove(s)
		victims = append(victims, s)
	}
	return victims
}

// Stats returns cumulative lookup hits and misses.
func (p *Pool) Stats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// Len returns the number of cached shreds.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

// SizeBytes returns the current memory accounted to the pool.
func (p *Pool) SizeBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size
}

// DropTable removes every shred of one table, releasing its accountant
// entries (the owner is dropping the table, so eviction callbacks are not
// invoked). Dropping a table that has no shreds is a no-op.
func (p *Pool) DropTable(table string) {
	p.mu.Lock()
	var victims []*Shred
	for k, list := range p.byKey {
		if k.Table == table {
			victims = append(victims, list...)
		}
	}
	var removed []string
	for _, s := range victims {
		if ak := p.keyOf[s]; ak != "" {
			removed = append(removed, ak)
		}
		p.remove(s)
	}
	p.mu.Unlock()
	if p.acct != nil {
		for _, ak := range removed {
			p.acct.Remove(ak)
		}
	}
}

// Reset drops all shreds and statistics (cold-start simulation).
func (p *Pool) Reset() {
	p.mu.Lock()
	var removed []string
	if p.acct != nil {
		for _, ak := range p.keyOf {
			removed = append(removed, ak)
		}
	}
	p.lru.Init()
	p.els = make(map[*Shred]*list.Element)
	p.byKey = make(map[Key][]*Shred)
	p.keyOf = make(map[*Shred]string)
	p.tver = make(map[string]int64)
	p.size = 0
	p.hits, p.misses = 0, 0
	p.mu.Unlock()
	for _, ak := range removed {
		p.acct.Remove(ak)
	}
}

// TableVersion returns a counter that advances on every mutation (insert or
// removal) of a table's shreds. The engine's vault write-back compares it to
// the version at the last save to detect dirty tables cheaply.
func (p *Pool) TableVersion(table string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tver[table]
}

// ShredsOf returns a snapshot of the cached shreds of one table, sorted by
// column then size for deterministic serialisation. Shred contents are
// immutable once pooled, so callers may read them without further locking.
func (p *Pool) ShredsOf(table string) []*Shred {
	p.mu.Lock()
	var out []*Shred
	for k, list := range p.byKey {
		if k.Table == table {
			out = append(out, list...)
		}
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].key.Col != out[j].key.Col {
			return out[i].key.Col < out[j].key.Col
		}
		return out[i].vec.Len() < out[j].vec.Len()
	})
	return out
}

// Keys returns the distinct cached column identities, sorted for stable
// output.
func (p *Pool) Keys() []Key {
	p.mu.Lock()
	defer p.mu.Unlock()
	keys := make([]Key, 0, len(p.byKey))
	for k := range p.byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Table != keys[j].Table {
			return keys[i].Table < keys[j].Table
		}
		return keys[i].Col < keys[j].Col
	})
	return keys
}
