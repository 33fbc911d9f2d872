// Package shred implements the pool of column shreds: partial (or full)
// columns materialised as a side effect of earlier queries and reused by
// later ones.
//
// A shred stores the values of one table column for a sorted set of row ids
// (nil row ids meaning the full column). An incoming query is served from a
// shred for the rows the shred holds — wholly when they subsume the rows the
// query needs, the paper's reuse rule; a partial shred is completed from the
// raw file, never replanned — and the pool's cache budget evicts
// least-recently-used shreds. This is RAW's answer to "at some moment data must adapt to
// the query engine": only data that actually flowed through a query gets
// cached, and only that cache is ever consulted.
package shred

import (
	"fmt"
	"sort"
	"sync"

	"rawdb/internal/budget"
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

// Pool is a concurrency-safe cache of shreds. Every shred is an entry of a
// cache budget, which decides evictions least-recently-used and calls the
// pool back to drop the victim.
type Pool struct {
	mu     sync.Mutex
	budget *budget.Budget
	size   int64
	byKey  map[Key][]*Shred
	keyOf  map[*Shred]string // budget key per pooled shred
	tver   map[string]int64  // per-table mutation version
	seq    int64

	hits, misses int64
}

// NewPool returns a pool under a budget of its own, with the given capacity
// in bytes (<=0 selects the budget's 256 MiB default). An engine shares that
// budget with its other cached structures (Budget).
func NewPool(capacityBytes int64) *Pool {
	return &Pool{
		budget: budget.New(capacityBytes),
		byKey:  make(map[Key][]*Shred),
		keyOf:  make(map[*Shred]string),
		tver:   make(map[string]int64),
	}
}

// Budget returns the cache budget the pool's shreds are charged to.
func (p *Pool) Budget() *budget.Budget { return p.budget }

// Put inserts a shred for key. rowIDs must be sorted ascending and aligned
// with vec (nil for a full column). The pool takes ownership of both slices.
func (p *Pool) Put(key Key, rowIDs []int64, vec *vector.Vector) *Shred {
	s := &Shred{key: key, rowIDs: rowIDs, vec: vec}
	p.mu.Lock()
	// Drop cached shreds this one makes redundant (it subsumes them), and
	// refuse the insert if an existing shred already subsumes it.
	for _, old := range p.byKey[key] {
		if old.subsumesShred(s) {
			p.budget.Touch(p.keyOf[old])
			p.mu.Unlock()
			return old
		}
	}
	kept := p.byKey[key][:0]
	for _, old := range p.byKey[key] {
		if s.subsumesShred(old) {
			p.forget(old)
		} else {
			kept = append(kept, old)
		}
	}
	p.byKey[key] = append(kept, s)
	p.seq++
	ak := fmt.Sprintf("shred:%s#%d", key, p.seq)
	p.keyOf[s] = ak
	p.tver[key.Table]++
	bytes := s.bytes()
	p.size += bytes
	p.mu.Unlock()
	// Set may evict, and an eviction callback takes mu. A Put or DropTable
	// that removed s meanwhile found no entry to remove: forget it here.
	p.budget.Set(ak, bytes, func() { p.dropEvicted(s) })
	p.mu.Lock()
	if _, ok := p.keyOf[s]; !ok {
		p.budget.Remove(ak)
	}
	p.mu.Unlock()
	return s
}

// dropEvicted removes a shred the budget evicted (idempotent: the shred may
// already be gone if a subsuming Put raced the eviction).
func (p *Pool) dropEvicted(s *Shred) {
	p.mu.Lock()
	if _, ok := p.keyOf[s]; ok {
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
		p.budget.Touch(p.keyOf[s])
		p.hits++
		p.mu.Unlock()
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
	p.budget.Touch(p.keyOf[best])
	p.hits++
	p.mu.Unlock()
	return best
}

// forget drops a pooled shred's bookkeeping and budget entry, leaving byKey
// to the caller; the caller holds mu.
func (p *Pool) forget(s *Shred) {
	if ak, ok := p.keyOf[s]; ok {
		p.budget.Remove(ak)
		delete(p.keyOf, s)
		p.size -= s.bytes()
	}
	p.tver[s.key.Table]++
}

// remove forgets a pooled shred and unlinks it from byKey; the caller holds
// mu.
func (p *Pool) remove(s *Shred) {
	p.forget(s)
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
	return len(p.keyOf)
}

// SizeBytes returns the current memory accounted to the pool.
func (p *Pool) SizeBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.size
}

// DropTable removes every shred of one table and its budget entries (the
// owner is dropping the table, so eviction callbacks are not invoked).
// Dropping a table that has no shreds is a no-op.
func (p *Pool) DropTable(table string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, list := range p.byKey {
		if k.Table == table {
			for _, s := range list {
				p.forget(s)
			}
			delete(p.byKey, k)
		}
	}
}

// Reset drops all shreds, their budget entries and the statistics
// (cold-start simulation).
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ak := range p.keyOf {
		p.budget.Remove(ak)
	}
	p.byKey = make(map[Key][]*Shred)
	p.keyOf = make(map[*Shred]string)
	p.tver = make(map[string]int64)
	p.size = 0
	p.hits, p.misses = 0, 0
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
