// Package shred implements the pool of column shreds: partial (or full)
// columns materialised as a side effect of earlier queries and reused by
// later ones.
//
// A shred stores the values of one table column for a sorted set of row ids
// (nil row ids meaning the full column), integers and row ids chunked and
// narrow. The pool keeps at most one shred per column, the one that outranks
// every other capture of it: a full column beats a partial one, then more
// rows beat fewer. An incoming query is served
// from that shred, the paper's reuse rule — the rows a partial one lacks are
// completed from the raw file, never replanned — and the pool's cache budget
// evicts least-recently-used shreds. This is RAW's answer to "at some moment
// data must adapt to the query engine": only data that actually flowed
// through a query gets cached, and only that cache is ever consulted.
package shred

import (
	"fmt"
	"sort"
	"sync"

	"rawdb/internal/budget"
	"rawdb/internal/exec"
	"rawdb/internal/offsets"
	"rawdb/internal/vector"
)

// Key identifies a cached column.
type Key struct {
	Table string
	Col   int
}

// String returns "table.colN".
func (k Key) String() string { return fmt.Sprintf("%s.col%d", k.Table, k.Col) }

// Shred is one cached (partial) column. Its Int64 values and, for a partial
// column, its row ids are chunked narrow columns (internal/offsets), as
// positional maps store their offsets; values of any other type are a flat
// vector.
type Shred struct {
	key Key
	// rows are the ascending row ids present; nil means the full column
	// (rows 0..Len()-1).
	rows *offsets.Column
	ints *offsets.Column // the values, of an Int64 column
	col  exec.Column     // the values as scans read them
	// bytes is what the shred charges the pool's budget: its chunked
	// columns' encoded bytes and its flat values.
	bytes int64
	ak    string // the budget key while pooled
}

// newShred builds the shred of rows (nil: the full column) with values ints
// (an Int64 column) or vec, both sealed by the caller.
func newShred(key Key, rows, ints *offsets.Column, vec *vector.Vector) *Shred {
	s := &Shred{key: key, rows: rows, ints: ints, bytes: rows.Bytes() + ints.Bytes()}
	if ints != nil {
		s.col = exec.NewNarrow(ints)
		return s
	}
	s.col = exec.Flat{V: vec}
	switch vec.Type {
	case vector.Float64:
		s.bytes += int64(vec.Len()) * 8
	case vector.Bool:
		s.bytes += int64(vec.Len())
	case vector.Bytes:
		for _, x := range vec.Bytess {
			s.bytes += int64(len(x)) + 24
		}
	}
	return s
}

// Key returns the shred's column identity.
func (s *Shred) Key() Key { return s.key }

// Full reports whether the shred holds the entire column.
func (s *Shred) Full() bool { return s.rows == nil }

// Len returns the number of cached rows.
func (s *Shred) Len() int { return s.col.Len() }

// Type returns the type of the cached values.
func (s *Shred) Type() vector.Type { return s.col.Type() }

// Column returns the cached values as a scan reads them, aligned with RowIDs
// (a full column's with 0..Len()-1): narrow for Int64 values, else flat.
func (s *Shred) Column() exec.Column { return s.col }

// Values returns the cached values as a flat vector: decoded for Int64
// values, else the shred's own, which callers must not modify.
func (s *Shred) Values() *vector.Vector {
	if s.ints == nil {
		return s.col.(exec.Flat).V
	}
	return &vector.Vector{Type: vector.Int64, Int64s: s.ints.Decode(nil, 0, s.ints.Len())}
}

// RowIDs returns the ascending row ids, decoded, or nil for a full column.
func (s *Shred) RowIDs() []int64 {
	if s.rows == nil {
		return nil
	}
	return s.rows.Decode(make([]int64, 0, s.rows.Len()), 0, s.rows.Len()) // never nil
}

// SizeBytes returns the bytes the shred charges the pool's budget.
func (s *Shred) SizeBytes() int64 { return s.bytes }

// encode returns vals as a chunked column, sealed.
func encode(vals []int64) *offsets.Column {
	c := offsets.New(nil)
	c.AppendAll(vals)
	c.Clip()
	return c
}

// appendAt appends src's value i to dst, of a type other than Int64.
func appendAt(dst, src *vector.Vector, i int) {
	switch dst.Type {
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

// outranks reports whether s would replace o as its column's pooled shred:
// a full column beats a partial one, then more rows beat fewer.
func (s *Shred) outranks(o *Shred) bool {
	if s.Full() != o.Full() {
		return s.Full()
	}
	return s.Len() > o.Len()
}

// Pool is a concurrency-safe cache of shreds, one per column. Every shred is
// an entry of a cache budget, which decides evictions least-recently-used and
// calls the pool back to drop the victim.
type Pool struct {
	mu     sync.Mutex
	budget *budget.Budget
	size   int64
	byKey  map[Key]*Shred
	tver   map[string]int64 // per-table mutation version
	seq    int64

	hits, misses int64
}

// NewPool returns a pool under a budget of its own, with the given capacity
// in bytes (<=0 selects the budget's 256 MiB default). An engine shares that
// budget with its other cached structures (Budget).
func NewPool(capacityBytes int64) *Pool {
	return &Pool{
		budget: budget.New(capacityBytes),
		byKey:  make(map[Key]*Shred),
		tver:   make(map[string]int64),
	}
}

// Budget returns the cache budget the pool's shreds are charged to.
func (p *Pool) Budget() *budget.Budget { return p.budget }

// Put offers a shred for key from flat row ids (nil for a full column) and
// values, which it encodes: see PutNarrow. Row ids out of order, repeated or
// misaligned are refused: Put returns nil, nil and leaves the pool as it was.
func (p *Pool) Put(key Key, rowIDs []int64, vec *vector.Vector) (installed, replaced *Shred) {
	if rowIDs != nil && !validRowIDs(rowIDs, vec.Len()) {
		return nil, nil
	}
	var rows, ints *offsets.Column
	if rowIDs != nil {
		rows = encode(rowIDs)
	}
	if vec.Type == vector.Int64 {
		ints = encode(vec.Int64s)
	}
	return p.PutNarrow(key, rows, ints, vec)
}

// validRowIDs reports whether rids are n row ids in strictly ascending order,
// the order LateFill's merge and ranking by row count rely on.
func validRowIDs(rids []int64, n int) bool {
	if len(rids) != n {
		return false
	}
	for i := 1; i < len(rids); i++ {
		if rids[i] <= rids[i-1] {
			return false
		}
	}
	return true
}

// PutNarrow offers a shred for key: rows, its row ids (nil for a full
// column), which must ascend strictly and align with the values, and its
// values, ints for an Int64 column, else vec. The columns are sealed
// (offsets.Column.Clip); the pool takes ownership of them and of vec. The
// shred is installed (and returned) if it outranks the pooled one, which it
// then replaces (and returns); otherwise the pooled one is kept, and
// touched, and PutNarrow returns nil, nil.
func (p *Pool) PutNarrow(key Key, rows, ints *offsets.Column, vec *vector.Vector) (installed, replaced *Shred) {
	s := newShred(key, rows, ints, vec)
	p.mu.Lock()
	old := p.byKey[key]
	if old != nil && !s.outranks(old) {
		p.budget.Touch(old.ak)
		p.mu.Unlock()
		return nil, nil
	}
	if old != nil {
		p.remove(old)
	}
	p.seq++
	s.ak = fmt.Sprintf("shred:%s#%d", key, p.seq)
	p.byKey[key] = s
	p.tver[key.Table]++
	bytes := s.SizeBytes()
	p.size += bytes
	p.mu.Unlock()
	// Set may evict, and an eviction callback takes mu. A Put, DropTable or
	// Reset that removed s meanwhile found no entry to remove: remove it here.
	p.budget.Set(s.ak, bytes, func() { p.drop(s) })
	p.mu.Lock()
	if p.byKey[key] != s {
		p.budget.Remove(s.ak)
	}
	p.mu.Unlock()
	return s, old
}

// drop removes a shred the budget evicted, unless it is no longer pooled.
func (p *Pool) drop(s *Shred) {
	p.mu.Lock()
	if p.byKey[s.key] == s {
		p.remove(s)
	}
	p.mu.Unlock()
}

// remove unpools s and releases its budget entry; the caller holds mu.
func (p *Pool) remove(s *Shred) {
	p.budget.Remove(s.ak)
	delete(p.byKey, s.key)
	p.size -= s.SizeBytes()
	p.tver[s.key.Table]++
}

// Lookup returns the pooled shred for key, full or partial, or nil. The
// planner uses it to choose access paths before execution; the rows a
// partial shred lacks are read from the raw file at runtime (LateFill).
func (p *Pool) Lookup(key Key) *Shred { return p.lookup(key, false) }

// LookupFull returns the pooled shred for key if it is a full column, or nil.
func (p *Pool) LookupFull(key Key) *Shred { return p.lookup(key, true) }

func (p *Pool) lookup(key Key, full bool) *Shred {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.byKey[key]
	if s == nil || full && !s.Full() {
		p.misses++
		return nil
	}
	p.budget.Touch(s.ak)
	p.hits++
	return s
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
	return len(p.byKey)
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
	for k, s := range p.byKey {
		if k.Table == table {
			p.remove(s)
		}
	}
}

// Reset drops all shreds, their budget entries and the statistics
// (cold-start simulation).
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.byKey {
		p.budget.Remove(s.ak)
	}
	p.byKey = make(map[Key]*Shred)
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
// column for deterministic serialisation. Shred contents are immutable once
// pooled, so callers may read them without further locking.
func (p *Pool) ShredsOf(table string) []*Shred {
	p.mu.Lock()
	var out []*Shred
	for k, s := range p.byKey {
		if k.Table == table {
			out = append(out, s)
		}
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key.Col < out[j].key.Col })
	return out
}
