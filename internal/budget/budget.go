// Package budget is the engine's one cache budget: a byte bound shared by
// every adaptive structure kept in memory — positional maps, structural
// indexes, synopses and column shreds — with least-recently-used eviction
// across all of them. It is a leaf package: the shred pool builds one, and
// the engine shares the pool's with its table slots.
package budget

import (
	"container/list"
	"sync"
)

// Budget tracks (key, size, evict callback) entries. Owners call Set after
// growing or replacing a structure, Touch on use, and Remove when the
// structure goes away for another reason. When the total exceeds the budget,
// the least recently used entries are dropped and their eviction callbacks
// invoked — after the manager's lock is released, so callbacks may freely
// take their owners' locks without ordering constraints.
//
// The structural index keeps a per-index path budget beside this one:
// jsonidx.New and Merge take a byte cap, which the benchmark's per-layer
// measurements (bench/layers.go) set; the engine passes 0, which selects
// jsonidx.DefaultMaxBytes.
type Budget struct {
	mu       sync.Mutex
	capacity int64
	size     int64
	lru      *list.List // of *budgetEntry, front = most recent
	entries  map[string]*list.Element

	// observer, when set, is invoked once per evicted entry (outside the
	// lock, before the entry's evict callback) — the engine's observability
	// layer turns these into lifecycle events and eviction counters.
	observer func(key string, size int64)
}

type budgetEntry struct {
	key   string
	size  int64
	evict func()
}

// New returns a budget with the given capacity in bytes (values <= 0 select
// 256 MiB).
func New(capacityBytes int64) *Budget {
	if capacityBytes <= 0 {
		capacityBytes = 256 << 20
	}
	return &Budget{
		capacity: capacityBytes,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Set records (or updates) an entry's size and eviction callback and marks it
// most recently used, then enforces the budget. The callback runs at most
// once, outside the manager's lock.
func (b *Budget) Set(key string, size int64, evict func()) {
	b.mu.Lock()
	if el, ok := b.entries[key]; ok {
		e := el.Value.(*budgetEntry)
		b.size += size - e.size
		e.size = size
		e.evict = evict
		b.lru.MoveToFront(el)
	} else {
		el := b.lru.PushFront(&budgetEntry{key: key, size: size, evict: evict})
		b.entries[key] = el
		b.size += size
	}
	victims := b.evictLocked()
	obs := b.observer
	b.mu.Unlock()
	for _, v := range victims {
		if obs != nil {
			obs(v.key, v.size)
		}
		if v.evict != nil {
			v.evict()
		}
	}
}

// SetObserver registers an eviction observer, called once per evicted entry
// with its key and byte size. Must be set before the budget is shared (the
// engine sets it at construction).
func (b *Budget) SetObserver(fn func(key string, size int64)) {
	b.mu.Lock()
	b.observer = fn
	b.mu.Unlock()
}

// Touch marks an entry most recently used (no-op for unknown keys).
func (b *Budget) Touch(key string) {
	b.mu.Lock()
	if el, ok := b.entries[key]; ok {
		b.lru.MoveToFront(el)
	}
	b.mu.Unlock()
}

// Remove forgets an entry without invoking its eviction callback (the owner
// is dropping the structure itself).
func (b *Budget) Remove(key string) {
	b.mu.Lock()
	if el, ok := b.entries[key]; ok {
		e := el.Value.(*budgetEntry)
		b.lru.Remove(el)
		delete(b.entries, key)
		b.size -= e.size
	}
	b.mu.Unlock()
}

// evictLocked pops LRU entries until the budget is met, returning them for
// callback invocation outside the lock.
//
// Unlike the small per-structure caches (jit template cache, jsonidx path
// budget), there is deliberately no retain-newest floor: the unified budget
// is the user's explicit memory bound, and a single structure larger than
// the whole budget (a full-column shred, a big table's positional map) must
// not pin arbitrary memory past it. Such a structure is evicted right after
// insertion and the affected table degrades to cold queries — the
// predictable reading of "budget smaller than the working set" — while
// results stay correct (the differential harness covers exactly this) and
// disk persistence is unaffected (write-back runs before accounting).
func (b *Budget) evictLocked() []*budgetEntry {
	var victims []*budgetEntry
	for b.size > b.capacity && b.lru.Len() > 0 {
		el := b.lru.Back()
		e := el.Value.(*budgetEntry)
		b.lru.Remove(el)
		delete(b.entries, e.key)
		b.size -= e.size
		victims = append(victims, e)
	}
	return victims
}

// SizeBytes returns the bytes currently accounted.
func (b *Budget) SizeBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.size
}

// CapacityBytes returns the configured budget.
func (b *Budget) CapacityBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.capacity
}

// Len returns the number of accounted entries.
func (b *Budget) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lru.Len()
}

// Keys returns the accounted keys, most recently used first.
func (b *Budget) Keys() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, b.lru.Len())
	for el := b.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*budgetEntry).key)
	}
	return out
}

// Reset forgets every entry without invoking callbacks (cold-start
// simulation, where the owners drop their structures wholesale anyway).
func (b *Budget) Reset() {
	b.mu.Lock()
	b.lru.Init()
	b.entries = make(map[string]*list.Element)
	b.size = 0
	b.mu.Unlock()
}
