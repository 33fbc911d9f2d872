package rootfile

import (
	"container/list"
	"sync"
)

// BufferPool is an LRU cache of baskets' bytes, inflated where the file is
// compressed. It models ROOT's in-memory buffer pool of commonly-accessed
// objects: entry-by-entry reads (Int64At, Float64At, the hand-written
// analysis's) go through it, so the second (warm) run of a program skips
// decompression for hot baskets. Every tree of a file reads through the
// file's one pool, so it is safe for concurrent use.
type BufferPool struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // of *poolEntry, front = most recent
	index    map[poolKey]*list.Element

	hits   int64
	misses int64
}

type poolKey struct {
	branch *Branch
	basket int
}

type poolEntry struct {
	key poolKey
	raw []byte
}

// NewBufferPool returns a pool holding at most capacity baskets.
func NewBufferPool(capacity int) *BufferPool {
	return &BufferPool{
		capacity: capacity,
		lru:      list.New(),
		index:    make(map[poolKey]*list.Element),
	}
}

// Get returns the bytes of (branch, basket) or nil on a miss.
func (p *BufferPool) Get(b *Branch, basket int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.index[poolKey{b, basket}]; ok {
		p.hits++
		p.lru.MoveToFront(el)
		return el.Value.(*poolEntry).raw
	}
	p.misses++
	return nil
}

// Put inserts a basket's bytes, evicting the least recently used entry if the
// pool is full.
func (p *BufferPool) Put(b *Branch, basket int, raw []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := poolKey{b, basket}
	if el, ok := p.index[key]; ok {
		p.lru.MoveToFront(el)
		el.Value.(*poolEntry).raw = raw
		return
	}
	p.index[key] = p.lru.PushFront(&poolEntry{key: key, raw: raw})
	p.evictLocked()
}

// evictLocked drops least recently used entries down to the capacity.
func (p *BufferPool) evictLocked() {
	for p.lru.Len() > p.capacity {
		back := p.lru.Back()
		p.lru.Remove(back)
		delete(p.index, back.Value.(*poolEntry).key)
	}
}

// Len returns the number of cached baskets.
func (p *BufferPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}

// Stats returns cumulative hit/miss counts.
func (p *BufferPool) Stats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

// Reset empties the pool and clears statistics (cold-start simulation).
func (p *BufferPool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lru.Init()
	p.index = make(map[poolKey]*list.Element)
	p.hits, p.misses = 0, 0
}
