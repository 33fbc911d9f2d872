package budget

import (
	"reflect"
	"testing"
)

func TestBudgetLRU(t *testing.T) {
	evicted := []string{}
	b := New(100)
	set := func(key string, size int64) {
		b.Set(key, size, func() { evicted = append(evicted, key) })
	}
	set("a", 40)
	set("b", 40)
	if b.SizeBytes() != 80 || b.Len() != 2 {
		t.Fatalf("size %d len %d", b.SizeBytes(), b.Len())
	}
	b.Touch("a") // b becomes LRU
	set("c", 40)
	if !reflect.DeepEqual(evicted, []string{"b"}) {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if b.SizeBytes() != 80 {
		t.Fatalf("size %d after eviction", b.SizeBytes())
	}
	// Updating an entry's size re-evicts; LRU order is c, a (a touched last).
	evicted = nil
	b.Set("c", 90, nil)
	if !reflect.DeepEqual(evicted, []string{"a"}) {
		t.Fatalf("evicted %v, want [a]", evicted)
	}
	// Remove forgets without the callback.
	evicted = nil
	b.Remove("c")
	if len(evicted) != 0 || b.SizeBytes() != 0 || b.Len() != 0 {
		t.Fatalf("Remove ran callbacks or left state: %v size=%d", evicted, b.SizeBytes())
	}
	// An entry larger than the whole budget evicts itself immediately.
	evicted = nil
	set("huge", 1000)
	if !reflect.DeepEqual(evicted, []string{"huge"}) || b.Len() != 0 {
		t.Fatalf("oversized entry handling: evicted=%v len=%d", evicted, b.Len())
	}
	// Reset drops silently.
	set2 := 0
	b2 := New(10)
	b2.Set("x", 5, func() { set2++ })
	b2.Reset()
	if set2 != 0 || b2.Len() != 0 {
		t.Fatal("Reset invoked callbacks or kept entries")
	}
}
