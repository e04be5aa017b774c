package lru

import (
	"fmt"
	"sync"
	"testing"
)

// TestCacheEvictsLeastRecentlyUsed pins the contract all three users
// rely on: Get and a re-Put refresh recency, a Put beyond the bound
// evicts exactly the least recently used entry and says so.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int](2)
	if n := c.Put("a", 1) + c.Put("b", 2); n != 0 {
		t.Fatalf("%d evictions while filling", n)
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if n := c.Put("c", 3); n != 1 {
		t.Fatalf("Put beyond the bound evicted %d entries, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived although it was least recently used")
	}
	if n := c.Put("a", 10); n != 0 || c.Len() != 2 {
		t.Errorf("re-Put evicted %d, Len = %d", n, c.Len())
	}
	c.Put("d", 4) // a was refreshed by the re-Put: c goes
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = %d, %v after re-Put", v, ok)
	}
	if _, ok := c.Get("c"); ok {
		t.Error("c survived although a was refreshed after it")
	}
	c.Purge()
	if _, ok := c.Get("a"); ok || c.Len() != 0 {
		t.Errorf("Purge left %d entries", c.Len())
	}
	if c := New[string](0); c.Put("x", "y") != 0 || c.Len() != 1 {
		t.Error("a cache of capacity below one does not hold one entry")
	}
}

// TestCacheConcurrent is the -race check: many goroutines on few keys.
func TestCacheConcurrent(t *testing.T) {
	c := New[int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprint((g + i) % 12)
				if _, ok := c.Get(key); !ok {
					c.Put(key, i)
				}
				if i%100 == 0 {
					c.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("Len = %d beyond the bound", c.Len())
	}
}
