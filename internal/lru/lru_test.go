package lru

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
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

// TestFlightsCoalesce pins the single-flight contract serve and core
// share: duplicates that arrive while the leader runs get its answer
// and error without running, a duplicate whose context ends stops
// waiting with its own error, and once the leader is done the next
// caller leads a fresh run.
func TestFlightsCoalesce(t *testing.T) {
	var g Flights[int]
	release := make(chan struct{})
	started := make(chan struct{})
	runs := 0
	go g.Do(context.Background(), "k", func() (int, error) {
		runs++
		close(started)
		<-release
		return 7, errors.New("leader's error")
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, led, err := g.Do(ctx, "k", nil); led || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled duplicate: led %v, err %v", led, err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, led, err := g.Do(context.Background(), "k", func() (int, error) { return 0, nil })
			if led || v != 7 || err == nil || err.Error() != "leader's error" {
				t.Errorf("duplicate got %d, led %v, err %v", v, led, err)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the duplicates reach the flight
	close(release)
	wg.Wait()
	if v, led, err := g.Do(context.Background(), "k", func() (int, error) { return 9, nil }); !led || v != 9 || err != nil || runs != 1 {
		t.Errorf("after the flight: %d, led %v, err %v, %d leader runs", v, led, err, runs)
	}
}
