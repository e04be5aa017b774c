package core

import (
	"sync"

	"re2xolap/internal/lru"
)

// matchCache is a small LRU over MatchItem results, one of the
// "optimizations for core operations" the paper's system implements:
// exploratory sessions re-resolve the same keywords constantly
// (synthesis retries, contrast, negatives), and member matching is the
// only synthesis step that touches the full-text machinery.
type matchCache struct {
	lru *lru.Cache[[]Match]
	// inflight holds one flight per key currently being resolved, so
	// concurrent misses coalesce into a single endpoint query
	// (single-flight). Entries are removed when the leader finishes.
	mu       sync.Mutex
	inflight map[string]*flight
}

// flight is one in-progress resolution: the leader closes done after
// publishing ms/err, and followers read them only after done.
type flight struct {
	done chan struct{}
	ms   []Match
	err  error
}

func newMatchCache(max int) *matchCache {
	return &matchCache{lru: lru.New[[]Match](max), inflight: map[string]*flight{}}
}

// lookupOrStart atomically checks the cache and the in-flight table:
// a hit returns the cached matches; a miss with a resolution already
// in flight returns that flight to wait on; otherwise the caller
// becomes the leader of a new flight (last result true) and must call
// endFlight when done.
func (c *matchCache) lookupOrStart(key string) ([]Match, bool, *flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Under mu: a leader publishes to the cache before endFlight takes
	// mu to retire its flight, so a miss here still finds the flight.
	if ms, ok := c.lru.Get(key); ok {
		return ms, true, nil, false
	}
	if f, ok := c.inflight[key]; ok {
		return nil, false, f, false
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	return nil, false, f, true
}

// endFlight publishes the leader's outcome and wakes the followers.
func (c *matchCache) endFlight(key string, f *flight, ms []Match, err error) {
	c.mu.Lock()
	f.ms, f.err = ms, err
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
}

// put stores matches for key, evicting the least recently used entry
// beyond capacity.
func (c *matchCache) put(key string, matches []Match) { c.lru.Put(key, matches) }

// purge empties the cache (called when the data may have changed).
func (c *matchCache) purge() { c.lru.Purge() }
