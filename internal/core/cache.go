package core

import (
	"re2xolap/internal/lru"
)

// matchCache is a small LRU over MatchItem results, one of the
// "optimizations for core operations" the paper's system implements:
// exploratory sessions re-resolve the same keywords constantly
// (synthesis retries, contrast, negatives), and member matching is the
// only synthesis step that touches the full-text machinery. flights
// coalesces concurrent misses for one key into a single endpoint
// resolution (single-flight).
type matchCache struct {
	lru     *lru.Cache[[]Match]
	flights lru.Flights[[]Match]
}

func newMatchCache(max int) *matchCache {
	return &matchCache{lru: lru.New[[]Match](max)}
}

// put stores matches for key, evicting the least recently used entry
// beyond capacity.
func (c *matchCache) put(key string, matches []Match) { c.lru.Put(key, matches) }

// purge empties the cache (called when the data may have changed).
func (c *matchCache) purge() { c.lru.Purge() }
