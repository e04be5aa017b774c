package shard

import "re2xolap/internal/lru"

// planCacheSize is the plan-cache capacity. The cache only saves parse
// and classification cost, so, like serve's canonical-text memo, it is
// a fixed size rather than a setting.
const planCacheSize = 512

// planCache memoizes parse + classify + rewrite by query text. Every
// cached artifact — the parsed AST, the plan kind, the partial-agg
// and bound-join rewrites, the rendered shard text — is a pure
// function of the text and is read-only after construction, so
// entries are shared across concurrent queries without copying.
// Eviction is plain LRU: plans never go stale (there is nothing to
// invalidate them against), they only fall out of a full cache.
type planCache struct {
	lru *lru.Cache[queryPlan]
	m   *metrics
}

// newPlanCache builds a cache with the given capacity (> 0).
func newPlanCache(capacity int, m *metrics) *planCache {
	return &planCache{lru: lru.New[queryPlan](capacity), m: m}
}

// get returns the cached plan for a query text, if present.
func (c *planCache) get(text string) (queryPlan, bool) {
	p, ok := c.lru.Get(text)
	if ok {
		c.m.cacheHits.Inc()
	} else {
		c.m.cacheMisses.Inc()
	}
	return p, ok
}

// put stores a plan, evicting the least recently used entry when the
// cache is full.
func (c *planCache) put(text string, p queryPlan) {
	c.m.cacheEvicts.Add(int64(c.lru.Put(text, p)))
	c.m.cacheSize.Set(int64(c.lru.Len()))
}

// len returns the current entry count.
func (c *planCache) len() int {
	return c.lru.Len()
}
