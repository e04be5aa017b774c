// Package lru is the one bounded least-recently-used map the serving
// layers share — the result cache and the canonical-text memo of serve,
// the coordinator's plan cache, and the keyword-match cache of core —
// and the one single-flight group (Flights) serve and core put in
// front of their caches.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps string keys to values of type V and holds at most its
// capacity of them, dropping the least recently used. Safe for
// concurrent use.
type Cache[V any] struct {
	mu  sync.Mutex
	max int
	m   map[string]*list.Element
	l   list.List // front = most recently used; values are *entry[V]
}

// entry is one occupant: the key rides along so eviction can delete
// the map slot.
type entry[V any] struct {
	key string
	val V
}

// New returns a cache holding at most capacity entries (at least one).
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{max: max(capacity, 1), m: make(map[string]*list.Element)}
}

// Get returns the value stored under key and refreshes its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.l.MoveToFront(e)
	return e.Value.(*entry[V]).val, true
}

// Put inserts or replaces key, making it the most recently used, and
// returns how many entries were evicted to stay within the bound (0 or
// 1).
func (c *Cache[V]) Put(key string, val V) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		e.Value.(*entry[V]).val = val
		c.l.MoveToFront(e)
		return 0
	}
	c.m[key] = c.l.PushFront(&entry[V]{key: key, val: val})
	if c.l.Len() <= c.max {
		return 0
	}
	oldest := c.l.Back()
	c.l.Remove(oldest)
	delete(c.m, oldest.Value.(*entry[V]).key)
	return 1
}

// Len returns the current occupancy.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}

// Purge drops every entry.
func (c *Cache[V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.l.Init()
	clear(c.m)
}
