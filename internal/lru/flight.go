package lru

import (
	"context"
	"sync"
)

// Flights coalesces concurrent work on one key (single-flight): the
// first caller for a key leads and runs the work; callers arriving
// while it runs wait for its answer instead of running it again.
// Nothing outlives the leader — once it finishes, the next caller leads
// a fresh run, and a Cache, not Flights, carries answers across time.
// The zero value is ready to use.
type Flights[V any] struct {
	mu sync.Mutex
	m  map[string]*flight[V]
}

// flight is one run in progress: the leader closes done after setting
// val and err, and followers read them only after done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn under key, coalescing concurrent duplicates, and reports
// whether this caller led the run (false: it received the leader's
// answer). A follower whose ctx ends first stops waiting and returns
// ctx.Err(); the leader is unaffected.
func (g *Flights[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, led bool, err error) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.val, false, f.err
		case <-ctx.Done():
			return v, false, ctx.Err()
		}
	}
	if g.m == nil {
		g.m = map[string]*flight[V]{}
	}
	f := &flight[V]{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.val, f.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.val, true, f.err
}
