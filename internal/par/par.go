// Package par provides the small bounded-worker-pool primitives shared
// by the parallel query pipeline: the SPARQL executor fans row chunks
// out over one, synthesis validates interpretation combinations over
// another. The helpers are deliberately deterministic-friendly — work
// items are indexed, results land in caller-owned slots, and the first
// error *by index* (not by wall-clock) wins — so callers can merge
// partial results in input order and reproduce sequential output
// byte for byte.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// active counts the goroutines working in Do calls process-wide, each
// call's caller included; Active exposes it so the observability layer
// can publish pool occupancy as a gauge.
var active atomic.Int64

// Active returns the number of goroutines currently working in Do
// calls process-wide, the callers among them included: inside fn, a
// call of Do with w workers over at least w items counts w.
func Active() int64 { return active.Load() }

// Workers resolves a worker-count setting: n > 0 is taken as-is, and
// anything else means GOMAXPROCS (the "use the machine" default).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Do runs fn(0), fn(1), …, fn(n-1) on at most workers goroutines, the
// caller's one of them, and returns the error from the lowest index
// that failed, or nil. Indexes are handed out in increasing order, and
// every index is invoked exactly once regardless of other indexes'
// errors; callers that want early abort should latch their own flag
// inside fn (see core.SynthesizeAll). With workers <= 1 the caller runs
// every index itself, in index order, which is the sequential
// debugging path.
func Do(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = max(1, min(workers, n))
	var (
		next  atomic.Int64
		mu    sync.Mutex
		first = n // the lowest failed index, n while none has failed
		err   error
		wg    sync.WaitGroup
	)
	work := func() {
		active.Add(1)
		defer active.Add(-1)
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if e := fn(i); e != nil {
				mu.Lock()
				if i < first {
					first, err = i, e
				}
				mu.Unlock()
			}
		}
	}
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return err
}

// Chunks splits the half-open range [0, n) into at most workers
// contiguous chunks of near-equal size and reports each as a [lo, hi)
// pair. It never returns empty chunks; with n == 0 it returns nil.
func Chunks(n, workers int) [][2]int {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	size := (n + workers - 1) / workers
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
