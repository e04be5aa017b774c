package par

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 57
		var counts [n]atomic.Int32
		if err := Do(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestDoFirstErrorByIndex(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := Do(8, 64, func(i int) error {
		switch i {
		case 40:
			return errB
		case 12:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want the lowest-index error %v", err, errA)
	}
}

func TestDoZeroItems(t *testing.T) {
	if err := Do(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatalf("Do over zero items: %v", err)
	}
}

// TestActiveCountsEveryWorker pins what the pool gauge reads: inside
// fn, a Do with w workers over w items counts all w of them, the caller
// included, and the count falls back once Do returns. Every call reads
// the gauge only once all w are in fn, and leaves only once all w have
// read it, so each runs on a goroutine of its own.
func TestActiveCountsEveryWorker(t *testing.T) {
	// meet returns a barrier for n goroutines that gives up after a
	// while, so a pool short of goroutines fails instead of hanging.
	meet := func(n int) func() error {
		var wg sync.WaitGroup
		wg.Add(n)
		all := make(chan struct{})
		go func() {
			wg.Wait()
			close(all)
		}()
		return func() error {
			wg.Done()
			select {
			case <-all:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("workers never met: fewer goroutines than workers")
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		before := Active()
		in, read := meet(workers), meet(workers)
		seen := make([]int64, workers)
		err := Do(workers, workers, func(i int) error {
			if err := in(); err != nil {
				return err
			}
			seen[i] = Active() - before
			return read()
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, n := range seen {
			if n != int64(workers) {
				t.Errorf("workers=%d: index %d saw %d active, want %d", workers, i, n, workers)
			}
		}
		if n := Active(); n != before {
			t.Errorf("workers=%d: %d active after Do returned, want %d", workers, n, before)
		}
	}
}

func TestChunks(t *testing.T) {
	cases := []struct {
		n, workers int
		want       [][2]int
	}{
		{0, 4, nil},
		{3, 1, [][2]int{{0, 3}}},
		{3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{10, 3, [][2]int{{0, 4}, {4, 8}, {8, 10}}},
		{8, 4, [][2]int{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
	}
	for _, c := range cases {
		got := Chunks(c.n, c.workers)
		if len(got) != len(c.want) {
			t.Fatalf("Chunks(%d,%d) = %v, want %v", c.n, c.workers, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Chunks(%d,%d) = %v, want %v", c.n, c.workers, got, c.want)
			}
		}
		// The chunks must exactly tile [0, n).
		prev := 0
		for _, ch := range got {
			if ch[0] != prev || ch[1] <= ch[0] {
				t.Fatalf("Chunks(%d,%d): bad tiling %v", c.n, c.workers, got)
			}
			prev = ch[1]
		}
		if prev != c.n {
			t.Fatalf("Chunks(%d,%d): covers [0,%d), want [0,%d)", c.n, c.workers, prev, c.n)
		}
	}
}
