package sparql

import (
	"sync"

	"re2xolap/internal/par"
)

// ExecOptions configures the executor's intra-query parallelism. The
// zero value means "use the machine": worker count defaults to
// GOMAXPROCS. Setting Workers to 1 selects the fully sequential
// executor, which is the debugging baseline — parallel and sequential
// execution produce identical Results.
type ExecOptions struct {
	// Workers bounds the goroutines a single query may fan out to.
	// 0 means GOMAXPROCS; 1 disables parallelism.
	Workers int
	// ParallelThreshold is the minimum number of rows a join frontier
	// or a filter stage needs before it is chunked across workers;
	// smaller inputs run sequentially (fan-out overhead would dominate).
	// 0 means DefaultParallelThreshold.
	ParallelThreshold int
}

// DefaultParallelThreshold is the seed-row count below which a stage
// stays sequential.
const DefaultParallelThreshold = 64

func (o ExecOptions) workers() int { return par.Workers(o.Workers) }

func (o ExecOptions) threshold() int {
	if o.ParallelThreshold > 0 {
		return o.ParallelThreshold
	}
	return DefaultParallelThreshold
}

// parallel reports whether a stage over n input rows should fan out.
func (ex *executor) parallel(n int) bool {
	return ex.workers > 1 && n >= ex.threshold
}

// clone returns an executor that shares this executor's engine, store
// view, dictionary, local terms, context, and cancellation latch, but
// owns its mutable per-evaluation state (slot table, tick counter).
// Worker goroutines run on clones so that state mutated mid-evaluation
// — fresh variables registered by EXISTS groups — never races across
// workers. Clones are sequential (workers=1): fan-out happens at one
// level only.
func (ex *executor) clone() *executor {
	return &executor{
		eng:       ex.eng,
		view:      ex.view,
		dict:      ex.dict,
		local:     ex.local,
		vars:      ex.vars.clone(),
		ctx:       ex.ctx,
		dead:      ex.dead,
		workers:   1,
		threshold: ex.threshold,
	}
}

// runRowChunks partitions rows into one contiguous chunk per worker,
// runs fn over the chunks concurrently (each on a cloned executor),
// and concatenates the chunk outputs in input order. Because chunks
// are contiguous and merged in order, the result is byte-identical to
// running fn over the whole input sequentially, provided fn itself is
// order-preserving per chunk (all executor stages are). The first
// error by chunk order wins; the shared cancellation latch makes the
// remaining workers drain promptly.
func (ex *executor) runRowChunks(rows []row, fn func(w *executor, chunk []row) ([]row, error)) ([]row, error) {
	chunks := par.Chunks(len(rows), ex.workers)
	if len(chunks) <= 1 {
		return fn(ex, rows)
	}
	outs := make([][]row, len(chunks))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	wg.Add(len(chunks))
	for i, c := range chunks {
		go func(i int, lo, hi int) {
			defer wg.Done()
			w := ex.clone()
			outs[i], errs[i] = fn(w, rows[lo:hi])
			if errs[i] != nil {
				// Latch so sibling workers stop scanning; the error is
				// propagated below, so the latch can't silently truncate
				// results.
				ex.dead.Store(true)
			}
		}(i, c[0], c[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// The latch may also have been set by a context check in a worker;
	// surface the context error rather than merging partial chunks.
	if err := ex.ctxErr(); err != nil {
		return nil, err
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	merged := make([]row, 0, total)
	for _, o := range outs {
		merged = append(merged, o...)
	}
	return merged, nil
}

// runIndexed runs fn for every index in [0, n), partitioned into
// contiguous chunks over the worker pool, each chunk on a cloned
// executor. fn must only write to index-addressed state (no shared
// appends). wide says whether fan-out is worthwhile (callers gate on
// the row threshold for cheap per-item work, or on item count alone
// when each item is expensive); when false, fn runs inline on this
// executor.
func (ex *executor) runIndexed(n int, wide bool, fn func(w *executor, i int)) {
	chunks := par.Chunks(n, ex.workers)
	if !wide || ex.workers <= 1 || len(chunks) <= 1 {
		for i := 0; i < n; i++ {
			fn(ex, i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(chunks))
	for _, c := range chunks {
		go func(lo, hi int) {
			defer wg.Done()
			w := ex.clone()
			for i := lo; i < hi; i++ {
				fn(w, i)
			}
		}(c[0], c[1])
	}
	wg.Wait()
}
