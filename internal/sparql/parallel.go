package sparql

import (
	"slices"

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

// width is how many chunks a stage over n input rows splits into: one
// below the parallel threshold, one per worker above it.
func (ex *executor) width(n int) int {
	if ex.parallel(n) {
		return ex.workers
	}
	return 1
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

// fanOut is the executor's one fan-out: it splits [0, n) into at most k
// contiguous chunks (par.Chunks) and runs fn(w, c, lo, hi) for chunk c
// = [lo, hi). A single chunk runs on ex itself; more run through
// par.Do, each on a clone of ex, all taken before the fan-out starts so
// no clone copies state a running worker is changing. Every executor
// stage is order-preserving per chunk, so merging the chunk outputs in
// chunk order reproduces the one-chunk output byte for byte. The first
// error by chunk wins and latches the query's cancellation flag, so the
// sibling workers stop promptly; a worker that saw the context end
// latches it too, and the caller surfaces that through ctxErr.
func (ex *executor) fanOut(n, k int, fn func(w *executor, c, lo, hi int) error) error {
	if k <= 1 || n <= 1 {
		return fn(ex, 0, 0, n)
	}
	chunks := par.Chunks(n, k)
	ws := make([]*executor, len(chunks))
	for c := range ws {
		ws[c] = ex.clone()
	}
	return par.Do(ex.workers, len(chunks), func(c int) error {
		err := fn(ws[c], c, chunks[c][0], chunks[c][1])
		if err != nil {
			ex.dead.Store(true)
		}
		return err
	})
}

// mergeChunks concatenates the row outputs of a fanOut in chunk order
// (a lone chunk's rows as they are), unless the fan-out failed or a
// worker saw the context end: partial chunks are never merged.
func (ex *executor) mergeChunks(outs [][]row, err error) ([]row, error) {
	if err == nil {
		err = ex.ctxErr()
	}
	switch {
	case err != nil:
		return nil, err
	case len(outs) == 1:
		return outs[0], nil
	}
	return slices.Concat(outs...), nil
}
