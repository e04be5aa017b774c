package shard

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/sparql"
)

// replica is one backend of a replica set: the resilient-wrapped
// query client, the raw client the prober checks, and the health
// state routing reads. A replica whose client a topology reload hands
// back in its old slot is reused wholesale; in a new slot it gets a
// replica sharing its client, breaker and health state.
type replica struct {
	shard, index int
	client       endpoint.Client // query path (resilient-wrapped)
	raw          endpoint.Client // probe path, and the reload identity (as given)
	health       *healthState

	// lastGen is the store generation this replica last reported on a
	// successful answer (from QueryMeta.Generation / the
	// X-Re2xolap-Generation header). Remote replicas cannot be asked
	// for a live generation cheaply, so the coordinator folds this
	// last-seen value into its composed cache-invalidation token.
	lastGen atomic.Uint64

	mUp    *obs.Gauge
	mProbe *obs.Histogram
}

// generation resolves this replica's data-version contribution: a live
// read when the backend chain exposes one (in-process stores), the
// last query-reported value otherwise.
func (r *replica) generation() uint64 {
	if g, ok := endpoint.GenerationOf(r.raw); ok {
		return g
	}
	return r.lastGen.Load()
}

// replicaSet is one logical shard's ordered replicas plus its
// per-shard metric handles. All replicas hold the same partition, so
// any of them answers any shard query identically — which is what
// lets failover and hedging preserve the coordinator's byte-identical
// merge contract.
type replicaSet struct {
	shard    int
	replicas []*replica

	mQueries   *obs.Counter
	mErrors    *obs.Counter
	mLatency   *obs.Histogram
	mFailovers *obs.Counter
	// hedges/hedgeWins alias the coordinator-wide counters (shared by
	// every set; wired at view build).
	hedges    *obs.Counter
	hedgeWins *obs.Counter
}

// candidates returns the failover order: healthy replicas first, in
// index order, then unhealthy ones, also in index order. Down
// replicas stay in the list as a last resort — the prober's view may
// be stale, and trying a "down" replica beats failing a query when
// every replica is marked down.
func (g *replicaSet) candidates() []*replica {
	if len(g.replicas) == 1 {
		return g.replicas
	}
	// Fast path: everything healthy (the steady state) — index order IS
	// the preference order, no per-call allocation.
	allUp := true
	for _, r := range g.replicas {
		if !r.health.up.Load() {
			allUp = false
			break
		}
	}
	if allUp {
		return g.replicas
	}
	out := make([]*replica, 0, len(g.replicas))
	for _, r := range g.replicas {
		if r.health.up.Load() {
			out = append(out, r)
		}
	}
	for _, r := range g.replicas {
		if !r.health.up.Load() {
			out = append(out, r)
		}
	}
	return out
}

// failoverable reports whether an error justifies trying the next
// replica: transient delivery failures, open breakers, and timeouts
// do; permanent errors (a bad query fails identically everywhere) do
// not.
func failoverable(err error) bool {
	return errors.Is(err, endpoint.ErrRetryable) ||
		errors.Is(err, endpoint.ErrCircuitOpen) ||
		errors.Is(err, endpoint.ErrTimeout)
}

// groupResult is one replica set's answer to one query: the results,
// the winning replica's metadata, and the failover accounting that
// feeds obs.ShardCall.
type groupResult struct {
	res       *sparql.Results
	replica   int
	attempts  int
	retries   int
	failovers int
	err       error
}

// answer is one replica call's outcome as the candidate walk reads it.
type answer struct {
	rep    *replica
	hedged bool // sent because the call before it was silent for the budget
	res    *sparql.Results
	meta   endpoint.QueryMeta
	err    error
}

// call sends req to one replica.
func call(ctx context.Context, r *replica, req endpoint.Request, hedged bool) answer {
	res, meta, err := endpoint.QueryX(ctx, r.client, req)
	return answer{rep: r, hedged: hedged, res: res, meta: meta, err: err}
}

// waitAnswer reads the next answer of a call sent off the caller's
// goroutine. With a non-zero hedgeAt it gives up at that time instead
// and reports that the walk should hedge.
func waitAnswer(answers <-chan answer, hedgeAt time.Time) (answer, bool) {
	if hedgeAt.IsZero() {
		return <-answers, false
	}
	t := time.NewTimer(time.Until(hedgeAt))
	defer t.Stop()
	select {
	case a := <-answers:
		return a, false
	case <-t.C:
		return answer{}, true
	}
}

// query runs one request against the set by walking its candidates in
// order. The first goes out at once; the walk sends to the next one
// when the call sent last fails with a failoverable error (a
// failover), or when hedge > 0 and the one call in flight has been
// silent for the hedge budget (a hedge). The first success wins and
// the other calls' contexts are cancelled. A permanent error, the
// caller's context ending, or the last answer failing ends the walk
// with that error. Replicas hold identical partitions, so whichever
// answers, the bytes are the same: hedging trades a little duplicate
// work for tail latency. A call after which no hedge can start (hedge
// 0, or the last candidate) runs on the caller's goroutine when no
// other call is in flight.
func (g *replicaSet) query(ctx context.Context, req endpoint.Request, hedge time.Duration) groupResult {
	cands := g.candidates()
	var (
		out      groupResult
		cctx     = ctx       // the calls' context, cancelled on return once one leaves this goroutine
		answers  chan answer // the answers of calls sent off this goroutine
		inFlight int         // those calls not read yet
		hedged   bool        // the next send is a hedge, not a failover
	)
	for k := 0; ; {
		// Send to the next candidate.
		r := cands[k]
		k++
		switch {
		case k == 1:
		case hedged:
			g.hedges.Inc()
		default:
			out.failovers++
			g.mFailovers.Inc()
		}
		var a answer
		var sent time.Time
		wait := inFlight > 0 || (hedge > 0 && k < len(cands))
		if wait {
			if answers == nil {
				answers = make(chan answer, len(cands))
				var cancel context.CancelFunc
				cctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			inFlight++
			sent = time.Now()
			go func(ctx context.Context, r *replica, hedged bool) {
				answers <- call(ctx, r, req, hedged)
			}(cctx, r, hedged)
		} else {
			a = call(cctx, r, req, hedged)
		}
		hedged = false
		// Read answers until one ends the walk or calls for the next send.
		for {
			if wait {
				// Only r can be the one call in flight while a candidate
				// is left: an earlier call still out when r was sent
				// leaves r alone only by failing.
				var hedgeAt time.Time
				if hedge > 0 && inFlight == 1 && k < len(cands) {
					hedgeAt = sent.Add(hedge)
				}
				if a, hedged = waitAnswer(answers, hedgeAt); hedged {
					break
				}
				inFlight--
			}
			wait = true
			out.attempts += a.meta.Attempts
			out.retries += a.meta.Retries
			out.replica = a.rep.index
			if a.err == nil {
				if a.meta.Generation != 0 {
					a.rep.lastGen.Store(a.meta.Generation)
				}
				if a.hedged {
					g.hedgeWins.Inc()
				}
				out.res, out.err = a.res, nil
				return out
			}
			out.err = a.err
			if ctx.Err() != nil || !failoverable(a.err) {
				return out
			}
			if a.rep == r && k < len(cands) {
				break // fail over
			}
			if inFlight == 0 {
				return out
			}
		}
	}
}
