package shard

import (
	"context"
	"errors"
	"fmt"
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

// query runs one request against the set: first healthy replica,
// failover down the candidate list on retryable/circuit-open/timeout
// errors, and — when hedge > 0 — a hedged second request to the next
// candidate once the primary has been silent for the hedge budget.
func (g *replicaSet) query(ctx context.Context, req endpoint.Request, hedge time.Duration) groupResult {
	cands := g.candidates()
	var out groupResult
	hedged := false // the hedge pair consumed cands[k+1] already
	for k := 0; k < len(cands); k++ {
		if hedged {
			hedged = false
			continue
		}
		if k > 0 {
			out.failovers++
			g.mFailovers.Inc()
		}
		var res *sparql.Results
		var qmeta endpoint.QueryMeta
		var err error
		winRep := cands[k]
		if hedge > 0 && k+1 < len(cands) {
			var winner int
			res, qmeta, winner, err = g.hedgedCall(ctx, cands[k], cands[k+1], req, hedge)
			if winner == 1 {
				winRep = cands[k+1]
				hedged = true
			}
			out.replica = winRep.index
		} else {
			res, qmeta, err = endpoint.QueryX(ctx, cands[k].client, req)
			out.replica = cands[k].index
		}
		out.attempts += qmeta.Attempts
		out.retries += qmeta.Retries
		if err == nil {
			if qmeta.Generation != 0 {
				winRep.lastGen.Store(qmeta.Generation)
			}
			out.res, out.err = res, nil
			return out
		}
		out.err = err
		if ctx.Err() != nil || !failoverable(err) {
			return out
		}
	}
	if out.err == nil {
		out.err = fmt.Errorf("shard %d: no replicas", g.shard)
	}
	return out
}

// hedgedAnswer is one leg's result in a hedged pair.
type hedgedAnswer struct {
	res  *sparql.Results
	meta endpoint.QueryMeta
	err  error
	leg  int
}

// hedgedCall races primary against a delayed secondary: the secondary
// only starts once the primary has used up the hedge budget, and the
// first success wins (the loser's context is cancelled). Both legs
// hold identical data, so whichever answers, the bytes are the same —
// hedging trades a little duplicate work for tail latency. Returns
// the winning leg (0 = primary) for accounting.
func (g *replicaSet) hedgedCall(ctx context.Context, primary, secondary *replica, req endpoint.Request, hedge time.Duration) (*sparql.Results, endpoint.QueryMeta, int, error) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan hedgedAnswer, 2)
	launch := func(r *replica, leg int) {
		res, meta, err := endpoint.QueryX(hctx, r.client, req)
		ch <- hedgedAnswer{res: res, meta: meta, err: err, leg: leg}
	}
	go launch(primary, 0)

	timer := time.NewTimer(hedge)
	defer timer.Stop()
	inFlight := 1
	select {
	case a := <-ch:
		// Primary answered (either way) within the budget: no hedge.
		return a.res, a.meta, a.leg, a.err
	case <-timer.C:
		g.mHedge(false)
		go launch(secondary, 1)
		inFlight = 2
	case <-ctx.Done():
		// Caller gone; report through the primary leg.
		a := <-ch
		return a.res, a.meta, a.leg, a.err
	}

	var firstErr *hedgedAnswer
	for i := 0; i < inFlight; i++ {
		a := <-ch
		if a.err == nil {
			if a.leg == 1 {
				g.mHedge(true)
			}
			return a.res, a.meta, a.leg, nil
		}
		if firstErr == nil {
			cp := a
			firstErr = &cp
		}
		if !failoverable(a.err) || ctx.Err() != nil {
			return a.res, a.meta, a.leg, a.err
		}
	}
	return firstErr.res, firstErr.meta, firstErr.leg, firstErr.err
}

// mHedge counts hedge launches and wins through the owning
// coordinator's metrics (wired at view build).
func (g *replicaSet) mHedge(win bool) {
	if win {
		g.hedgeWins.Inc()
	} else {
		g.hedges.Inc()
	}
}
