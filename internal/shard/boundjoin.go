package shard

import (
	"context"
	"sync/atomic"
	"time"

	"re2xolap/internal/obs"
	"re2xolap/internal/sparql"
)

// boundJoinChunk caps the VALUES rows shipped per bound-join fetch
// query. Chunking bounds the serialized query size; the chunks
// partition the binding set, so each group solution still arrives
// exactly once.
const boundJoinChunk = 1024

// runBoundJoin executes the bound-join plan: one scatter round per
// star group, feeding each shard's answers straight into the
// coordinator's hash join — no local store is ever materialized.
// Rounds after the first constrain the fetch with the distinct
// accumulated bindings (chunked VALUES), so only join columns cross
// the network. A shard that fails a round — once a fetch exhausts its
// replicas — joins none of that round's rows, and the verdict between
// rounds decides whether the query goes on without it (degraded mode:
// it is then excluded from the remaining rounds and reported in
// SkippedShards, and the answer stays a subset of the true result).
func (c *Coordinator) runBoundJoin(ctx context.Context, v *view, plan *sparql.BoundJoinPlan, step string) (*sparql.Results, []obs.ShardCall, []int, error) {
	exec := plan.NewExec()
	n := len(v.groups)
	calls := make([]obs.ShardCall, n)
	errs := make([]error, n)
	var joinNS atomic.Int64
	feed := func(_ int, answers []*sparql.Results) error {
		probeStart := time.Now()
		defer func() { joinNS.Add(int64(time.Since(probeStart))) }()
		for _, res := range answers {
			if err := exec.Feed(res); err != nil {
				return err
			}
		}
		return nil
	}
	for s := 0; s < exec.Steps() && c.verdict(errs) == nil; s++ {
		// An empty accumulated relation yields no queries: every
		// remaining round would ship zero bindings and join to nothing.
		if texts := exec.StepQueries(c.chunk); len(texts) > 0 {
			c.scatter(ctx, v, step, texts, calls, errs, feed)
		}
		exec.EndStep()
	}
	c.m.mergePhase["join"].ObserveDuration(time.Duration(joinNS.Load()))
	c.m.boundBindings.Add(int64(exec.BindingsShipped()))
	skipped, err := c.settle(calls, errs)
	if err != nil {
		return nil, calls, nil, err
	}

	finStart := time.Now()
	res, err := exec.Finalize()
	c.m.mergePhase["finalize"].ObserveDuration(time.Since(finStart))
	if err != nil {
		return nil, calls, nil, err
	}
	return res, calls, skipped, nil
}
