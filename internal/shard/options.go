package shard

import (
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
)

// Option tunes a Coordinator at construction, mirroring
// endpoint.Option. The zero configuration (no options) is usable:
// full resilience with the default policy, strict (non-degraded)
// failure handling, scatter width = shard count, no prober, no
// hedging, no metrics.
type Option func(*config)

// applyOptions folds the options over a zero config.
func applyOptions(opts []Option) config {
	var cfg config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithWorkers bounds scatter concurrency and the local engine workers
// on the gather path; <= 0 means one goroutine per shard.
func WithWorkers(n int) Option {
	return func(c *config) { c.Workers = n }
}

// WithDegraded serves partial results when shards fail: failed shards
// are skipped and the answer's QueryMeta.Incomplete is set, with the
// skipped shard indices in QueryMeta.SkippedShards. When off (the
// default) any shard failure fails the query. An all-shards failure
// is an error in either mode.
func WithDegraded(on bool) Option {
	return func(c *config) { c.Degraded = on }
}

// WithPolicy sets the per-replica resilience policy (each replica not
// already resilient is wrapped in its own endpoint.NewResilient, so
// one misbehaving replica trips only its own breaker).
func WithPolicy(p endpoint.Policy) Option {
	return func(c *config) { c.Policy = &p }
}

// WithoutResilience skips the per-replica ResilientClient wrapping
// (tests, or callers that bring their own).
func WithoutResilience() Option {
	return func(c *config) { c.NoResilience = true }
}

// WithHealth enables the background replica prober. A zero Interval
// disables it (failover alone then handles faults, and Ready reports
// ready immediately).
func WithHealth(h HealthConfig) Option {
	return func(c *config) { c.Health = h }
}

// WithHedge hedges slow shard calls: if the preferred replica has not
// answered within the budget, the same query is also sent to the next
// candidate replica and the first answer wins. Replicas hold
// identical partitions, so hedging cannot change result bytes — only
// tail latency.
func WithHedge(after time.Duration) Option {
	return func(c *config) { c.HedgeAfter = after }
}

// WithRegistry wires the coordinator metrics: per-shard call
// counters/latency/failovers, per-replica health gauges, plan and
// plan-cache counters, fan-out and in-flight gauges, merge-phase
// timings, hedge, degraded-mode, and topology-reload counters.
func WithRegistry(r *obs.Registry) Option {
	return func(c *config) { c.Registry = r }
}

// WithFleet enables the fleet metrics collector: the coordinator
// scrapes every HTTP replica's /metrics (on the configured interval,
// or on demand per FleetHandler request when the interval is zero)
// and serves the merged exposition — counters summed, histogram
// buckets summed with quantiles recomputed, per-process gauges
// passthrough with an `instance` label, staleness gauges for
// unreachable replicas — at FleetHandler (/metrics/fleet).
func WithFleet(cfg FleetConfig) Option {
	return func(c *config) { c.Fleet = &cfg }
}
