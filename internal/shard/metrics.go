package shard

import (
	"fmt"
	"time"

	"re2xolap/internal/obs"
)

// metrics is the coordinator's registry series. Coordinator-wide
// series are pre-created here; per-shard and per-replica series are
// created at view build (the registry dedupes by name+labels, so
// rebuilding a view after a topology reload reuses the existing
// instances). Without a registry every handle is nil and no-ops.
type metrics struct {
	reg *obs.Registry // for per-shard/per-replica series at view build

	plans      map[planKind]*obs.Counter
	inflight   *obs.Gauge
	mergePhase map[string]*obs.Histogram
	incomplete *obs.Counter
	skipped    *obs.Counter

	boundBindings *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cacheEvicts   *obs.Counter
	cacheSize     *obs.Gauge

	hedges    *obs.Counter
	hedgeWins *obs.Counter
	reloads   *obs.Counter
	epoch     *obs.Gauge
	toUp      *obs.Counter
	toDown    *obs.Counter
}

// mergePhases is the label vocabulary of the merge-phase histogram.
// "join" is the bound-join probe phase (streaming shard rows through
// the coordinator's hash join).
var mergePhases = [...]string{"scatter", "join", "merge", "finalize"}

// newMetrics registers the coordinator-wide series. fanout and
// replicas report the *current* view's shard and replica counts, so
// the gauges track live topology reloads.
func newMetrics(reg *obs.Registry, fanout, replicas func() float64) *metrics {
	m := &metrics{
		reg:        reg,
		plans:      make(map[planKind]*obs.Counter, len(planKinds)),
		mergePhase: make(map[string]*obs.Histogram, len(mergePhases)),
		inflight: reg.Gauge("re2xolap_shard_scatter_inflight",
			"Per-shard requests currently in flight from the coordinator."),
		incomplete: reg.Counter("re2xolap_shard_incomplete_total",
			"Degraded-mode answers served without one or more failed shards."),
		skipped: reg.Counter("re2xolap_shard_skipped_total",
			"Shard responses dropped from an answer in degraded mode."),
		boundBindings: reg.Counter("re2xolap_shard_bound_bindings_total",
			"Distinct binding rows shipped as VALUES constraints by bound-join fetches."),
		cacheHits: reg.Counter("re2xolap_shard_plan_cache_hits_total",
			"Coordinator queries answered from the plan cache."),
		cacheMisses: reg.Counter("re2xolap_shard_plan_cache_misses_total",
			"Coordinator queries that had to parse and classify."),
		cacheEvicts: reg.Counter("re2xolap_shard_plan_cache_evictions_total",
			"Plan-cache entries evicted by LRU capacity pressure."),
		cacheSize: reg.Gauge("re2xolap_shard_plan_cache_size",
			"Plans currently held by the coordinator plan cache."),
		hedges: reg.Counter("re2xolap_shard_hedges_total",
			"Hedged second requests launched after the latency budget."),
		hedgeWins: reg.Counter("re2xolap_shard_hedge_wins_total",
			"Hedged requests that answered before the primary."),
		reloads: reg.Counter("re2xolap_topology_reloads_total",
			"Live topology reloads applied by the coordinator."),
		epoch: reg.Gauge("re2xolap_topology_epoch",
			"Monotonic topology version; bumps on every applied reload."),
		toUp: reg.Counter("re2xolap_replica_transitions_total",
			"Replica health-state transitions.", obs.L("to", "up")),
		toDown: reg.Counter("re2xolap_replica_transitions_total",
			"Replica health-state transitions.", obs.L("to", "down")),
	}
	reg.GaugeFunc("re2xolap_shard_fanout", "Shards behind the coordinator.", fanout)
	reg.GaugeFunc("re2xolap_shard_replicas", "Replica endpoints across all shards.", replicas)
	for _, k := range planKinds {
		m.plans[k] = reg.Counter("re2xolap_shard_plans_total",
			"Coordinator queries by scatter-gather plan.", obs.L("plan", k.String()))
	}
	for _, p := range mergePhases {
		m.mergePhase[p] = reg.Histogram("re2xolap_shard_merge_seconds",
			"Coordinator time by merge phase.", nil, obs.L("phase", p))
	}
	return m
}

// wireShard attaches the per-shard series to a replica set at view
// build.
func (m *metrics) wireShard(g *replicaSet) {
	l := obs.L("shard", fmt.Sprint(g.shard))
	g.mQueries = m.reg.Counter("re2xolap_shard_queries_total",
		"Queries the coordinator scattered, by shard.", l)
	g.mErrors = m.reg.Counter("re2xolap_shard_errors_total",
		"Failed shard calls, by shard (post-resilience and failover).", l)
	g.mLatency = m.reg.Histogram("re2xolap_shard_query_seconds",
		"Per-shard call latency as seen by the coordinator.", nil, l)
	g.mFailovers = m.reg.Counter("re2xolap_shard_failovers_total",
		"Shard calls that fell through to another replica.", l)
	g.hedges, g.hedgeWins = m.hedges, m.hedgeWins
}

// wireReplica attaches the per-replica series at view build: the
// up/down gauge (buildView publishes it once the view is complete) and
// the probe-latency histogram.
func (m *metrics) wireReplica(r *replica) {
	ls := []obs.Label{obs.L("shard", fmt.Sprint(r.shard)), obs.L("replica", fmt.Sprint(r.index))}
	r.mUp = m.reg.Gauge("re2xolap_replica_up",
		"1 while the replica is considered healthy by the prober.", ls...)
	r.mProbe = m.reg.Histogram("re2xolap_replica_probe_seconds",
		"Health-probe latency, by replica.", nil, ls...)
}

// publishUp sets the replica's up gauge from its health state.
func (r *replica) publishUp() {
	if r.health.up.Load() {
		r.mUp.Set(1)
	} else {
		r.mUp.Set(0)
	}
}

// shardCallMetrics records one resolved shard call on the set's series.
func (g *replicaSet) shardCallMetrics(wall time.Duration, err error) {
	g.mQueries.Inc()
	g.mLatency.ObserveDuration(wall)
	if err != nil {
		g.mErrors.Inc()
	}
}

func (m *metrics) degraded(skipped int) {
	m.incomplete.Inc()
	m.skipped.Add(int64(skipped))
}

// transition counts one replica up/down flip.
func (m *metrics) transition(up bool) {
	if up {
		m.toUp.Inc()
	} else {
		m.toDown.Inc()
	}
}

// reloaded records one applied topology reload at the given epoch.
func (m *metrics) reloaded(epoch int64) {
	m.reloads.Inc()
	m.epoch.Set(epoch)
}
