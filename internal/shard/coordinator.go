package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/par"
	"re2xolap/internal/sparql"
)

// config is what the With* Options (options.go) fold into. The zero
// value is usable: full resilience with the default policy, strict
// (non-degraded) failure handling, scatter width = shard count, no
// prober, no hedging, no metrics.
type config struct {
	// Workers bounds scatter concurrency — shards in flight, and one
	// shard's queries of a round in flight — and the local engine
	// workers on the gather path; <= 0 means one goroutine per shard
	// (and per query).
	Workers int
	// Degraded serves partial results when shards fail: failed shards
	// are skipped and the answer's QueryMeta.Incomplete is set, with
	// the skipped shard indices in QueryMeta.SkippedShards. When false
	// any shard failure fails the query (first error by shard index).
	// An all-shards failure is an error in either mode. A shard only
	// counts as failed once every one of its replicas has been tried.
	Degraded bool
	// Policy is the per-replica resilience policy; nil means
	// endpoint.DefaultPolicy(). Each replica not already resilient is
	// wrapped in its own endpoint.NewResilient, so one misbehaving
	// replica trips only its own breaker.
	Policy *endpoint.Policy
	// NoResilience skips the per-replica ResilientClient wrapping
	// (tests, or callers that bring their own).
	NoResilience bool
	// Health configures the background replica prober; a zero Interval
	// disables it (failover alone then handles faults, and Ready
	// reports ready immediately).
	Health HealthConfig
	// HedgeAfter, when > 0, hedges slow shard calls: if the preferred
	// replica has not answered within this budget, the same query is
	// also sent to the next candidate replica and the first answer
	// wins. Replicas hold identical partitions, so hedging cannot
	// change result bytes — only tail latency.
	HedgeAfter time.Duration
	// Registry receives the coordinator metrics: per-shard call
	// counters/latency/failovers, per-replica health gauges and probe
	// latency, plan counters, fan-out and in-flight gauges, merge-phase
	// timings, hedge and topology-reload counters, degraded-mode
	// counters.
	Registry *obs.Registry
}

// view is one immutable topology generation: the replica sets and the
// reload epoch that built them. Queries load the pointer once and use
// that view end to end, so a concurrent Reload never mutates anything
// an in-flight query can see — old views drain naturally as their
// queries finish.
type view struct {
	groups []*replicaSet
	epoch  int64
}

// Coordinator federates N logical shards — each an ordered replica
// set — behind the endpoint.Client and endpoint.QuerierX interfaces.
// It is safe for concurrent use.
type Coordinator struct {
	cfg   config
	m     *metrics
	cache *planCache

	view     atomic.Pointer[view]
	reloadMu sync.Mutex // serializes Reload's compare-build-swap

	probeCancel context.CancelFunc
	probeDone   chan struct{}

	facts predicateFacts // what the gather plan's star fetches rely on
	chunk int            // VALUES rows per bound-join fetch: boundJoinChunk
}

// New builds a coordinator over single-replica shards: backends[i]
// serves shard i under the Partitioner that split the data. It is
// NewReplicated with one replica per shard.
func New(backends []endpoint.Client, opts ...Option) (*Coordinator, error) {
	groups := make([][]endpoint.Client, len(backends))
	for i, b := range backends {
		groups[i] = []endpoint.Client{b}
	}
	return NewReplicated(groups, opts...)
}

// NewReplicated builds a coordinator over replica groups: groups[i]
// lists shard i's replicas in preference order, every one holding an
// identical copy of partition i. The coordinator routes each shard
// call to the first healthy replica and fails over down the list.
// Reload swaps in new groups while queries are in flight.
func NewReplicated(groups [][]endpoint.Client, opts ...Option) (*Coordinator, error) {
	if err := checkGroups(groups); err != nil {
		return nil, err
	}
	c := newCoordinator(applyOptions(opts))
	c.view.Store(c.buildView(groups, nil))
	c.startProber()
	return c, nil
}

// checkGroups rejects groups no coordinator can serve: no shards, a
// shard without replicas, a nil client.
func checkGroups(groups [][]endpoint.Client) error {
	if len(groups) == 0 {
		return errors.New("shard: topology has no shards")
	}
	for i, clients := range groups {
		if len(clients) == 0 {
			return fmt.Errorf("shard: shard %d has no replicas", i)
		}
		for j, b := range clients {
			if b == nil {
				return fmt.Errorf("shard: shard %d replica %d is nil", i, j)
			}
		}
	}
	return nil
}

// newCoordinator sets up the shared shell: config, metrics whose
// gauges read whatever view is current, and the plan cache.
func newCoordinator(cfg config) *Coordinator {
	c := &Coordinator{cfg: cfg, chunk: boundJoinChunk}
	c.m = newMetrics(cfg.Registry,
		func() float64 { return float64(len(c.currentView().groups)) },
		func() float64 {
			n := 0
			for _, g := range c.currentView().groups {
				n += len(g.replicas)
			}
			return float64(n)
		})
	c.cache = newPlanCache(planCacheSize, c.m)
	return c
}

// planFor resolves a query text to its plan, consulting the cache
// first. Plans are pure functions of the text, so a hit skips parse,
// classification, rewrite, and rendering the shard text entirely.
// Parse failures are not cached: the caller turns them into permanent
// errors and malformed text should not occupy capacity.
func (c *Coordinator) planFor(text string) (queryPlan, error) {
	if p, ok := c.cache.get(text); ok {
		return p, nil
	}
	q, err := sparql.Parse(text)
	if err != nil {
		return queryPlan{}, err
	}
	p := classify(q)
	c.cache.put(text, p)
	return p, nil
}

// currentView is the nil-tolerant view read (metrics gauge callbacks
// can fire between construction steps).
func (c *Coordinator) currentView() *view {
	if v := c.view.Load(); v != nil {
		return v
	}
	return &view{}
}

// newReplica wraps one client as a replica: resilient wrapping on
// the query path (unless disabled or already resilient), the raw
// client on the probe path, fresh health state, and metric handles.
func (c *Coordinator) newReplica(shard, index int, b endpoint.Client) *replica {
	r := &replica{
		shard:  shard,
		index:  index,
		raw:    b,
		client: b,
		health: newHealthState(),
	}
	if !c.cfg.NoResilience {
		if _, ok := b.(*endpoint.ResilientClient); !ok {
			pol := endpoint.DefaultPolicy()
			if c.cfg.Policy != nil {
				pol = *c.cfg.Policy
			}
			r.client = endpoint.NewResilient(b, endpoint.WithPolicy(pol))
		}
	}
	c.m.wireReplica(r)
	return r
}

// buildView materializes checked groups as the view after old (nil at
// construction). A client that shard i already had in old keeps its
// replica — client, breaker, and health history carry over, so a
// reload that only adds a replica does not reset anyone else's state.
// Nothing old holds is modified: in-flight queries may still read it.
func (c *Coordinator) buildView(groups [][]endpoint.Client, old *view) *view {
	nv := &view{groups: make([]*replicaSet, len(groups))}
	var kept [][]*replica // per shard, old's replicas not yet reused
	var published []*obs.Gauge
	if old != nil {
		nv.epoch = old.epoch + 1
		for _, g := range old.groups {
			kept = append(kept, slices.Clone(g.replicas))
			for _, r := range g.replicas {
				published = append(published, r.mUp)
			}
		}
	}
	for i, clients := range groups {
		set := &replicaSet{shard: i}
		c.m.wireShard(set)
		for j, b := range clients {
			var r *replica
			if i < len(kept) {
				if k := slices.IndexFunc(kept[i], func(r *replica) bool { return sameClient(r.raw, b) }); k >= 0 {
					r = kept[i][k]
					kept[i] = slices.Delete(kept[i], k, k+1)
				}
			}
			switch {
			case r == nil:
				r = c.newReplica(i, j, b)
			case r.index != j:
				// Same client, new slot: a replica under the new index,
				// with that slot's series, sharing the client, breaker
				// and health state.
				moved := &replica{shard: i, index: j, client: r.client, raw: r.raw, health: r.health}
				moved.lastGen.Store(r.lastGen.Load())
				c.m.wireReplica(moved)
				r = moved
			}
			set.replicas = append(set.replicas, r)
		}
		nv.groups[i] = set
	}
	// Zero every up gauge the old view published, then publish the new
	// view's: a slot no replica holds any more reads 0 instead of
	// advertising a healthy slot that no longer exists (the registry
	// cannot unregister), and a slot a new or moved replica took over
	// reads that replica's state.
	for _, g := range published {
		g.Set(0)
	}
	for _, g := range nv.groups {
		for _, r := range g.replicas {
			r.publishUp()
		}
	}
	return nv
}

// sameClient reports whether a and b are one client value. Clients of
// a type that cannot be compared (a struct holding a func) are never
// the same, so a reload builds fresh replicas for them.
func sameClient(a, b endpoint.Client) bool {
	return reflect.ValueOf(a).Comparable() && reflect.ValueOf(b).Comparable() && a == b
}

// Reload swaps in new replica groups, in the shape NewReplicated
// takes, and atomically replaces the serving view. A client that
// shard i already had keeps its replica's breaker, health state, and
// metric series, so callers pass the same client value back for every
// replica they keep. In-flight queries keep the view they started
// with and drain on it. Returns whether anything changed: the same
// clients in the same slots are a no-op.
func (c *Coordinator) Reload(groups [][]endpoint.Client) (bool, error) {
	if err := checkGroups(groups); err != nil {
		return false, err
	}
	c.reloadMu.Lock()
	defer c.reloadMu.Unlock()
	old := c.view.Load()
	if slices.EqualFunc(old.groups, groups, func(g *replicaSet, clients []endpoint.Client) bool {
		return slices.EqualFunc(g.replicas, clients, func(r *replica, b endpoint.Client) bool { return sameClient(r.raw, b) })
	}) {
		return false, nil
	}
	nv := c.buildView(groups, old)
	c.view.Store(nv)
	c.m.reloaded(nv.epoch)
	return true, nil
}

// startProber launches the background health prober when configured.
func (c *Coordinator) startProber() {
	if c.cfg.Health.Interval <= 0 {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.probeCancel = cancel
	c.probeDone = make(chan struct{})
	go c.probeLoop(ctx)
}

// Close stops the background prober (if any) and waits for it. The
// coordinator remains usable for queries afterwards; health states
// freeze at their last probed value.
func (c *Coordinator) Close() {
	if c.probeCancel != nil {
		c.probeCancel()
		<-c.probeDone
		c.probeCancel = nil
	}
}

// Generation implements endpoint.GenerationSource with a composed
// token over the current view: an FNV-1a hash folding the view's
// reload epoch and every replica's generation (a live store read for
// in-process backends, the last query-reported value for remote
// ones). It is a hash, not a counter — per-replica counters are not
// comparable across failover — so the contract is "equal tokens ⇒
// same data version for cache purposes": any shard mutation, applied
// reload, or replica switch changes the token and invalidates cached
// answers. A spurious change only costs a cache miss.
func (c *Coordinator) Generation() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	v := c.currentView()
	mix(uint64(v.epoch))
	for _, g := range v.groups {
		for _, r := range g.replicas {
			mix(r.generation())
		}
	}
	if h == 0 {
		h = offset64 // zero means "no generation" at the endpoint layer
	}
	return h
}

// Shards returns the current shard count.
func (c *Coordinator) Shards() int { return len(c.currentView().groups) }

// Replicas returns the current replica count per shard.
func (c *Coordinator) Replicas() []int {
	v := c.currentView()
	out := make([]int, len(v.groups))
	for i, g := range v.groups {
		out[i] = len(g.replicas)
	}
	return out
}

// workersFor bounds scatter concurrency for an n-shard view.
func (c *Coordinator) workersFor(n int) int {
	if c.cfg.Workers > 0 {
		return c.cfg.Workers
	}
	return n
}

// Query implements endpoint.Client as a thin adapter over QueryX.
func (c *Coordinator) Query(ctx context.Context, query string) (*sparql.Results, error) {
	res, _, err := c.QueryX(ctx, endpoint.Request{Query: query})
	return res, err
}

// QueryX implements endpoint.QuerierX: it classifies the query,
// scatters it (or its rewritten form) to the shards — each call
// routed to the shard's first healthy replica with failover — merges,
// and reports coordinator metadata. Meta.Incomplete is set when a
// degraded-mode answer skipped failed shards, with the indices in
// Meta.SkippedShards.
func (c *Coordinator) QueryX(ctx context.Context, req endpoint.Request) (*sparql.Results, endpoint.QueryMeta, error) {
	meta := endpoint.QueryMeta{Source: "coordinator", Step: req.Opts.Step}
	start := time.Now()
	p, err := c.planFor(req.Query)
	if err != nil {
		meta.Wall = time.Since(start)
		return nil, meta, endpoint.MarkPermanent(err)
	}
	c.m.plans[p.kind].Inc()
	meta.Plan = p.kind.String()

	// Read the composed generation BEFORE executing: a mutation landing
	// mid-query then caches the answer under the pre-mutation token,
	// which the next lookup's newer token invalidates — never the
	// reverse (a fresh token on stale data).
	meta.Generation = c.Generation()

	// One view per query: everything below runs against this topology
	// generation even if a Reload lands mid-flight.
	v := c.currentView()

	parent := req.Opts.Span
	if parent == nil {
		parent = obs.SpanFrom(ctx)
	}
	span := parent.Start("scatter-gather")
	span.SetAttr("plan", p.kind.String())
	span.SetAttr("shards", fmt.Sprint(len(v.groups)))
	if req.Opts.Step != "" {
		span.SetAttr("step", req.Opts.Step)
	}
	defer span.End()
	if span != nil {
		ctx = obs.ContextWith(ctx, span)
	}

	var res *sparql.Results
	var calls []obs.ShardCall
	var skipped []int
	switch p.kind {
	case planColocated:
		res, calls, skipped, err = c.runColocated(ctx, v, p, req.Opts.Step)
	case planPartialAgg:
		res, calls, skipped, err = c.runPartialAgg(ctx, v, p, req.Opts.Step)
	case planBoundJoin:
		res, calls, skipped, err = c.runBoundJoin(ctx, v, p.bound, req.Opts.Step)
	default:
		res, calls, skipped, err = c.runGather(ctx, v, p.query, req.Opts.Step)
	}
	meta.Shards = calls
	meta.Wall = time.Since(start)
	if res != nil {
		meta.Rows = res.Len()
	}
	meta.Incomplete = len(skipped) > 0
	meta.SkippedShards = skipped
	if meta.Incomplete {
		span.SetAttr("incomplete", "true")
		span.SetAttr("skipped_shards", fmt.Sprint(skipped))
	}
	return res, meta, err
}

// scatter runs one round of a plan: every query goes to every shard
// of the view that has not failed yet (errs[i] == nil), each call
// through the shard's replica set, so failover and hedging apply to it.
// workersFor(n) shards are in flight at once, and a shard sends its
// queries together, workersFor(len(queries)) at a time: a remote shard
// costs its slowest query, not the sum of them. A shard's answers to a
// round count all or none: only when every one of its queries
// succeeded does use(i, answers) get them, in query order; a failure,
// of a query or of use, lands in errs[i] and drops the shard from
// later rounds. use may run for different shards at once. calls[i]
// folds shard i's calls in by the rule obs.ShardCall documents, and
// each shard gets one shard-<i> span per round.
func (c *Coordinator) scatter(ctx context.Context, v *view, step string, queries []string, calls []obs.ShardCall, errs []error, use func(i int, answers []*sparql.Results) error) {
	roundStart := time.Now()
	defer func() { c.m.mergePhase["scatter"].ObserveDuration(time.Since(roundStart)) }()
	span := obs.SpanFrom(ctx)
	n := len(v.groups)
	_ = par.Do(c.workersFor(n), n, func(i int) error {
		if errs[i] != nil {
			return nil
		}
		g := v.groups[i]
		sp := span.Start(fmt.Sprintf("shard-%d", i))
		defer sp.End()
		shardStart := time.Now()
		outs := make([]groupResult, len(queries))
		_ = par.Do(c.workersFor(len(queries)), len(queries), func(k int) error {
			c.m.inflight.Inc()
			callStart := time.Now()
			outs[k] = g.query(ctx, endpoint.Request{
				Query: queries[k],
				Opts:  endpoint.QueryOpts{Step: step, Span: sp},
			}, c.cfg.HedgeAfter)
			c.m.inflight.Dec()
			g.shardCallMetrics(time.Since(callStart), outs[k].err)
			return nil
		})
		call := &calls[i]
		call.Shard = i
		call.WallMS += float64(time.Since(shardStart)) / float64(time.Millisecond)
		answers := make([]*sparql.Results, len(outs))
		rows := 0
		for k, out := range outs {
			call.Attempts += out.attempts
			call.Retries += out.retries
			call.Failovers += out.failovers
			call.Replica = out.replica
			if out.err != nil && errs[i] == nil {
				errs[i] = out.err
			}
			if out.res != nil {
				answers[k] = out.res
				rows += out.res.Len()
			}
		}
		if errs[i] == nil {
			errs[i] = use(i, answers)
		}
		sp.SetAttr("replica", fmt.Sprint(call.Replica))
		if errs[i] != nil {
			call.Error = errs[i].Error()
			sp.SetAttr("error", call.Error)
			return nil
		}
		call.Rows += rows
		sp.SetAttr("rows", fmt.Sprint(rows))
		return nil
	})
}

// verdict is the coordinator's one strict/degraded rule over the shard
// failures so far: strict mode fails on the first failure by shard
// index, degraded mode only when every shard has failed.
func (c *Coordinator) verdict(errs []error) error {
	failed := 0
	var first error
	for i, err := range errs {
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	if failed > 0 && (!c.cfg.Degraded || failed == len(errs)) {
		return first
	}
	return nil
}

// settle closes a query's scatter: it marks every failed shard
// Skipped, applies the verdict, and when the answer may stand without
// the failed shards counts it as degraded and returns their indices.
func (c *Coordinator) settle(calls []obs.ShardCall, errs []error) ([]int, error) {
	var skipped []int
	for i, err := range errs {
		if err != nil {
			skipped = append(skipped, i)
			calls[i].Skipped = true
		}
	}
	if err := c.verdict(errs); err != nil {
		return nil, err
	}
	if len(skipped) > 0 {
		c.m.degraded(len(skipped))
	}
	return skipped, nil
}

// scatterText sends one query text to every shard in one round.
// results[i] is shard i's answer, nil for a shard skipped in degraded
// mode (it is then listed in skipped).
func (c *Coordinator) scatterText(ctx context.Context, v *view, query, step string) (results []*sparql.Results, calls []obs.ShardCall, skipped []int, err error) {
	n := len(v.groups)
	results = make([]*sparql.Results, n)
	calls = make([]obs.ShardCall, n)
	errs := make([]error, n)
	c.scatter(ctx, v, step, []string{query}, calls, errs, func(i int, answers []*sparql.Results) error {
		results[i] = answers[0]
		return nil
	})
	skipped, err = c.settle(calls, errs)
	return results, calls, skipped, err
}

// runColocated executes the colocated plan: scatter the query with
// its solution modifiers stripped (they only apply to the global
// result), union the rows, and canonically finalize.
func (c *Coordinator) runColocated(ctx context.Context, v *view, p queryPlan, step string) (*sparql.Results, []obs.ShardCall, []int, error) {
	q := p.query
	if q.Ask {
		return c.runAsk(ctx, v, p.shardText, step)
	}
	results, calls, skipped, err := c.scatterText(ctx, v, p.shardText, step)
	if err != nil {
		return nil, calls, nil, err
	}
	mergeStart := time.Now()
	merged, err := unionResults(q, results)
	c.m.mergePhase["merge"].ObserveDuration(time.Since(mergeStart))
	if err != nil {
		return nil, calls, nil, err
	}
	finStart := time.Now()
	sparql.MergeFinalize(q, merged)
	c.m.mergePhase["finalize"].ObserveDuration(time.Since(finStart))
	return merged, calls, skipped, nil
}

// runAsk scatters a colocated ASK and ORs the shard booleans.
func (c *Coordinator) runAsk(ctx context.Context, v *view, text, step string) (*sparql.Results, []obs.ShardCall, []int, error) {
	results, calls, skipped, err := c.scatterText(ctx, v, text, step)
	if err != nil {
		return nil, calls, nil, err
	}
	res := &sparql.Results{IsAsk: true}
	for _, r := range results {
		if r != nil && r.Boolean {
			res.Boolean = true
			break
		}
	}
	return res, calls, skipped, nil
}

// runPartialAgg pushes partial aggregation to the shards and
// finalizes groups at the coordinator.
func (c *Coordinator) runPartialAgg(ctx context.Context, v *view, p queryPlan, step string) (*sparql.Results, []obs.ShardCall, []int, error) {
	results, calls, skipped, err := c.scatterText(ctx, v, p.shardText, step)
	if err != nil {
		return nil, calls, nil, err
	}
	// Merge finishes too: the ORDER BY keys read the merged groups.
	mergeStart := time.Now()
	merged, err := p.agg.Merge(results)
	c.m.mergePhase["merge"].ObserveDuration(time.Since(mergeStart))
	if err != nil {
		return nil, calls, nil, err
	}
	return merged, calls, skipped, nil
}

// stripModifiers copies q without ORDER BY / LIMIT / OFFSET: those
// apply to the merged global result only. DISTINCT is kept — per-shard
// dedup is idempotent under the coordinator's re-dedup and cuts
// transfer. ORDER BY and LIMIT are deliberately NOT pushed down: a
// shard-local top-k under the engine's stable sort may cut ties
// differently than the coordinator's canonical order, making the
// answer depend on the topology.
func stripModifiers(q *sparql.Query) *sparql.Query {
	s := *q
	s.OrderBy = nil
	s.Limit = -1
	s.Offset = 0
	return &s
}
