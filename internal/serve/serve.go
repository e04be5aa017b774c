// Package serve is the serving stack: a wrapper around any
// endpoint.Client that adds a bounded result cache, single-flight
// deduplication of concurrent identical queries, and per-tenant
// admission control. It sits between the protocol boundary
// (endpoint.Server) and whatever executes queries — a local engine, a
// resilient remote client, or a shard coordinator — and guarantees
// that every answer it serves is byte-identical to what the wrapped
// client would have returned.
//
// The cache key is the canonical query text (parse → print, so
// whitespace and formatting variants share an entry) scoped by the
// backing data's generation token. Mutations advance the generation,
// which orphans all entries cached under the old one — invalidation
// is a key change, not a scan. Stale entries age out of the LRU.
package serve

import (
	"context"
	"sync/atomic"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/lru"
	"re2xolap/internal/obs"
	"re2xolap/internal/sparql"
)

// canonMemoSize bounds the canonical-text memo (query text → parsed
// canonical form). It is a parse-cost optimization, not a correctness
// structure, so the bound is fixed rather than configurable.
const canonMemoSize = 4096

// config is the merged options bag.
type config struct {
	cacheSize int
	admission *AdmissionConfig
	reg       *obs.Registry
}

// Option configures a Stack.
type Option func(*config)

// WithResultCache enables the result cache with room for n answers
// (n <= 0 leaves it disabled).
func WithResultCache(n int) Option {
	return func(c *config) { c.cacheSize = n }
}

// WithAdmission enables per-tenant admission control.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(c *config) { c.admission = &cfg }
}

// WithRegistry exports the serve metrics (cache hit/miss/evict,
// coalesce, executions, queue depth and wait, sheds) through reg.
func WithRegistry(reg *obs.Registry) Option {
	return func(c *config) { c.reg = reg }
}

// Stack wraps an inner client in the serving pipeline:
//
//	canonicalize → cache lookup → single-flight → admission → inner
//
// Queries that do not parse as SPARQL — EXPLAIN ANALYZE among them —
// bypass cache and deduplication (a profile needs a real execution, a
// bad query the inner client's real error) but still pass admission.
// Stack implements endpoint.QuerierX; cache hits and coalesced answers
// are flagged in QueryMeta (CacheHit, Coalesced) so they are visible in
// the slow log, the /debug/queries ring, and HTTP response headers.
type Stack struct {
	inner  endpoint.Client
	cache  *lru.Cache[*cachedAnswer] // nil = cache disabled
	canon  *lru.Cache[string]        // query text → canonical form ("" memoizes a parse failure)
	flight lru.Flights[*cachedAnswer]
	adm    *admission // nil = admission disabled
	m      *metrics
	// lastGen is the generation fallback for inner clients that report
	// one in query metadata but cannot be asked directly (remote HTTP
	// backends): the stack tracks the latest observed token.
	lastGen atomic.Uint64
}

// New wraps inner in a serving stack. With no options the stack is a
// pass-through plus single-flight deduplication.
func New(inner endpoint.Client, opts ...Option) *Stack {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Stack{
		inner: inner,
		canon: lru.New[string](canonMemoSize),
		m:     newMetrics(cfg.reg),
	}
	if cfg.cacheSize > 0 {
		s.cache = lru.New[*cachedAnswer](cfg.cacheSize)
		cfg.reg.GaugeFunc("re2xolap_result_cache_entries",
			"Result-cache occupancy.", func() float64 { return float64(s.cache.Len()) })
	}
	if cfg.admission != nil {
		s.adm = newAdmission(*cfg.admission, s.m)
		cfg.reg.GaugeFunc("re2xolap_serve_queue_depth",
			"Requests queued in admission control across tenants.",
			func() float64 { return float64(s.adm.queueDepth()) })
	}
	return s
}

// Unwrap exposes the wrapped client (endpoint.Unwrapper), so
// generation and capability probes see through the stack.
func (s *Stack) Unwrap() endpoint.Client { return s.inner }

// Query implements endpoint.Client.
func (s *Stack) Query(ctx context.Context, query string) (*sparql.Results, error) {
	res, _, err := s.QueryX(ctx, endpoint.Request{Query: query})
	return res, err
}

// QueryX implements endpoint.QuerierX: the full serving pipeline.
func (s *Stack) QueryX(ctx context.Context, req endpoint.Request) (*sparql.Results, endpoint.QueryMeta, error) {
	start := time.Now()

	// Unparseable queries, EXPLAIN ANALYZE among them, need a real
	// execution: they bypass cache and dedup but not admission.
	canonical, ok := s.canonical(req.Query)
	if !ok {
		return s.execute(ctx, req)
	}

	key := cacheKey(canonical, s.generation())
	if s.cache != nil {
		if ans, hit := s.cache.Get(key); hit {
			s.m.cacheHits.Inc()
			meta := s.derivedMeta(ans.meta, req, start)
			meta.CacheHit = true
			return ans.res, meta, nil
		}
		s.m.cacheMisses.Inc()
	}

	ans, led, err := s.flight.Do(ctx, key, func() (*cachedAnswer, error) {
		r, m, e := s.execute(ctx, req)
		a := &cachedAnswer{res: r, meta: m}
		s.store(key, a, e)
		return a, e
	})
	var res *sparql.Results
	var meta endpoint.QueryMeta
	if ans != nil { // nil for a duplicate that stopped waiting
		res, meta = ans.res, ans.meta
	}
	if !led {
		s.m.coalesced.Inc()
		meta = s.derivedMeta(meta, req, start)
		meta.Coalesced = true
	}
	return res, meta, err
}

// execute is the non-shared tail of the pipeline: admission, then the
// inner client. Every path that reaches the inner client goes through
// here.
func (s *Stack) execute(ctx context.Context, req endpoint.Request) (*sparql.Results, endpoint.QueryMeta, error) {
	var queueWait time.Duration
	if s.adm != nil {
		release, wait, err := s.adm.acquire(ctx)
		if err != nil {
			return nil, endpoint.QueryMeta{Source: "serve", Step: req.Opts.Step, Wall: wait, QueueWait: wait}, err
		}
		queueWait = wait
		defer release()
	}
	s.m.executions.Inc()
	res, meta, err := endpoint.QueryX(ctx, s.inner, req)
	meta.QueueWait = queueWait
	meta.Wall += queueWait
	if meta.Generation != 0 {
		s.lastGen.Store(meta.Generation)
	}
	return res, meta, err
}

// derivedMeta adapts an execution's metadata to a request that did not
// execute (cache hit or coalesced duplicate): the engine-side fields
// describe the shared execution, while wall time, queue wait, and the
// step tag are this request's own.
func (s *Stack) derivedMeta(from endpoint.QueryMeta, req endpoint.Request, start time.Time) endpoint.QueryMeta {
	meta := from
	meta.Step = req.Opts.Step
	meta.Wall = time.Since(start)
	meta.QueueWait = 0
	meta.CacheHit = false
	meta.Coalesced = false
	return meta
}

// canonical parses query and prints it back in canonical form,
// memoized. ok=false means the query does not parse here (the memo
// remembers failures too, as ""); the caller falls through to the
// inner client for the authoritative error.
func (s *Stack) canonical(query string) (string, bool) {
	if c, ok := s.canon.Get(query); ok {
		return c, c != ""
	}
	q, err := sparql.Parse(query)
	if err != nil {
		s.canon.Put(query, "")
		return "", false
	}
	c := q.String()
	s.canon.Put(query, c)
	return c, true
}

// generation returns the current data-version token: a live probe of
// the inner client chain if it exposes one, else the last token observed in query metadata (zero
// until the first answer — all pre-first-answer requests share the
// zero-generation key space, which is safe because the first observed
// token moves every later request off it).
func (s *Stack) generation() uint64 {
	if g, ok := endpoint.GenerationOf(s.inner); ok {
		return g
	}
	return s.lastGen.Load()
}

// StackStats is a point-in-time summary of the stack.
// Counter fields are zero when the stack was built without a registry
// (they live in the metrics series); QueueDepth, CacheEntries, and
// Sheds are tracked by the stack itself and always live.
type StackStats struct {
	CacheEntries int64
	CacheHits    int64
	CacheMisses  int64
	Coalesced    int64
	Executions   int64
	QueueDepth   int64
	Sheds        int64
}

// Stats samples the stack's current counters.
func (s *Stack) Stats() StackStats {
	var st StackStats
	if s.cache != nil {
		st.CacheEntries = int64(s.cache.Len())
	}
	st.CacheHits = s.m.cacheHits.Value()
	st.CacheMisses = s.m.cacheMisses.Value()
	st.Coalesced = s.m.coalesced.Value()
	st.Executions = s.m.executions.Value()
	if s.adm != nil {
		st.QueueDepth = s.adm.queueDepth()
		st.Sheds = s.adm.sheds.Load()
	}
	return st
}

// store caches a completed execution. Errors, nil results, and
// incomplete (degraded-mode) answers are never cached — a cache must
// not pin a partial answer past the moment the failed shard recovers.
func (s *Stack) store(key string, ans *cachedAnswer, err error) {
	if s.cache == nil || err != nil || ans.res == nil || ans.meta.Incomplete {
		return
	}
	s.m.cacheEvictions.Add(int64(s.cache.Put(key, ans)))
}
