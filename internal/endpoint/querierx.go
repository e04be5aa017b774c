package endpoint

import (
	"context"
	"errors"
	"time"

	"re2xolap/internal/obs"
	"re2xolap/internal/sparql"
)

// Request is the extended protocol-boundary input: the query text
// plus per-query options. It exists so new per-query knobs never
// change the QuerierX signature again.
type Request struct {
	Query string
	Opts  QueryOpts
}

// QueryOpts carries per-query options across the protocol boundary.
type QueryOpts struct {
	// Step tags the query with the synthesis/refinement step that
	// issued it ("keyword-search", "witness", "refine:topk", ...), so
	// traces and the slow-query log explain *why* a query ran.
	Step string
	// Span, when non-nil, overrides the trace span from the context as
	// the parent for this query's spans.
	Span *obs.Span
}

// QueryMeta is the per-query execution metadata QuerierX reports
// alongside the results.
type QueryMeta struct {
	// Source identifies the executing client: "inprocess", "http",
	// "resilient", "fault".
	Source string
	// Step echoes the issuing-step tag from the request.
	Step string
	// Wall is the end-to-end time this client spent on the query,
	// including (for the resilient client) backoff and retries.
	Wall time.Duration
	// Phases is the engine-side phase breakdown; only the in-process
	// client can fill it (a remote endpoint does not report one).
	Phases sparql.PhaseTimings
	// HasPhases reports whether Phases is meaningful.
	HasPhases bool
	// Rows is the result row count.
	Rows int
	// Attempts is how many requests were issued (resilient client);
	// Retries is Attempts beyond the first.
	Attempts int
	Retries  int
	// Incomplete reports that the results cover only part of the data:
	// a degraded-mode scatter-gather coordinator answered without one
	// or more failed shards. Complete single-backend clients never set
	// it.
	Incomplete bool
	// SkippedShards names the shard indices an incomplete answer was
	// served without, so callers see *which* partitions are missing,
	// not just that one is. Empty when Incomplete is false.
	SkippedShards []int
	// Plan is the federation plan class (colocated, partial_agg,
	// bound_join, or gather) when a shard coordinator executed the
	// query; empty otherwise.
	Plan string
	// Shards is the per-shard accounting (rows, wall time,
	// attempts/retries) a coordinator reports for federated queries.
	Shards []obs.ShardCall
	// Generation is the data-version token of the store(s) that
	// answered: the store's mutation counter for a single backend, a
	// composed token for a shard coordinator. Zero when the executing
	// client does not report one. The serve-layer result cache keys on
	// it so mutations invalidate cached answers.
	Generation uint64
	// CacheHit reports that the serve layer answered from its result
	// cache without executing the query.
	CacheHit bool
	// Coalesced reports that this request was deduplicated onto a
	// concurrent identical in-flight execution (single-flight) and
	// shares that execution's results.
	Coalesced bool
	// QueueWait is the time the request spent queued in admission
	// control before executing, so a slow query that waited is
	// distinguishable from one that was slow to join.
	QueueWait time.Duration
}

// QuerierX is the extension interface of the protocol boundary: a
// Client that also reports per-query execution metadata. All four
// package clients (InProcess, HTTPClient, ResilientClient,
// FaultClient) implement it; Client.Query remains the compatible thin
// adapter. Callers that need metadata use the package-level QueryX
// helper, which degrades gracefully for foreign Client
// implementations.
type QuerierX interface {
	Client
	QueryX(ctx context.Context, req Request) (*sparql.Results, QueryMeta, error)
}

// QueryX routes req through c, using the QuerierX fast path when c
// implements it and falling back to wall-clock-only metadata around
// plain Client.Query otherwise.
func QueryX(ctx context.Context, c Client, req Request) (*sparql.Results, QueryMeta, error) {
	if qx, ok := c.(QuerierX); ok {
		return qx.QueryX(ctx, req)
	}
	start := time.Now()
	res, err := c.Query(ctx, req.Query)
	meta := QueryMeta{Source: "client", Step: req.Opts.Step, Wall: time.Since(start)}
	if res != nil {
		meta.Rows = res.Len()
	}
	return res, meta, err
}

// QueryStep is the one-liner for tagged queries that do not need the
// metadata: it threads the step tag (and the ambient trace span)
// through QueryX and returns just results and error.
func QueryStep(ctx context.Context, c Client, step, query string) (*sparql.Results, error) {
	res, _, err := QueryX(ctx, c, Request{Query: query, Opts: QueryOpts{Step: step}})
	return res, err
}

// errorKinds is the label vocabulary of the error-taxonomy counters.
var errorKinds = [...]string{"retryable", "permanent", "timeout", "circuit_open", "canceled", "other"}

// errorKind maps an error to its taxonomy label.
func errorKind(err error) string {
	switch {
	case errors.Is(err, ErrCircuitOpen):
		return "circuit_open"
	case errors.Is(err, ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, ErrRetryable):
		return "retryable"
	case errors.Is(err, ErrPermanent):
		return "permanent"
	default:
		return "other"
	}
}

// clientMetrics is the per-client registry series, pre-created at
// construction so the query path is a few atomic adds. Without a
// registry the handles are nil and no-op.
type clientMetrics struct {
	queries *obs.Counter
	latency *obs.Histogram
	errors  map[string]*obs.Counter // by taxonomy kind
}

// newClientMetrics registers the standard client series under the
// given client label.
func newClientMetrics(reg *obs.Registry, client string) clientMetrics {
	m := clientMetrics{
		queries: reg.Counter("re2xolap_endpoint_queries_total",
			"Queries issued through the protocol boundary.", obs.L("client", client)),
		latency: reg.Histogram("re2xolap_endpoint_query_seconds",
			"End-to-end query latency at the protocol boundary.", nil, obs.L("client", client)),
		errors: make(map[string]*obs.Counter, len(errorKinds)),
	}
	for _, kind := range errorKinds {
		m.errors[kind] = reg.Counter("re2xolap_endpoint_query_errors_total",
			"Query failures by error-taxonomy kind.", obs.L("client", client), obs.L("kind", kind))
	}
	return m
}

// record publishes one query outcome.
func (m clientMetrics) record(wall time.Duration, err error) {
	m.queries.Inc()
	m.latency.ObserveDuration(wall)
	if err != nil {
		m.errors[errorKind(err)].Inc()
	}
}

// recordQuery feeds one finished query to the sinks that take it: the
// slow-query log when meta.Wall meets its threshold, the
// /debug/queries ring when one is attached. The record is built only
// then, so a query path without sinks pays two nil checks. ser is the
// serialization time the HTTP server adds to the engine phases (zero
// for clients). Both sinks are nil-safe.
func recordQuery(slow *obs.SlowLog, ring *obs.QueryRing, query string, meta QueryMeta, ser time.Duration, err error) {
	toSlow := slow.Slow(meta.Wall)
	if !toSlow && ring == nil {
		return
	}
	var phases map[string]float64
	add := func(name string, d time.Duration) {
		if d > 0 {
			if phases == nil {
				phases = make(map[string]float64, 6)
			}
			phases[name] = ms(d)
		}
	}
	if meta.HasPhases {
		meta.Phases.Each(add)
	}
	add("serialize", ser)
	rec := obs.QueryRecord{
		Source:        meta.Source,
		Step:          meta.Step,
		WallMS:        ms(meta.Wall),
		PhaseMS:       phases,
		Rows:          meta.Rows,
		Retries:       meta.Retries,
		Plan:          meta.Plan,
		Shards:        meta.Shards,
		Incomplete:    meta.Incomplete,
		SkippedShards: meta.SkippedShards,
		CacheHit:      meta.CacheHit,
		Coalesced:     meta.Coalesced,
		QueueWaitMS:   ms(meta.QueueWait),
		Query:         query,
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if toSlow {
		slow.Record(rec)
	}
	ring.Record(rec)
}

// ms converts a duration to the records' fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// querySpan opens the per-query trace span: the explicit span from
// the request wins, the ambient context span otherwise. Returns the
// (possibly re-derived) context and the span to end, both untouched
// when tracing is off.
func querySpan(ctx context.Context, req Request, name string) (context.Context, *obs.Span) {
	parent := req.Opts.Span
	if parent == nil {
		parent = obs.SpanFrom(ctx)
	}
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Start(name)
	if req.Opts.Step != "" {
		sp.SetAttr("step", req.Opts.Step)
	}
	return obs.ContextWith(ctx, sp), sp
}
