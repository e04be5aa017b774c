package endpoint

import (
	"net/http"
	"time"

	"re2xolap/internal/obs"
)

// Option configures a client or server at construction time. One
// option vocabulary covers all constructors (NewInProcess,
// NewHTTPClient, NewResilient, NewServer, NewClientServer); each
// constructor applies the options it understands and ignores the rest,
// so a deployment can thread the same observability options through
// every layer:
//
//	reg := obs.NewRegistry()
//	slow := obs.NewSlowLog(os.Stderr, 500*time.Millisecond)
//	c := endpoint.NewResilient(
//	        endpoint.NewHTTPClient(url, endpoint.WithTimeout(time.Minute),
//	                endpoint.WithRegistry(reg), endpoint.WithSlowQueryLog(slow)),
//	        endpoint.WithPolicy(policy), endpoint.WithRegistry(reg))
//
// Options replace the old post-construction field pokes. The one
// shadow field left is HTTPClient.HTTP (WithHTTPClient/WithTimeout),
// exported for compatibility and deprecated.
type Option func(*options)

// options is the merged settings bag the constructors read.
type options struct {
	timeout      time.Duration
	httpClient   *http.Client
	policy       *Policy
	registry     *obs.Registry
	slow         *obs.SlowLog
	workers      *int
	traceSink    *obs.OTLPSink
	queryLog     *obs.QueryRing
	ready        func() error
	tenantHeader string
	routes       []extraRoute
}

// extraRoute is one caller-supplied handler Routes mounts alongside
// the built-in endpoints.
type extraRoute struct {
	pattern string
	handler http.Handler
}

// applyOptions folds opts into a settings bag.
func applyOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithTimeout bounds one HTTP request end to end (HTTPClient; default
// 15 minutes). Resilient per-query deadlines belong in WithPolicy.
func WithTimeout(d time.Duration) Option {
	return func(o *options) { o.timeout = d }
}

// WithHTTPClient replaces the underlying *http.Client (HTTPClient),
// overriding WithTimeout.
func WithHTTPClient(c *http.Client) Option {
	return func(o *options) { o.httpClient = c }
}

// WithPolicy sets the resilience policy (NewResilient; default
// DefaultPolicy).
func WithPolicy(p Policy) Option {
	return func(o *options) { o.policy = &p }
}

// WithRegistry publishes the component's metrics (query counts,
// latency histograms, error-taxonomy counters, retry/breaker
// counters, pool gauges) into reg. Without it, metrics are off and
// the query path pays only nil checks.
func WithRegistry(r *obs.Registry) Option {
	return func(o *options) { o.registry = r }
}

// WithSlowQueryLog records queries at or above the log's threshold,
// with their phase breakdown where available.
func WithSlowQueryLog(l *obs.SlowLog) Option {
	return func(o *options) { o.slow = l }
}

// WithWorkers sets the executor's per-query worker count (NewServer,
// NewInProcess): 0 means GOMAXPROCS, 1 the sequential baseline.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = &n }
}

// WithTraceExport turns on per-request tracing in the server: each
// /sparql request runs under a fresh trace whose span tree is
// exported to the sink (OTLP/JSON lines) when the request completes.
// A request carrying a W3C traceparent header continues the caller's
// trace instead of starting a fresh one.
func WithTraceExport(s *obs.OTLPSink) Option {
	return func(o *options) { o.traceSink = s }
}

// WithReadiness makes /healthz (and /readyz) a readiness probe
// (NewServer, NewClientServer): while fn returns a non-nil error the
// endpoint answers 503 with a JSON body naming the reason, so load
// balancers and shard health probers route around a process that is
// alive but not yet able to answer — still loading its store, or a
// coordinator with an entirely-down shard. Liveness stays on /livez,
// which is 200 for as long as the process serves HTTP at all.
func WithReadiness(fn func() error) Option {
	return func(o *options) { o.ready = fn }
}

// WithTenantHeader names the request header whose value becomes the
// admission-control tenant identity (NewClientServer): the server
// copies it into the request context via ContextWithTenant before
// delegating to the client, so a serve stack with per-tenant limits
// partitions load by caller. Requests without the header fall into the
// default tenant bucket.
func WithTenantHeader(name string) Option {
	return func(o *options) { o.tenantHeader = name }
}

// WithRoute mounts handler at pattern on the mux Routes builds, next
// to the built-in operational endpoints — how a deployment exposes
// federation and SLO views (/metrics/fleet, /debug/slo, /fleet)
// without owning the mux. Patterns must not collide with the built-in
// routes (/sparql, /metrics, /livez, /healthz, /readyz) or each
// other; http.ServeMux panics on duplicates. nil handlers are
// ignored.
func WithRoute(pattern string, handler http.Handler) Option {
	return func(o *options) {
		if handler != nil {
			o.routes = append(o.routes, extraRoute{pattern: pattern, handler: handler})
		}
	}
}

// WithQueryLog records every served query's profile summary (wall
// time, rows, phase breakdown, federation plan and per-shard
// accounting) into the ring, and makes Routes expose it as
// /debug/queries (last-N, JSON, newest-first).
func WithQueryLog(r *obs.QueryRing) Option {
	return func(o *options) { o.queryLog = r }
}
