package endpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"re2xolap/internal/obs"
	"re2xolap/internal/par"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// Server is an http.Handler implementing the SPARQL 1.1 protocol query
// operation over a Client: GET with ?query=, POST with a form body, or
// POST with an application/sparql-query body, returning
// application/sparql-results+json by default. Every request is one
// QueryX call on the client and one record in the request sinks. With
// WithRegistry it publishes request metrics and can expose /metrics,
// /healthz, and pprof through Routes.
type Server struct {
	client Client
	// st is the local store at the end of the client's Unwrap chain, nil
	// when there is none (a remote endpoint, a shard coordinator).
	// /healthz reports its size and the registry its triple gauge.
	st *store.Store

	reg     *obs.Registry
	m       serverMetrics
	slow    *obs.SlowLog
	traces  *obs.OTLPSink
	queries *obs.QueryRing
	// ready reports readiness for /healthz (nil error = ready); set via
	// WithReadiness. nil means ready as soon as the server exists — the
	// store-backed constructors take a fully-loaded store, so that is
	// correct for them by construction.
	ready func() error
	// tenantHeader, when set via WithTenantHeader, names the request
	// header whose value becomes the admission-control tenant identity
	// (ContextWithTenant) for the delegated client.
	tenantHeader string
	// routes are caller-supplied handlers (WithRoute) mounted by Routes
	// alongside the built-in operational endpoints.
	routes []extraRoute
}

// maxQueryLen bounds accepted query text: longer requests get 413.
const maxQueryLen = 1 << 20

// serverMetrics caches the server's registry series; without a
// registry the handles are nil and no-op.
type serverMetrics struct {
	requests  map[string]*obs.Counter // by outcome
	latency   *obs.Histogram
	serialize *obs.Histogram
}

// requestOutcomes is the label vocabulary of the request counter.
var requestOutcomes = [...]string{"ok", "bad_request", "bad_query", "timeout", "canceled", "rejected", "error"}

// GenerationHeader carries the serving store's mutation-generation
// token on query responses. HTTPClient parses it into
// QueryMeta.Generation so a shard coordinator can compose remote shard
// generations into its own cache-invalidation token.
const GenerationHeader = "X-Re2xolap-Generation"

// CacheHeader reports how the serve layer answered: "hit" (result
// cache) or "coalesced" (deduplicated onto a concurrent identical
// execution). Absent on plain executions.
const CacheHeader = "X-Re2xolap-Cache"

// NewServer returns a SPARQL protocol handler over st: a
// NewClientServer over an in-process client. The in-process client
// takes WithRegistry (engine phase metrics) and WithWorkers; the
// request sinks (WithSlowQueryLog, WithTraceExport, WithQueryLog) stay
// with the server, which records each request once.
func NewServer(st *store.Store, opts ...Option) *Server {
	o := applyOptions(opts)
	inner := []Option{WithRegistry(o.registry)}
	if o.workers != nil {
		inner = append(inner, WithWorkers(*o.workers))
	}
	return NewClientServer(NewInProcess(st, inner...), opts...)
}

// NewClientServer returns a SPARQL protocol handler that delegates
// query execution to c: an in-process client, a serve stack, a
// scatter-gather coordinator (internal/shard), a resilient remote.
// Supported options: WithRegistry (request counters, latency and
// serialization histograms, worker-pool gauge, and the store gauge when
// c unwraps to an InProcess), WithSlowQueryLog, WithTraceExport,
// WithQueryLog, WithReadiness, WithTenantHeader,
// WithRoute. A degraded partial answer (QueryMeta.Incomplete) is
// flagged to HTTP callers via the X-Re2xolap-Incomplete response
// header.
func NewClientServer(c Client, opts ...Option) *Server {
	o := applyOptions(opts)
	reg := o.registry
	s := &Server{client: c, st: localStore(c), reg: reg, m: newServerMetrics(reg), slow: o.slow, traces: o.traceSink, queries: o.queryLog, ready: o.ready, tenantHeader: o.tenantHeader, routes: o.routes}
	if st := s.st; st != nil {
		reg.GaugeFunc("re2xolap_store_triples", "Triples in the served store.",
			func() float64 { return float64(st.Len()) })
	}
	reg.GaugeFunc("re2xolap_par_active_workers", "Worker-pool goroutines currently running.",
		func() float64 { return float64(par.Active()) })
	return s
}

// localStore walks the Unwrap chain from c to an in-process client and
// returns its store; nil when the chain ends anywhere else.
func localStore(c Client) *store.Store {
	for c != nil {
		if ip, ok := c.(*InProcess); ok {
			return ip.Engine.Store()
		}
		u, ok := c.(Unwrapper)
		if !ok {
			return nil
		}
		c = u.Unwrap()
	}
	return nil
}

// newServerMetrics registers the request-level server series.
func newServerMetrics(reg *obs.Registry) serverMetrics {
	m := serverMetrics{
		requests: make(map[string]*obs.Counter, len(requestOutcomes)),
		latency: reg.Histogram("re2xolap_server_request_seconds",
			"SPARQL request latency, serialization included.", nil),
		serialize: reg.Histogram("re2xolap_server_serialize_seconds",
			"Result serialization time.", nil),
	}
	for _, oc := range requestOutcomes {
		m.requests[oc] = reg.Counter("re2xolap_server_requests_total",
			"SPARQL protocol requests by outcome.", obs.L("outcome", oc))
	}
	return m
}

// outcome buckets an execution error for the request counter.
func requestOutcome(err error) string {
	var se *sparql.SyntaxError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &se):
		return "bad_query"
	case errors.Is(err, ErrOverloaded):
		return "rejected"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// countRequest is outcome accounting.
func (m serverMetrics) countRequest(outcome string, wall time.Duration) {
	m.requests[outcome].Inc()
	m.latency.ObserveDuration(wall)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var query string
	switch r.Method {
	case http.MethodGet:
		query = r.URL.Query().Get("query")
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		if ct == "application/sparql-query" || strings.HasPrefix(ct, "application/sparql-query;") {
			// SPARQL 1.1 protocol "query via POST directly": the body
			// IS the query, so cap the read at the same length bound.
			body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryLen+1))
			if err != nil {
				http.Error(w, "malformed request body", http.StatusBadRequest)
				s.m.countRequest("bad_request", time.Since(start))
				return
			}
			query = string(body)
		} else {
			if err := r.ParseForm(); err != nil {
				http.Error(w, "malformed form body", http.StatusBadRequest)
				s.m.countRequest("bad_request", time.Since(start))
				return
			}
			query = r.PostForm.Get("query")
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		s.m.countRequest("bad_request", time.Since(start))
		return
	}
	if query == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		s.m.countRequest("bad_request", time.Since(start))
		return
	}
	if len(query) > maxQueryLen {
		http.Error(w, "query too long", http.StatusRequestEntityTooLarge)
		s.m.countRequest("bad_request", time.Since(start))
		return
	}

	ctx := r.Context()
	var trace *obs.Trace
	if s.traces != nil {
		// A W3C traceparent header stitches this request into the
		// caller's trace: same trace ID, the caller's span as the root's
		// parent. Without one the request starts a fresh trace.
		if tid, sid, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
			trace = obs.NewTraceWithRemoteParent("sparql-request", tid, sid)
		} else {
			trace = obs.NewTrace("sparql-request")
		}
		ctx = obs.ContextWith(ctx, trace.Root())
		defer func() {
			trace.End()
			_ = s.traces.Export(trace)
		}()
	}

	if s.tenantHeader != "" {
		ctx = ContextWithTenant(ctx, r.Header.Get(s.tenantHeader))
	}
	res, meta, err := QueryX(ctx, s.client, Request{Query: query})
	if err != nil {
		s.fail(w, query, start, meta, err)
		return
	}
	if meta.Generation != 0 {
		w.Header().Set(GenerationHeader, strconv.FormatUint(meta.Generation, 10))
	}
	switch {
	case meta.CacheHit:
		w.Header().Set(CacheHeader, "hit")
	case meta.Coalesced:
		w.Header().Set(CacheHeader, "coalesced")
	}
	if meta.Incomplete {
		// Header, not an error status: the answer is valid, just
		// degraded. Clients that care can check it — and see which
		// partitions are missing, not just that one is.
		w.Header().Set("X-Re2xolap-Incomplete", "true")
		if len(meta.SkippedShards) > 0 {
			w.Header().Set("X-Re2xolap-Skipped-Shards", joinInts(meta.SkippedShards))
		}
	}

	serStart := time.Now()
	if err := s.serialize(w, r, res); err != nil {
		// Nothing has been written yet: the answer cannot be rendered.
		s.fail(w, query, start, meta, err)
		return
	}
	s.account(query, start, meta, res.Len(), time.Since(serStart), nil)
}

// fail answers a request whose execution or rendering failed, with the
// status its outcome maps to, and accounts for it.
func (s *Server) fail(w http.ResponseWriter, query string, start time.Time, meta QueryMeta, err error) {
	switch requestOutcome(err) {
	case "bad_query":
		http.Error(w, fmt.Sprintf("malformed query: %v", err), http.StatusBadRequest)
	case "rejected":
		// Admission control shed the request before executing it:
		// 429 + Retry-After, the standard back-off contract (our
		// StatusError taxonomy already treats 429 as retryable).
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("overloaded: %v", err), http.StatusTooManyRequests)
	case "timeout":
		// The per-request execution deadline expired: 503 tells
		// well-behaved clients (and our ResilientClient) this is a
		// load condition worth retrying, not a broken query.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "query timed out", http.StatusServiceUnavailable)
	case "canceled":
		// The client went away; nobody is reading the response.
	default:
		http.Error(w, fmt.Sprintf("query execution failed: %v", err), http.StatusInternalServerError)
	}
	s.account(query, start, meta, 0, 0, err)
}

// account counts one executed request by outcome and records it once
// in the request sinks, with the server's wall time (serialization
// included) and row count in place of the client's.
func (s *Server) account(query string, start time.Time, meta QueryMeta, rows int, ser time.Duration, err error) {
	wall := time.Since(start)
	s.m.countRequest(requestOutcome(err), wall)
	if err == nil {
		s.m.serialize.ObserveDuration(ser)
	}
	meta.Source, meta.Wall, meta.Rows = "server", wall, rows
	recordQuery(s.slow, s.queries, query, meta, ser, err)
}

// serialize writes res in the negotiated format. The error is a JSON
// body that could not be built, reported before anything is written; a
// failed write (the client went away) is nobody's to report.
func (s *Server) serialize(w http.ResponseWriter, r *http.Request, res *sparql.Results) error {
	if res.IsConstruct {
		// CONSTRUCT results are an RDF graph, served as N-Triples.
		w.Header().Set("Content-Type", "application/n-triples")
		enc := rdf.NewEncoder(w)
		for _, t := range res.Triples {
			if err := enc.Encode(t); err != nil {
				return nil
			}
		}
		_ = enc.Flush()
		return nil
	}
	// Content negotiation: XML or CSV when the client asks for them,
	// JSON otherwise (the SPARQL protocol default here).
	accept := r.Header.Get("Accept")
	if wantsXML(accept) {
		w.Header().Set("Content-Type", XMLResultsContentType)
		_ = EncodeResultsXML(w, res)
		return nil
	}
	if strings.Contains(accept, CSVResultsContentType) && !strings.Contains(accept, ResultsContentType) {
		w.Header().Set("Content-Type", CSVResultsContentType)
		_ = EncodeResultsCSV(w, res)
		return nil
	}
	// The whole body is built before the first byte is sent, so the
	// response carries its length and goes out in one write.
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	var err error
	if *bp, err = appendResults((*bp)[:0], res); err != nil {
		return err
	}
	w.Header().Set("Content-Type", ResultsContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(*bp)))
	_, _ = w.Write(*bp)
	return nil
}

// RoutesConfig configures the full serving mux around a Server.
type RoutesConfig struct {
	// Harden is applied to the /sparql handler only (shedding, panic
	// recovery, per-request deadline); the observability endpoints
	// stay reachable under load so operators can see why.
	Harden HardenConfig
	// Pprof gates the net/http/pprof handlers under /debug/pprof/.
	// Off by default: profiling endpoints on an open port are a DoS
	// and information-leak vector.
	Pprof bool
}

// Routes assembles the operational mux: /sparql (hardened), /metrics
// (Prometheus text format; 404 unless the server was built
// WithRegistry), /livez (liveness), /healthz and /readyz (readiness),
// /debug/queries (when built WithQueryLog), caller-supplied routes
// (WithRoute), and — when cfg.Pprof — /debug/pprof/.
//
// Liveness and readiness are distinct probes: /livez answers 200 for
// as long as the process serves HTTP, while /healthz answers 503 with
// a JSON body until the server is ready to give correct answers (the
// WithReadiness hook — a loading store, a coordinator waiting for its
// first healthy replica per shard). Probers and load balancers should
// route on /healthz so cold processes take no traffic.
func (s *Server) Routes(cfg RoutesConfig) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/sparql", Harden(s, cfg.Harden))
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/livez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/healthz", s.serveHealth)
	mux.HandleFunc("/readyz", s.serveHealth)
	if s.queries != nil {
		mux.Handle("/debug/queries", s.queries.Handler())
	}
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	for _, rt := range s.routes {
		mux.Handle(rt.pattern, rt.handler)
	}
	return mux
}

// serveHealth implements the readiness side of the probe pair
// (/healthz, /readyz): 200 with a JSON status once ready, 503 with
// the blocking reason until then.
func (s *Server) serveHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.ready != nil {
		if err := s.ready(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{
				"status": "unavailable",
				"reason": err.Error(),
			})
			return
		}
	}
	body := map[string]any{"status": "ok"}
	if s.st != nil {
		body["triples"] = s.st.Len()
	}
	_ = json.NewEncoder(w).Encode(body)
}

// joinInts renders shard indices for the skipped-shards header.
func joinInts(xs []int) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	return b.String()
}

// wantsXML reports whether the Accept header prefers the XML results
// format: it lists the XML media type and does not list the JSON one
// earlier.
func wantsXML(accept string) bool {
	xmlPos := strings.Index(accept, XMLResultsContentType)
	if xmlPos < 0 {
		return false
	}
	jsonPos := strings.Index(accept, ResultsContentType)
	return jsonPos < 0 || xmlPos < jsonPos
}
