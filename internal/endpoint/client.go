package endpoint

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"re2xolap/internal/obs"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// Client is a SPARQL query interface. Everything above the protocol
// boundary (virtual-graph bootstrap, ReOLAP, the refinements) talks to
// the triplestore exclusively through this interface, mirroring the
// paper's claim that the system "operates on standard SPARQL
// interfaces (with non-specialized RDF stores)". Clients that report
// per-query metadata additionally implement QuerierX.
type Client interface {
	// Query runs one SPARQL SELECT or ASK query.
	Query(ctx context.Context, query string) (*sparql.Results, error)
}

// InProcess is a Client that executes queries directly against a local
// store, bypassing HTTP.
type InProcess struct {
	Engine *sparql.Engine

	queries obs.Counter // the QueryCount source, registry or not
	m       clientMetrics
	slow    *obs.SlowLog
}

// NewInProcess returns an in-process client over st. Supported
// options: WithRegistry (publishes client and engine metrics),
// WithSlowQueryLog, WithWorkers.
func NewInProcess(st *store.Store, opts ...Option) *InProcess {
	o := applyOptions(opts)
	c := &InProcess{Engine: sparql.NewEngine(st), m: newClientMetrics(o.registry, "inprocess"), slow: o.slow}
	if o.workers != nil {
		c.Engine.Exec.Workers = *o.workers
	}
	c.Engine.Instrument(o.registry)
	return c
}

// Query implements Client as a thin adapter over QueryX. The context
// cancels long-running joins.
func (c *InProcess) Query(ctx context.Context, query string) (*sparql.Results, error) {
	res, _, err := c.QueryX(ctx, Request{Query: query})
	return res, err
}

// QueryX implements QuerierX: it executes the query and reports wall
// time, the engine phase breakdown, and the result row count.
func (c *InProcess) QueryX(ctx context.Context, req Request) (*sparql.Results, QueryMeta, error) {
	meta := QueryMeta{Source: "inprocess", Step: req.Opts.Step, Attempts: 1}
	if err := ctx.Err(); err != nil {
		return nil, meta, err
	}
	meta.Generation = c.Generation()
	ctx, span := querySpan(ctx, req, "sparql")
	start := time.Now()
	res, pt, err := c.Engine.QueryStringTimed(ctx, req.Query)
	meta.Phases = pt
	meta.Rows = pt.Rows
	if err != nil {
		err = classifyLocal(ctx, err)
	}
	meta.Wall = time.Since(start)
	meta.HasPhases = true
	span.End()
	c.queries.Inc()
	c.m.record(meta.Wall, err)
	recordQuery(c.slow, nil, req.Query, meta, 0, err)
	return res, meta, err
}

// QueryCount returns the number of queries issued so far (the
// experiment harness reports it).
func (c *InProcess) QueryCount() int64 { return c.queries.Value() }

// Generation implements GenerationSource: the backing store's mutation
// counter.
func (c *InProcess) Generation() uint64 { return c.Engine.Store().Generation() }

// classifyLocal tags in-process engine errors with the package
// taxonomy: a syntax error is permanent (retrying cannot help);
// everything else falls back to context classification.
func classifyLocal(ctx context.Context, err error) error {
	var se *sparql.SyntaxError
	if errors.As(err, &se) {
		return MarkPermanent(err)
	}
	return classifyCtx(ctx, err)
}

// HTTPClient speaks the SPARQL protocol with a remote endpoint.
type HTTPClient struct {
	// Endpoint is the query URL, e.g. "http://localhost:8080/sparql".
	Endpoint string
	// HTTP is the underlying client; http.DefaultClient if nil.
	//
	// Deprecated: set it via WithHTTPClient/WithTimeout at
	// construction instead of mutating the field afterwards.
	HTTP *http.Client

	m    clientMetrics
	slow *obs.SlowLog
}

// NewHTTPClient returns a client for the given endpoint URL.
// Supported options: WithTimeout (default 15 minutes),
// WithHTTPClient, WithRegistry, WithSlowQueryLog.
func NewHTTPClient(endpoint string, opts ...Option) *HTTPClient {
	o := applyOptions(opts)
	hc := o.httpClient
	if hc == nil {
		timeout := o.timeout
		if timeout <= 0 {
			timeout = 15 * time.Minute
		}
		hc = &http.Client{Timeout: timeout}
	}
	return &HTTPClient{
		Endpoint: endpoint,
		HTTP:     hc,
		m:        newClientMetrics(o.registry, "http"),
		slow:     o.slow,
	}
}

// Query implements Client as a thin adapter over QueryX.
func (c *HTTPClient) Query(ctx context.Context, query string) (*sparql.Results, error) {
	res, _, err := c.QueryX(ctx, Request{Query: query})
	return res, err
}

// QueryX implements QuerierX: wall time and row count; a remote
// endpoint reports no phase breakdown.
func (c *HTTPClient) QueryX(ctx context.Context, req Request) (*sparql.Results, QueryMeta, error) {
	meta := QueryMeta{Source: "http", Step: req.Opts.Step, Attempts: 1}
	ctx, span := querySpan(ctx, req, "http-query")
	span.SetAttr("endpoint", c.Endpoint)
	start := time.Now()
	res, gen, err := c.do(ctx, req.Query)
	meta.Wall = time.Since(start)
	meta.Generation = gen
	if res != nil {
		meta.Rows = res.Len()
	}
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	c.m.record(meta.Wall, err)
	recordQuery(c.slow, nil, req.Query, meta, 0, err)
	return res, meta, err
}

// do POSTs an application/x-www-form-urlencoded query, per the SPARQL
// 1.1 protocol, asking for the private TSV type before JSON and
// decoding the answer by its Content-Type. The second return is the
// serving store's generation token parsed from the
// X-Re2xolap-Generation response header (zero when the endpoint does
// not send one).
func (c *HTTPClient) do(ctx context.Context, query string) (*sparql.Results, uint64, error) {
	form := url.Values{"query": {query}}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, strings.NewReader(form.Encode()))
	if err != nil {
		return nil, 0, fmt.Errorf("endpoint: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", acceptResults)
	// Propagate the ambient trace across the process boundary: the
	// serving side continues the same trace ID (W3C Trace Context), so
	// coordinator fan-out spans and shard-side engine spans stitch into
	// one trace in the OTLP export.
	if sp := obs.SpanFrom(ctx); sp != nil {
		if tp := sp.Traceparent(); tp != "" {
			req.Header.Set("traceparent", tp)
		}
	}
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		// Transport-level failures (refused, reset, DNS) are worth
		// retrying — unless the caller's deadline is what killed them.
		return nil, 0, classifyCtx(ctx, MarkRetryable(fmt.Errorf("endpoint: query: %w", err)))
	}
	// Drain before close so the keep-alive connection is returned to
	// the pool instead of torn down; bounded in case of a huge error
	// body after a partial read.
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, 0, &StatusError{Code: resp.StatusCode, Body: strings.TrimSpace(string(body))}
	}
	gen, _ := strconv.ParseUint(resp.Header.Get(GenerationHeader), 10, 64)
	decode := decodeBody
	if isPrivateTSV(resp.Header.Get("Content-Type")) {
		decode = decodeTSVBody
	}
	res, err := decode(resp.Body, resp.ContentLength)
	if err != nil {
		// A malformed or truncated body on a 200 is a delivery failure
		// (connection cut mid-response, broken proxy), not a bad query.
		return nil, 0, classifyCtx(ctx, MarkRetryable(err))
	}
	return res, gen, nil
}
