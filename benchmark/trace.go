package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/sparql"
)

// Layer names used by spans. A span's layer is the module whose public
// function the benchmark wrapped; self time is attributed to it.
const (
	layerCore     = "core"
	layerRefine   = "refine"
	layerSession  = "session"
	layerEndpoint = "endpoint"
	layerSparql   = "sparql"
	layerServe    = "serve"
	layerShard    = "shard"
	layerStore    = "store"
)

var traceLayers = []string{layerCore, layerRefine, layerSession, layerEndpoint, layerSparql, layerServe, layerShard, layerStore}

// spanRec is one recorded span: a call into a layer's public function,
// made from the benchmark's own wrappers. Times are nanoseconds since
// the tracer was created.
type spanRec struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for an operation's root span
	Op     int64  `json:"op"`     // shared by all spans of one operation
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"` // rows or items the call returned
}

// tracer keeps spans in memory; writeJSONL dumps them when the
// benchmark ends. A nil or switched-off tracer records nothing, so the
// same wrappers serve the untraced rounds of a traced run.
type tracer struct {
	on     atomic.Bool
	t0     time.Time
	nextOp atomic.Int64

	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// set switches recording on or off; a nil tracer stays off.
func (t *tracer) set(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

type spanKey struct{}

// spanRef is what a context carries: the current span and operation.
type spanRef struct {
	id int32
	op int64
}

func (t *tracer) open(parent spanRef, layer, name string, start time.Time) spanRef {
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, spanRec{
		ID: id, Parent: parent.id, Op: parent.op, Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)),
	})
	t.mu.Unlock()
	return spanRef{id: id, op: parent.op}
}

func (t *tracer) close(ref spanRef, end time.Time, n int64) {
	t.mu.Lock()
	sp := &t.spans[ref.id-1]
	sp.End = int64(end.Sub(t.t0))
	sp.N = n
	t.mu.Unlock()
}

var noopEnd = func(int64) {}

// root starts a new operation and its root span.
func (t *tracer) root(ctx context.Context, layer, name string) (context.Context, func(n int64)) {
	if !t.enabled() {
		return ctx, noopEnd
	}
	return t.begin(context.WithValue(ctx, spanKey{}, spanRef{op: t.nextOp.Add(1)}), layer, name)
}

// begin starts a span under the span ctx carries. The returned func
// ends it; n is the row or item count the wrapped call produced.
func (t *tracer) begin(ctx context.Context, layer, name string) (context.Context, func(n int64)) {
	if !t.enabled() {
		return ctx, noopEnd
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	ref := t.open(parent, layer, name, time.Now())
	return context.WithValue(ctx, spanKey{}, ref), func(n int64) { t.close(ref, time.Now(), n) }
}

// interval records an already-finished span under ctx's span — used
// for phases a callee reports after the fact (engine phase timings).
func (t *tracer) interval(ctx context.Context, layer, name string, start, end time.Time, n int64) {
	if !t.enabled() {
		return
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	t.close(t.open(parent, layer, name, start), end, n)
}

func (t *tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// writeJSONL writes one span per line.
func writeSpansJSONL(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per layer, the summed self time of its spans: a
// span's duration minus the part of that interval its child spans
// cover. Children may overlap (a coordinator fans out to shards in
// parallel), so coverage is the union of the clipped child intervals.
func selfTimes(spans []spanRec) map[string]time.Duration {
	children := make(map[int32][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed: the run stopped mid-call
		}
		out[s.Layer] += time.Duration((s.End - s.Start) - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	frontier := lo // everything before it is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], frontier), min(iv[1], hi)
		if b > a {
			total += b - a
			frontier = b
		}
	}
	return total
}

// traceClient wraps an endpoint.Client at a layer boundary. With the
// tracer off it only forwards. When the wrapped client reports engine
// phase timings (the in-process client does), the engine's share is
// recorded as a child span of layer sparql, so the wrapper's own self
// time is what the protocol layer added on top of the executor.
type traceClient struct {
	t     *tracer
	layer string
	name  string
	inner endpoint.Client
}

func (c *traceClient) Unwrap() endpoint.Client { return c.inner }

func (c *traceClient) Query(ctx context.Context, q string) (*sparql.Results, error) {
	res, _, err := c.QueryX(ctx, endpoint.Request{Query: q})
	return res, err
}

func (c *traceClient) QueryX(ctx context.Context, req endpoint.Request) (*sparql.Results, endpoint.QueryMeta, error) {
	if !c.t.enabled() {
		return endpoint.QueryX(ctx, c.inner, req)
	}
	ctx, end := c.t.begin(ctx, c.layer, c.name)
	start := time.Now()
	res, meta, err := endpoint.QueryX(ctx, c.inner, req)
	done := time.Now()
	if meta.HasPhases && meta.Source == "inprocess" {
		if exec := meta.Phases.Total(); exec > 0 && exec <= done.Sub(start) {
			c.t.interval(ctx, layerSparql, "exec", done.Add(-exec), done, int64(meta.Rows))
		}
	}
	if c.layer == layerServe && err == nil && !meta.CacheHit && !meta.Coalesced {
		// An execution: record the time admission control held it.
		c.t.interval(ctx, layerServe, "queue-wait", start, start.Add(meta.QueueWait), 0)
	}
	end(int64(meta.Rows))
	return res, meta, err
}

// spanHeader carries a client-side span across the loopback HTTP hop,
// so server-side spans hang under the request that caused them.
const spanHeader = "X-Bench-Span"

// headerTransport adds the tenant header to every request and, while
// tracing, the current span reference.
type headerTransport struct {
	base   http.RoundTripper
	tenant string
}

func (h headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(tenantHeader, h.tenant)
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r.Header.Set(spanHeader, strconv.FormatInt(int64(ref.id), 10)+":"+strconv.FormatInt(ref.op, 10))
	}
	return h.base.RoundTrip(r)
}

// traceHandler opens the server-side span of a request under the
// client span named in spanHeader.
func traceHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(spanHeader)
		if !t.enabled() || v == "" {
			next.ServeHTTP(w, r)
			return
		}
		idStr, opStr, _ := strings.Cut(v, ":")
		id, _ := strconv.ParseInt(idStr, 10, 32)
		op, _ := strconv.ParseInt(opStr, 10, 64)
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{id: int32(id), op: op})
		ctx, end := t.begin(ctx, layerEndpoint, "server")
		next.ServeHTTP(w, r.WithContext(ctx))
		end(0)
	})
}
