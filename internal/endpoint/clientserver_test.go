package endpoint

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"re2xolap/internal/corpus"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

func clientServerStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	for i, name := range []string{"a", "b", "c"} {
		err := st.Add(rdf.Triple{
			S: rdf.NewIRI("http://t/" + name),
			P: rdf.NewIRI("http://t/v"),
			O: rdf.NewInteger(int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestClientServerProxies checks a client-backed server speaks the
// same protocol as a store-backed one.
func TestClientServerProxies(t *testing.T) {
	st := clientServerStore(t)
	direct := httptest.NewServer(NewServer(st))
	defer direct.Close()
	proxy := httptest.NewServer(NewClientServer(NewInProcess(st)))
	defer proxy.Close()

	query := `SELECT ?s ?v WHERE { ?s <http://t/v> ?v } ORDER BY ?v`
	fetch := func(base string) []byte {
		resp, err := http.PostForm(base, url.Values{"query": {query}})
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if d, p := fetch(direct.URL), fetch(proxy.URL); !bytes.Equal(d, p) {
		t.Fatalf("proxy body diverges:\n%s\nvs\n%s", p, d)
	}

	// Bad query surfaces as 400 through the client path too.
	resp, err := http.PostForm(proxy.URL, url.Values{"query": {"SELECT nonsense"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query through proxy: status %d, want 400", resp.StatusCode)
	}
}

// incompleteClient reports a degraded partial answer.
type incompleteClient struct{ inner *InProcess }

func (c incompleteClient) Query(ctx context.Context, query string) (*sparql.Results, error) {
	res, _, err := c.QueryX(ctx, Request{Query: query})
	return res, err
}

func (c incompleteClient) QueryX(ctx context.Context, req Request) (*sparql.Results, QueryMeta, error) {
	res, meta, err := c.inner.QueryX(ctx, req)
	meta.Incomplete = true
	return res, meta, err
}

func TestClientServerIncompleteHeader(t *testing.T) {
	st := clientServerStore(t)
	srv := httptest.NewServer(NewClientServer(incompleteClient{inner: NewInProcess(st)}))
	defer srv.Close()
	resp, err := http.PostForm(srv.URL, url.Values{"query": {`SELECT ?s WHERE { ?s <http://t/v> ?o }`}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Re2xolap-Incomplete"); got != "true" {
		t.Fatalf("X-Re2xolap-Incomplete = %q, want true", got)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the export sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServerTraceExport checks WithTraceExport emits one OTLP/JSON
// line per request, on the store-backed server.
func TestServerTraceExport(t *testing.T) {
	st := clientServerStore(t)
	var buf syncBuffer
	sink := obs.NewOTLPSink(&buf, "sparqld")
	srv := httptest.NewServer(NewServer(st, WithTraceExport(sink)))
	defer srv.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.PostForm(srv.URL, url.Values{"query": {`SELECT ?s WHERE { ?s <http://t/v> ?o }`}})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 trace lines, got %d:\n%s", len(lines), buf.String())
	}
	var req struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct{ Name string }
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[0]), &req); err != nil {
		t.Fatal(err)
	}
	spans := req.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) == 0 || spans[0].Name != "sparql-request" {
		t.Fatalf("unexpected span tree: %+v", spans)
	}
}

// TestTraceparentPropagation checks the cross-process stitching end to
// end at the protocol layer: HTTPClient injects the W3C traceparent
// header from the ambient span, and a WithTraceExport server continues
// that trace — the exported span tree carries the caller's trace ID
// with the caller's span as the root's parent.
func TestTraceparentPropagation(t *testing.T) {
	st := clientServerStore(t)
	var buf syncBuffer
	sink := obs.NewOTLPSink(&buf, "shard")
	inner := NewServer(st, WithTraceExport(sink))
	var gotHeader string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get("traceparent")
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	tr := obs.NewTrace("coordinator")
	ctx := obs.ContextWith(context.Background(), tr.Root())
	c := NewHTTPClient(srv.URL)
	if _, _, err := c.QueryX(ctx, Request{Query: `SELECT ?s WHERE { ?s <http://t/v> ?o }`}); err != nil {
		t.Fatal(err)
	}
	tr.End()

	tid, sid, ok := obs.ParseTraceparent(gotHeader)
	if !ok {
		t.Fatalf("server saw no valid traceparent header: %q", gotHeader)
	}
	wantTID, _, ok := obs.ParseTraceparent(tr.Root().Traceparent())
	if !ok || tid != wantTID {
		t.Fatalf("header trace ID = %x, want coordinator's %x", tid, wantTID)
	}

	var req struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string
					SpanID       string
					ParentSpanID string
					Name         string
				}
			}
		}
	}
	if err := json.Unmarshal([]byte(strings.TrimSpace(buf.String())), &req); err != nil {
		t.Fatal(err)
	}
	spans := req.ResourceSpans[0].ScopeSpans[0].Spans
	if spans[0].TraceID != hex.EncodeToString(tid[:]) {
		t.Errorf("exported trace ID %s, want %s", spans[0].TraceID, hex.EncodeToString(tid[:]))
	}
	if spans[0].ParentSpanID != hex.EncodeToString(sid[:]) {
		t.Errorf("exported root parent %s, want caller span %s", spans[0].ParentSpanID, hex.EncodeToString(sid[:]))
	}
}

// TestServerQueryLog checks WithQueryLog records served queries and
// Routes exposes them as /debug/queries.
func TestServerQueryLog(t *testing.T) {
	st := clientServerStore(t)
	ring := obs.NewQueryRing(8)
	s := NewServer(st, WithQueryLog(ring))
	srv := httptest.NewServer(s.Routes(RoutesConfig{}))
	defer srv.Close()

	resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {`SELECT ?s WHERE { ?s <http://t/v> ?o }`}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/queries status %d", resp.StatusCode)
	}
	var recs []obs.QueryRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Rows != 3 || recs[0].Source != "server" {
		t.Fatalf("unexpected query log: %+v", recs)
	}
	if len(recs[0].PhaseMS) == 0 {
		t.Error("query log entry missing phase breakdown")
	}
}

// planText joins an EXPLAIN result set's one-column plan rows.
func planText(t *testing.T, res *sparql.Results) string {
	t.Helper()
	if len(res.Vars) != 1 || res.Vars[0] != "plan" || res.Len() == 0 {
		t.Fatalf("not a plan result set: vars %v, %d rows", res.Vars, res.Len())
	}
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row[0].Value)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestInProcessExplainAnalyzeProfile checks the two ways a profile
// leaves the engine: Engine.Profile returns a per-operator tree whose
// root row count matches the result, with estimated-vs-actual deltas
// for the scans, and results identical to a bare query; EXPLAIN
// ANALYZE through QueryX renders the same tree as plan rows.
func TestInProcessExplainAnalyzeProfile(t *testing.T) {
	st := clientServerStore(t)
	c := NewInProcess(st)
	ctx := context.Background()
	const q = `SELECT ?s ?v WHERE { ?s <http://t/v> ?v } ORDER BY ?v`
	bare, err := c.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	res, prof, err := c.Engine.Profile(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.Root.RowsOut; got != res.Len() {
		t.Errorf("profile root rows = %d, result rows = %d", got, res.Len())
	}
	if len(prof.Deltas()) == 0 {
		t.Error("no cardinality deltas in profile")
	}
	if res.String() != bare.String() {
		t.Errorf("profiled results diverge from bare:\n%s\nvs\n%s", res, bare)
	}

	plan, meta, err := c.QueryX(ctx, Request{Query: "EXPLAIN ANALYZE " + q})
	if err != nil {
		t.Fatal(err)
	}
	text := planText(t, plan)
	for _, want := range []string{fmt.Sprintf("rows=%d", bare.Len()), "est=", "in=", "out="} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", want, text)
		}
	}
	if !meta.HasPhases || meta.Rows != plan.Len() {
		t.Errorf("meta = %+v, want phases and %d plan rows", meta, plan.Len())
	}
}

// TestServerExplainAnalyze: EXPLAIN ANALYZE over HTTP to the
// store-backed server returns the profile as plan rows.
func TestServerExplainAnalyze(t *testing.T) {
	srv := httptest.NewServer(NewServer(clientServerStore(t)))
	defer srv.Close()
	res, err := NewHTTPClient(srv.URL).Query(context.Background(),
		`EXPLAIN ANALYZE SELECT ?s ?v WHERE { ?s <http://t/v> ?v } ORDER BY ?v`)
	if err != nil {
		t.Fatal(err)
	}
	text := planText(t, res)
	for _, want := range []string{"est=", "in=", "out="} {
		if !strings.Contains(text, want) {
			t.Errorf("plan rows lack %q:\n%s", want, text)
		}
	}
}

// TestServerSinksAgree: with the slow log (threshold 0) and the
// /debug/queries ring both attached, one request writes one record to
// each, and the two are equal apart from their timestamps.
func TestServerSinksAgree(t *testing.T) {
	var slow syncBuffer
	ring := obs.NewQueryRing(4)
	srv := httptest.NewServer(NewServer(clientServerStore(t),
		WithSlowQueryLog(obs.NewSlowLog(&slow, 0)), WithQueryLog(ring)))
	defer srv.Close()
	resp, err := http.PostForm(srv.URL, url.Values{"query": {`SELECT ?s WHERE { ?s <http://t/v> ?o }`}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 slow-log line, got %d:\n%s", len(lines), slow.String())
	}
	var fromLog, fromRing obs.QueryRecord
	if err := json.Unmarshal([]byte(lines[0]), &fromLog); err != nil {
		t.Fatal(err)
	}
	recs := ring.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("want 1 ring record, got %d", len(recs))
	}
	b, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &fromRing); err != nil {
		t.Fatal(err)
	}
	fromLog.Time, fromRing.Time = "", ""
	if !reflect.DeepEqual(fromLog, fromRing) {
		t.Errorf("slow log and ring disagree:\nlog  %+v\nring %+v", fromLog, fromRing)
	}
	if fromLog.Source != "server" || fromLog.Rows != 3 || fromLog.PhaseMS["serialize"] <= 0 {
		t.Errorf("record = %+v, want a server record of 3 rows with a serialize phase", fromLog)
	}
}

// TestStoreServerShape pins what the store-backed server looks like
// now that it fronts an in-process client: the trace root is still
// sparql-request with the engine phases under the client's sparql
// span, /metrics keeps the request, engine and store series, and every
// corpus body equals the explicit NewClientServer(NewInProcess(st))
// composition byte for byte.
func TestStoreServerShape(t *testing.T) {
	st := store.New()
	if err := st.AddAll(corpus.Triples()); err != nil {
		t.Fatal(err)
	}
	var traces syncBuffer
	reg := obs.NewRegistry()
	s := NewServer(st, WithRegistry(reg), WithTraceExport(obs.NewOTLPSink(&traces, "sparqld")))
	srv := httptest.NewServer(s.Routes(RoutesConfig{}))
	defer srv.Close()
	plain := httptest.NewServer(NewClientServer(NewInProcess(st)))
	defer plain.Close()

	post := func(base, query string) []byte {
		t.Helper()
		resp, err := http.PostForm(base, url.Values{"query": {query}})
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	queries := corpus.Queries()
	for _, cq := range queries {
		if a, b := post(srv.URL+"/sparql", cq.Query), post(plain.URL, cq.Query); !bytes.Equal(a, b) {
			t.Errorf("%s: NewServer body differs from NewClientServer(NewInProcess):\n%s\nvs\n%s", cq.Name, a, b)
		}
	}

	var req struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct{ SpanID, ParentSpanID, Name string }
			}
		}
	}
	first := strings.SplitN(traces.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(first), &req); err != nil {
		t.Fatal(err)
	}
	spans := req.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) == 0 || spans[0].Name != "sparql-request" {
		t.Fatalf("trace root is not sparql-request: %+v", spans)
	}
	byID := map[string]string{} // span ID -> name
	for _, sp := range spans {
		byID[sp.SpanID] = sp.Name
	}
	parent := map[string]string{} // span name -> parent span name
	for _, sp := range spans {
		parent[sp.Name] = byID[sp.ParentSpanID]
	}
	if parent["sparql"] != "sparql-request" || parent["join"] != "sparql" || parent["parse"] != "sparql" {
		t.Errorf("span parents = %v, want sparql under sparql-request and the engine phases under sparql", parent)
	}

	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`re2xolap_server_requests_total{outcome="ok"} %d`, len(queries)),
		"re2xolap_sparql_query_seconds_bucket",
		fmt.Sprintf("re2xolap_store_triples %d", st.Len()),
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("metrics lack %s", want)
		}
	}
}
