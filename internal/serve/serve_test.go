package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// iri abbreviates test IRIs.
func iri(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }

// newTestStore builds a small deterministic store.
func newTestStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	for i := 0; i < 6; i++ {
		if err := st.Add(rdf.Triple{
			S: iri(fmt.Sprintf("s%d", i)), P: iri("value"), O: rdf.NewInteger(int64(i * 10)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

const valueQuery = `SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY ?s`

// countingClient counts how many queries reach the inner client —
// the "engine executions" oracle for cache and single-flight tests.
type countingClient struct {
	inner endpoint.Client
	n     atomic.Int64
}

func (c *countingClient) Query(ctx context.Context, q string) (*sparql.Results, error) {
	res, _, err := c.QueryX(ctx, endpoint.Request{Query: q})
	return res, err
}

func (c *countingClient) QueryX(ctx context.Context, req endpoint.Request) (*sparql.Results, endpoint.QueryMeta, error) {
	c.n.Add(1)
	return endpoint.QueryX(ctx, c.inner, req)
}

func (c *countingClient) Unwrap() endpoint.Client { return c.inner }

// encode serializes a result set the way the HTTP layer would.
func encode(t *testing.T, res *sparql.Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := endpoint.EncodeResults(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCacheHitByteIdentical(t *testing.T) {
	st := newTestStore(t)
	inner := &countingClient{inner: endpoint.NewInProcess(st)}
	reg := obs.NewRegistry()
	s := New(inner, WithResultCache(16), WithRegistry(reg))
	ctx := context.Background()

	res1, meta1, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
	if err != nil {
		t.Fatal(err)
	}
	if meta1.CacheHit {
		t.Error("cold query reported a cache hit")
	}
	res2, meta2, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
	if err != nil {
		t.Fatal(err)
	}
	if !meta2.CacheHit {
		t.Error("warm query did not report a cache hit")
	}
	if got, want := encode(t, res2), encode(t, res1); !bytes.Equal(got, want) {
		t.Errorf("cached answer not byte-identical:\n%s\nvs\n%s", got, want)
	}
	if n := inner.n.Load(); n != 1 {
		t.Errorf("inner client executed %d times, want 1", n)
	}
	if v := reg.Counter("re2xolap_result_cache_hits_total", "").Value(); v != 1 {
		t.Errorf("hits counter = %d, want 1", v)
	}
	if v := reg.Counter("re2xolap_result_cache_misses_total", "").Value(); v != 1 {
		t.Errorf("misses counter = %d, want 1", v)
	}
	if meta2.Generation == 0 || meta2.Generation != meta1.Generation {
		t.Errorf("generation not propagated: cold %d, warm %d", meta1.Generation, meta2.Generation)
	}
}

// TestCanonicalVariantsShareEntry: formatting variants of the same
// query hit one cache entry (the key is the canonical print).
func TestCanonicalVariantsShareEntry(t *testing.T) {
	st := newTestStore(t)
	inner := &countingClient{inner: endpoint.NewInProcess(st)}
	s := New(inner, WithResultCache(16))
	ctx := context.Background()

	variant := "SELECT  ?s   ?v\nWHERE {\n  ?s <http://t/value> ?v\n}\nORDER BY ?s"
	res1, _, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
	if err != nil {
		t.Fatal(err)
	}
	res2, meta2, err := s.QueryX(ctx, endpoint.Request{Query: variant})
	if err != nil {
		t.Fatal(err)
	}
	if !meta2.CacheHit {
		t.Error("whitespace variant missed the cache")
	}
	if !bytes.Equal(encode(t, res1), encode(t, res2)) {
		t.Error("variant answer differs from original")
	}
	if n := inner.n.Load(); n != 1 {
		t.Errorf("inner client executed %d times, want 1", n)
	}
}

// TestGenerationInvalidation: a mutation between queries must yield a
// fresh answer, not the cached stale one.
func TestGenerationInvalidation(t *testing.T) {
	st := newTestStore(t)
	inner := &countingClient{inner: endpoint.NewInProcess(st)}
	s := New(inner, WithResultCache(16))
	ctx := context.Background()

	res1, _, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(rdf.Triple{S: iri("s9"), P: iri("value"), O: rdf.NewInteger(999)}); err != nil {
		t.Fatal(err)
	}
	res2, meta2, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
	if err != nil {
		t.Fatal(err)
	}
	if meta2.CacheHit {
		t.Error("query after mutation served from cache")
	}
	if res2.Len() != res1.Len()+1 {
		t.Errorf("post-mutation rows = %d, want %d", res2.Len(), res1.Len()+1)
	}
	if n := inner.n.Load(); n != 2 {
		t.Errorf("inner client executed %d times, want 2", n)
	}
	// And the fresh answer is itself cached under the new generation.
	_, meta3, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
	if err != nil {
		t.Fatal(err)
	}
	if !meta3.CacheHit {
		t.Error("post-mutation answer was not re-cached")
	}
}

// TestProfileAndUnparseableBypassCache: EXPLAIN ANALYZE profile
// requests and queries that fail to parse must always reach the inner
// client.
func TestProfileAndUnparseableBypassCache(t *testing.T) {
	st := newTestStore(t)
	inner := &countingClient{inner: endpoint.NewInProcess(st)}
	reg := obs.NewRegistry()
	s := New(inner, WithResultCache(16), WithRegistry(reg))
	ctx := context.Background()
	executions := reg.Counter("re2xolap_serve_executions_total", "")

	for i := 0; i < 2; i++ {
		res, meta, err := s.QueryX(ctx, endpoint.Request{Query: "EXPLAIN ANALYZE " + valueQuery})
		if err != nil {
			t.Fatal(err)
		}
		if meta.CacheHit || meta.Coalesced {
			t.Error("profile request served from cache")
		}
		var plan strings.Builder
		for _, row := range res.Rows {
			plan.WriteString(row[0].Value)
		}
		for _, want := range []string{"est=", "in=", "out="} {
			if !strings.Contains(plan.String(), want) {
				t.Errorf("profile request lost its profile (no %q):\n%s", want, plan.String())
			}
		}
	}
	if n := inner.n.Load(); n != 2 {
		t.Errorf("profile requests executed %d times, want 2", n)
	}
	if v := executions.Value(); v != 2 {
		t.Errorf("serve executions = %d, want 2", v)
	}
	if stats := s.Stats(); stats.CacheEntries != 0 {
		t.Errorf("profile answers cached: %+v", stats)
	}

	if _, _, err := s.QueryX(ctx, endpoint.Request{Query: "NOT SPARQL AT ALL"}); err == nil {
		t.Error("unparseable query did not error")
	}
	if _, _, err := s.QueryX(ctx, endpoint.Request{Query: "NOT SPARQL AT ALL"}); err == nil {
		t.Error("unparseable query did not error on repeat")
	}
	if n := inner.n.Load(); n != 4 {
		t.Errorf("executions after unparseable queries = %d, want 4", n)
	}
}

// TestErrorsNotCached: a failing execution leaves no cache entry.
func TestErrorsNotCached(t *testing.T) {
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Down: true})
	inner := &countingClient{inner: fault}
	s := New(inner, WithResultCache(16))
	ctx := context.Background()

	if _, _, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery}); err == nil {
		t.Fatal("down backend did not error")
	}
	fault.SetDown(false)
	_, meta, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
	if err != nil {
		t.Fatal(err)
	}
	if meta.CacheHit {
		t.Error("recovered query hit a cache entry left by a failure")
	}
	if n := inner.n.Load(); n != 2 {
		t.Errorf("inner client executed %d times, want 2", n)
	}
}

// TestCacheEviction: the cache stays within its bound and counts
// evictions; it answers the same with and without a registry.
func TestCacheEviction(t *testing.T) {
	st := newTestStore(t)
	ctx := context.Background()
	var answers [2][]byte
	for k, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		s := New(endpoint.NewInProcess(st), WithResultCache(2), WithRegistry(reg))
		for i := 0; i < 4; i++ {
			q := fmt.Sprintf(`SELECT ?v WHERE { <http://t/s%d> <http://t/value> ?v }`, i)
			res, _, err := s.QueryX(ctx, endpoint.Request{Query: q})
			if err != nil {
				t.Fatal(err)
			}
			answers[k] = append(answers[k], encode(t, res)...)
		}
		if n := s.cache.Len(); n != 2 {
			t.Errorf("cache occupancy = %d, want 2", n)
		}
		if v := reg.Counter("re2xolap_result_cache_evictions_total", "").Value(); reg != nil && v != 2 {
			t.Errorf("evictions counter = %d, want 2", v)
		}
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Error("answers differ without a registry")
	}
}

// TestHTTPEndToEnd: the stack behind a real endpoint.Server — cache
// state surfaces in the X-Re2xolap-Cache header and bodies stay
// byte-identical.
func TestHTTPEndToEnd(t *testing.T) {
	st := newTestStore(t)
	stack := New(endpoint.NewInProcess(st), WithResultCache(16))
	srv := httptest.NewServer(endpoint.NewClientServer(stack))
	defer srv.Close()

	get := func() (string, []byte) {
		resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(valueQuery))
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
		if resp.Header.Get(endpoint.GenerationHeader) == "" {
			t.Error("missing generation header")
		}
		return resp.Header.Get(endpoint.CacheHeader), body
	}

	state1, body1 := get()
	if state1 != "" {
		t.Errorf("cold response cache header = %q, want empty", state1)
	}
	state2, body2 := get()
	if state2 != "hit" {
		t.Errorf("warm response cache header = %q, want %q", state2, "hit")
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("HTTP bodies differ:\n%s\nvs\n%s", body1, body2)
	}
}

// TestHTTPShedding: an overloaded stack surfaces as 429 + Retry-After.
func TestHTTPShedding(t *testing.T) {
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Latency: 300 * time.Millisecond})
	stack := New(fault,
		WithAdmission(AdmissionConfig{MaxConcurrent: 1, QueueBudget: 1}))
	srv := httptest.NewServer(endpoint.NewClientServer(stack))
	defer srv.Close()

	// Distinct queries so single-flight cannot coalesce them away; 6
	// concurrent requests against 1 slot + 1 queue spot.
	const n = 6
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf(`SELECT ?v WHERE { <http://t/s%d> <http://t/value> ?v }`, i)
			resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(q))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}(i)
	}
	wg.Wait()
	var ok, shed int
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under load")
	}
	if shed == 0 {
		t.Errorf("no request was shed (codes %v)", codes)
	}
}

// TestTenantHeaderIsolation: tenants get independent admission
// budgets, keyed off the configured header.
func TestTenantHeaderIsolation(t *testing.T) {
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{})
	stack := New(fault,
		WithAdmission(AdmissionConfig{MaxConcurrent: 1, QueueBudget: 1}))
	srv := httptest.NewServer(endpoint.NewClientServer(stack, endpoint.WithTenantHeader("X-Tenant")))
	defer srv.Close()

	// Saturate tenant A: one slow query holds its only slot, one more
	// fills its queue. All three query texts differ, so none coalesces
	// onto another.
	fault.SetLatency(400 * time.Millisecond)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf(`SELECT ?v WHERE { <http://t/s%d> <http://t/value> ?v }`, i)
			req, _ := http.NewRequest("GET", srv.URL+"/sparql?query="+url.QueryEscape(q), nil)
			req.Header.Set("X-Tenant", "a")
			if i == 0 {
				close(release)
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	<-release
	time.Sleep(50 * time.Millisecond) // let tenant A saturate

	// Tenant B must be admitted immediately despite A's full queue.
	fault.SetLatency(-1)
	req, _ := http.NewRequest("GET", srv.URL+"/sparql?query="+url.QueryEscape(valueQuery), nil)
	req.Header.Set("X-Tenant", "b")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("tenant b status %d, want 200", resp.StatusCode)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("tenant b waited %s behind tenant a's queue", d)
	}
	wg.Wait()
}

// TestQueueWaitReported: a request that queued reports its wait in
// QueryMeta.
func TestQueueWaitReported(t *testing.T) {
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Latency: 150 * time.Millisecond})
	s := New(fault,
		WithAdmission(AdmissionConfig{MaxConcurrent: 1, QueueBudget: 4}))
	ctx := context.Background()

	started := make(chan struct{})
	go func() {
		close(started)
		s.QueryX(ctx, endpoint.Request{Query: valueQuery})
	}()
	<-started
	time.Sleep(30 * time.Millisecond) // the slot is now held
	q2 := `SELECT ?v WHERE { <http://t/s1> <http://t/value> ?v }`
	_, meta, err := s.QueryX(ctx, endpoint.Request{Query: q2})
	if err != nil {
		t.Fatal(err)
	}
	if meta.QueueWait <= 0 {
		t.Errorf("queued request reports QueueWait = %s, want > 0", meta.QueueWait)
	}
}

// TestAdmissionQueueFullShed: requests beyond the queue budget fail
// fast with the overload taxonomy class, with and without a registry.
func TestAdmissionQueueFullShed(t *testing.T) {
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		admissionQueueFullShed(t, reg)
	}
}

func admissionQueueFullShed(t *testing.T, reg *obs.Registry) {
	t.Helper()
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Latency: 300 * time.Millisecond})
	s := New(fault,
		WithAdmission(AdmissionConfig{MaxConcurrent: 1, QueueBudget: 1}),
		WithRegistry(reg))
	ctx := context.Background()

	// Eight distinct texts: a coalesced duplicate would share its
	// leader's shed error without being shed itself.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf(`SELECT ?v WHERE { <http://t/s%d> <http://t/value> ?v }`, i)
			_, _, errs[i] = s.QueryX(ctx, endpoint.Request{Query: q})
		}(i)
	}
	wg.Wait()
	var shed int
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, endpoint.ErrOverloaded) {
			t.Errorf("shed error lacks ErrOverloaded: %v", err)
		}
		if !errors.Is(err, endpoint.ErrRetryable) {
			t.Errorf("shed error lacks ErrRetryable: %v", err)
		}
		if !strings.Contains(err.Error(), "queue full") {
			t.Errorf("unexpected shed reason: %v", err)
		}
		shed++
	}
	if shed == 0 {
		t.Error("no request was shed")
	}
	if v := reg.Counter("re2xolap_serve_shed_total", "", obs.L("reason", "queue_full"), obs.L("tenant", "default")).Value(); reg != nil && v != int64(shed) {
		t.Errorf("shed counter = %d, want %d", v, shed)
	}
}

// TestAdmissionDeadlineShed: a queued request whose deadline the
// service-time EWMA predicts it cannot meet is rejected immediately
// instead of timing out in the queue.
func TestAdmissionDeadlineShed(t *testing.T) {
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Latency: 150 * time.Millisecond})
	s := New(fault,
		WithAdmission(AdmissionConfig{MaxConcurrent: 1, QueueBudget: 8}))
	ctx := context.Background()

	// Warm the EWMA with one solo query (~150ms service time).
	if _, _, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery}); err != nil {
		t.Fatal(err)
	}

	// Hold the only slot...
	started := make(chan struct{})
	go func() {
		close(started)
		s.QueryX(ctx, endpoint.Request{Query: `SELECT ?v WHERE { <http://t/s1> <http://t/value> ?v }`})
	}()
	<-started
	time.Sleep(30 * time.Millisecond)

	// ...then ask with a deadline far below the predicted ~150ms wait.
	shortCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := s.QueryX(shortCtx, endpoint.Request{Query: `SELECT ?v WHERE { <http://t/s2> <http://t/value> ?v }`})
	if !errors.Is(err, endpoint.ErrOverloaded) {
		t.Fatalf("want deadline shed (ErrOverloaded), got %v", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("unexpected shed reason: %v", err)
	}
	// The point of predictive shedding: the rejection is immediate,
	// not after burning the 20ms budget in the queue.
	if d := time.Since(start); d > 15*time.Millisecond {
		t.Errorf("deadline shed took %s, want immediate", d)
	}
}
