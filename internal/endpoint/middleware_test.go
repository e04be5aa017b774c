package endpoint

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecoverMiddleware(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(nil)
	h := Recover(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("query of death")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
}

func TestWithQueryTimeoutSetsDeadline(t *testing.T) {
	var had bool
	h := WithQueryTimeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, had = r.Context().Deadline()
	}), time.Minute)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if !had {
		t.Error("request context carries no deadline")
	}
	// 0 disables: the handler is returned as-is.
	inner := http.NewServeMux()
	if got := WithQueryTimeout(inner, 0); got != http.Handler(inner) {
		t.Error("zero timeout should be a no-op wrapper")
	}
}

func TestLimitInFlightSheds(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 4)
	h := LimitInFlight(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-block
	}), 2)
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	<-entered
	<-entered
	// Both slots held: the next request is shed with 503.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	close(block)
	wg.Wait()
	// Slots free again: admitted.
	resp2, err := http.Get(srv.URL + "?x=1")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusServiceUnavailable {
		t.Error("request shed after load dropped")
	}
	// blocked handler admits the late request; drain it
	select {
	case <-entered:
	default:
	}
}

// TestServerQueryTimeoutReturns503 wires the real SPARQL server behind
// WithQueryTimeout with a microscopic deadline and checks the protocol
// answer is a retryable 503, which the HTTPClient then classifies.
func TestServerQueryTimeoutReturns503(t *testing.T) {
	h := Harden(NewServer(testStore(t)), HardenConfig{QueryTimeout: time.Nanosecond})
	srv := httptest.NewServer(h)
	defer srv.Close()
	q := url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o . }`)
	resp, err := http.Get(srv.URL + "?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, strings.TrimSpace(string(body)))
	}

	// And through the client: the error must be retryable, so the
	// resilient layer would try again.
	c := NewHTTPClient(srv.URL)
	_, qerr := c.Query(context.Background(), `SELECT ?s WHERE { ?s ?p ?o . }`)
	if qerr == nil {
		t.Fatal("503 swallowed")
	}
	if !Retryable(qerr) {
		t.Errorf("server timeout not retryable at the client: %v", qerr)
	}
}

func TestHardenStackOrder(t *testing.T) {
	// A panicking handler behind the full stack: the shed limiter must
	// not leak slots when the handler panics.
	log.SetOutput(io.Discard)
	defer log.SetOutput(nil)
	h := Harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), HardenConfig{MaxInFlight: 1, QueryTimeout: time.Minute})
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status = %d, want 500 (slot leaked?)", i, rec.Code)
		}
	}
}
