package serve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/sparql"
)

// TestSingleFlight32 is the acceptance test: 32 concurrent identical
// queries execute the engine exactly once; the other 31 coalesce onto
// that execution and every answer is byte-identical — with and without
// a registry.
func TestSingleFlight32(t *testing.T) {
	bare := singleFlight32(t, nil)
	if metered := singleFlight32(t, obs.NewRegistry()); !bytes.Equal(bare, metered) {
		t.Fatal("coalesced answer differs without a registry")
	}
}

// singleFlight32 runs the scenario on a stack publishing to reg and
// returns the shared answer's bytes.
func singleFlight32(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Latency: 200 * time.Millisecond})
	inner := &countingClient{inner: fault}
	s := New(inner, WithRegistry(reg)) // no cache: dedup alone must carry this
	ctx := context.Background()

	const n = 32
	type answer struct {
		res  *sparql.Results
		meta endpoint.QueryMeta
		err  error
	}
	answers := make([]answer, n)
	var wg sync.WaitGroup

	// The leader goes first and is held in flight by the injected
	// latency; the 31 duplicates arrive while it runs.
	leaderIn := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(leaderIn)
		res, meta, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
		answers[0] = answer{res, meta, err}
	}()
	<-leaderIn
	time.Sleep(50 * time.Millisecond)
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, meta, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
			answers[i] = answer{res, meta, err}
		}(i)
	}
	wg.Wait()

	if got := inner.n.Load(); got != 1 {
		t.Fatalf("engine executed %d times, want exactly 1", got)
	}
	first := encode(t, answers[0].res)
	var coalesced int
	for i, a := range answers {
		if a.err != nil {
			t.Fatalf("request %d: %v", i, a.err)
		}
		if a.meta.Coalesced {
			coalesced++
		}
		if !bytes.Equal(encode(t, a.res), first) {
			t.Errorf("request %d answer diverges from the leader's", i)
		}
	}
	if coalesced != n-1 {
		t.Errorf("%d requests coalesced, want %d", coalesced, n-1)
	}
	if reg == nil {
		return first
	}
	if v := reg.Counter("re2xolap_serve_coalesced_total", "").Value(); v != n-1 {
		t.Errorf("coalesced counter = %d, want %d", v, n-1)
	}
	if v := reg.Counter("re2xolap_serve_executions_total", "").Value(); v != 1 {
		t.Errorf("executions counter = %d, want 1", v)
	}
	return first
}

// TestSingleFlightDistinctQueriesDoNotCoalesce: dedup keys on the
// canonical query, so different queries run independently.
func TestSingleFlightDistinctQueriesDoNotCoalesce(t *testing.T) {
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Latency: 50 * time.Millisecond})
	inner := &countingClient{inner: fault}
	s := New(inner)
	ctx := context.Background()

	var wg sync.WaitGroup
	queries := []string{
		`SELECT ?v WHERE { <http://t/s0> <http://t/value> ?v }`,
		`SELECT ?v WHERE { <http://t/s1> <http://t/value> ?v }`,
	}
	for _, q := range queries {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			if _, meta, err := s.QueryX(ctx, endpoint.Request{Query: q}); err != nil {
				t.Error(err)
			} else if meta.Coalesced {
				t.Error("distinct query was coalesced")
			}
		}(q)
	}
	wg.Wait()
	if got := inner.n.Load(); got != 2 {
		t.Errorf("engine executed %d times, want 2", got)
	}
}

// TestSingleFlightDuplicateHonorsOwnContext: a duplicate whose context
// expires abandons the wait with its own context error; the leader is
// unaffected.
func TestSingleFlightDuplicateHonorsOwnContext(t *testing.T) {
	st := newTestStore(t)
	fault := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Latency: 200 * time.Millisecond})
	s := New(fault)
	ctx := context.Background()

	leaderIn := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		close(leaderIn)
		_, _, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery})
		leaderDone <- err
	}()
	<-leaderIn
	time.Sleep(30 * time.Millisecond)

	dupCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	_, _, err := s.QueryX(dupCtx, endpoint.Request{Query: valueQuery})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("abandoning duplicate: got %v, want deadline exceeded", err)
	}
	if err := <-leaderDone; err != nil {
		t.Errorf("leader failed after duplicate abandoned: %v", err)
	}
}
