package endpoint

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"re2xolap/internal/obs"
	"re2xolap/internal/sparql"
)

// scriptClient fails according to a script of errors, then succeeds.
type scriptClient struct {
	mu     sync.Mutex
	script []error // consumed front to back; nil entry = success
	calls  int
	block  chan struct{} // when non-nil, Query waits here (limiter tests)
}

func (c *scriptClient) Query(ctx context.Context, query string) (*sparql.Results, error) {
	if c.block != nil {
		select {
		case <-c.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c.mu.Lock()
	c.calls++
	var err error
	if len(c.script) > 0 {
		err = c.script[0]
		c.script = c.script[1:]
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &sparql.Results{Vars: []string{"x"}}, nil
}

func (c *scriptClient) callCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// noSleep is injected so retry tests run instantly.
func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func testPolicy() Policy {
	return Policy{
		MaxRetries:       3,
		BaseBackoff:      time.Millisecond,
		BreakerThreshold: 0,
		Sleep:            noSleep,
	}
}

// resilientCount reads one of a ResilientClient's registry counters.
func resilientCount(reg *obs.Registry, name string, labels ...obs.Label) int64 {
	return reg.Counter(name, "", labels...).Value()
}

func TestResilientRetriesTransient(t *testing.T) {
	inner := &scriptClient{script: []error{
		MarkRetryable(errors.New("reset")),
		&StatusError{Code: 503},
		nil,
	}}
	reg := obs.NewRegistry()
	c := NewResilient(inner, WithPolicy(testPolicy()), WithRegistry(reg))
	res, err := c.Query(context.Background(), "SELECT * WHERE {}")
	if err != nil {
		t.Fatalf("retryable failures not retried: %v", err)
	}
	if res == nil || inner.callCount() != 3 {
		t.Errorf("calls = %d, want 3", inner.callCount())
	}
	retries := resilientCount(reg, "re2xolap_resilient_retries_total")
	queries := resilientCount(reg, "re2xolap_endpoint_queries_total", obs.L("client", "resilient"))
	if retries != 2 || queries != 1 {
		t.Errorf("retries = %d, queries = %d, want 2 and 1", retries, queries)
	}
}

func TestResilientNoRetryOnPermanent(t *testing.T) {
	inner := &scriptClient{script: []error{
		&StatusError{Code: 400, Body: "syntax error"},
		nil,
	}}
	c := NewResilient(inner, WithPolicy(testPolicy()))
	_, err := c.Query(context.Background(), "NOT SPARQL")
	if err == nil {
		t.Fatal("permanent failure swallowed")
	}
	if !errors.Is(err, ErrPermanent) {
		t.Errorf("err = %v, not ErrPermanent", err)
	}
	if errors.Is(err, ErrRetryable) {
		t.Errorf("400 classified retryable")
	}
	if inner.callCount() != 1 {
		t.Errorf("calls = %d, want 1 (no retry on 400)", inner.callCount())
	}
}

func TestResilientRetryBudgetExhausted(t *testing.T) {
	var script []error
	for i := 0; i < 10; i++ {
		script = append(script, MarkRetryable(fmt.Errorf("flake %d", i)))
	}
	inner := &scriptClient{script: script}
	p := testPolicy()
	p.MaxRetries = 2
	c := NewResilient(inner, WithPolicy(p))
	_, err := c.Query(context.Background(), "SELECT * WHERE {}")
	if err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if !Retryable(err) {
		t.Errorf("err lost its classification: %v", err)
	}
	if inner.callCount() != 3 {
		t.Errorf("calls = %d, want 3 (1 + 2 retries)", inner.callCount())
	}
}

func TestResilientOverallDeadline(t *testing.T) {
	// The inner client blocks forever; the policy deadline must cut it
	// off and surface ErrTimeout.
	inner := &scriptClient{block: make(chan struct{})}
	p := testPolicy()
	p.Timeout = 30 * time.Millisecond
	c := NewResilient(inner, WithPolicy(p))
	t0 := time.Now()
	_, err := c.Query(context.Background(), "SELECT * WHERE {}")
	if err == nil {
		t.Fatal("deadline ignored")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, not ErrTimeout", err)
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Errorf("took %s, deadline not enforced", el)
	}
	if !Transient(err) {
		t.Errorf("timeout not Transient")
	}
}

// clientFunc adapts a function to the Client interface.
type clientFunc func(ctx context.Context, query string) (*sparql.Results, error)

func (f clientFunc) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return f(ctx, query)
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	inner := clientFunc(func(ctx context.Context, q string) (*sparql.Results, error) {
		if healthy.Load() {
			return &sparql.Results{}, nil
		}
		return nil, MarkRetryable(errors.New("down"))
	})
	p := Policy{
		MaxRetries:       0,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Hour, // only the fake clock moves it
		Sleep:            noSleep,
	}
	reg := obs.NewRegistry()
	c := NewResilient(inner, WithPolicy(p), WithRegistry(reg))
	now := time.Now()
	c.now = func() time.Time { return now }

	ctx := context.Background()
	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Query(ctx, "q"); err == nil {
			t.Fatal("down endpoint succeeded")
		}
	}
	if got := c.State(); got != "open" {
		t.Fatalf("state after threshold = %s, want open", got)
	}
	// While open, queries fail fast with ErrCircuitOpen.
	_, err := c.Query(ctx, "q")
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker err = %v, want ErrCircuitOpen", err)
	}
	if Transient(err) {
		t.Error("ErrCircuitOpen must not be Transient (bulk callers abort)")
	}
	// Cooldown passes; the endpoint is still down: the half-open probe
	// fails and the breaker re-opens.
	now = now.Add(2 * time.Hour)
	if _, err := c.Query(ctx, "q"); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open probe err = %v, want the real failure", err)
	}
	if got := c.State(); got != "open" {
		t.Fatalf("state after failed probe = %s, want open", got)
	}
	// Endpoint recovers; after another cooldown the probe succeeds and
	// the breaker closes.
	healthy.Store(true)
	now = now.Add(2 * time.Hour)
	if _, err := c.Query(ctx, "q"); err != nil {
		t.Fatalf("successful probe rejected: %v", err)
	}
	if got := c.State(); got != "closed" {
		t.Fatalf("state after recovery = %s, want closed", got)
	}
	if trips := resilientCount(reg, "re2xolap_resilient_breaker_trips_total"); trips != 2 {
		t.Errorf("trips = %d, want 2", trips)
	}
}

func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	inner := clientFunc(func(ctx context.Context, q string) (*sparql.Results, error) {
		close(started)
		<-release
		return &sparql.Results{}, nil
	})
	p := Policy{BreakerThreshold: 1, BreakerCooldown: time.Hour, Sleep: noSleep}
	c := NewResilient(inner, WithPolicy(p))
	now := time.Now()
	c.now = func() time.Time { return now }

	// Trip it with a direct failure record.
	c.recordFailure()
	if c.State() != "open" {
		t.Fatal("threshold 1 did not trip")
	}
	now = now.Add(2 * time.Hour)

	done := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), "probe")
		done <- err
	}()
	<-started
	// A second query while the probe is in flight is rejected.
	if _, err := c.Query(context.Background(), "q"); !errors.Is(err, ErrCircuitOpen) {
		t.Errorf("concurrent query during probe: %v, want ErrCircuitOpen", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("probe failed: %v", err)
	}
	if c.State() != "closed" {
		t.Errorf("state = %s after successful probe", c.State())
	}
}

func TestResilientInFlightLimit(t *testing.T) {
	block := make(chan struct{})
	inner := &scriptClient{block: block}
	p := Policy{MaxInFlight: 2, Sleep: noSleep}
	c := NewResilient(inner, WithPolicy(p))

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Query(context.Background(), "q")
		}()
	}
	// Give both goroutines time to take their slots and park in the
	// blocked inner client.
	time.Sleep(20 * time.Millisecond)
	// Third caller cannot get a slot before its context expires.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Query(ctx, "q")
	if err == nil {
		t.Fatal("limiter admitted a third query")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("blocked caller err = %v, want ErrTimeout", err)
	}
	close(block)
	wg.Wait()
}

// TestResilientConcurrent hammers one client from many goroutines over
// a flaky inner client; run with -race to check the breaker locking
// and the registry counters.
func TestResilientConcurrent(t *testing.T) {
	var n atomic.Int64
	inner := clientFunc(func(ctx context.Context, q string) (*sparql.Results, error) {
		if n.Add(1)%3 == 0 {
			return nil, MarkRetryable(errors.New("flake"))
		}
		return &sparql.Results{}, nil
	})
	// Failures are positional (every 3rd global call), so under
	// interleaving one query can draw several failing attempts in a
	// row; a deep retry budget keeps exhaustion out of the picture —
	// this test is about locking, not retry limits.
	p := Policy{
		MaxRetries:       20,
		BaseBackoff:      time.Microsecond,
		BreakerThreshold: 50,
		MaxInFlight:      8,
		Jitter:           0.5,
	}
	reg := obs.NewRegistry()
	c := NewResilient(inner, WithPolicy(p), WithRegistry(reg))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Query(context.Background(), "q"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query failed despite retries: %v", err)
	}
	if got := resilientCount(reg, "re2xolap_endpoint_queries_total", obs.L("client", "resilient")); got != 64 {
		t.Errorf("queries = %d, want 64", got)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		retryable bool
		permanent bool
		transient bool
	}{
		{"429", &StatusError{Code: 429}, true, false, true},
		{"500", &StatusError{Code: 500}, true, false, true},
		{"503", &StatusError{Code: 503}, true, false, true},
		{"400", &StatusError{Code: 400}, false, true, false},
		{"404", &StatusError{Code: 404}, false, true, false},
		{"marked retryable", MarkRetryable(errors.New("x")), true, false, true},
		{"marked permanent", MarkPermanent(errors.New("x")), false, true, false},
		{"wrapped retryable", fmt.Errorf("outer: %w", MarkRetryable(errors.New("x"))), true, false, true},
		{"plain", errors.New("x"), false, false, false},
	}
	for _, tt := range cases {
		if got := Retryable(tt.err); got != tt.retryable {
			t.Errorf("%s: Retryable = %v", tt.name, got)
		}
		if got := errors.Is(tt.err, ErrPermanent); got != tt.permanent {
			t.Errorf("%s: permanent = %v", tt.name, got)
		}
		if got := Transient(tt.err); got != tt.transient {
			t.Errorf("%s: Transient = %v", tt.name, got)
		}
	}
	if MarkRetryable(nil) != nil || MarkPermanent(nil) != nil {
		t.Error("marking nil must stay nil")
	}
}
