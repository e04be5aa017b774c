package endpoint

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"re2xolap/internal/obs"
	"re2xolap/internal/sparql"
)

// Policy configures the ResilientClient. The zero value disables every
// mechanism; DefaultPolicy returns sensible production settings.
type Policy struct {
	// Timeout bounds one Query call end to end, across all retries.
	// 0 means no client-imposed deadline.
	Timeout time.Duration
	// MaxRetries is how many times a failed attempt is retried (so the
	// worst case issues MaxRetries+1 requests). Only retryable failures
	// are retried; permanent ones return immediately.
	MaxRetries int
	// BaseBackoff is the delay before the first retry; each subsequent
	// retry doubles it, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. 0 means 30s.
	MaxBackoff time.Duration
	// Jitter is the fraction of the backoff randomized away (0..1) to
	// decorrelate concurrent retriers. 0 means full deterministic
	// backoff; DefaultPolicy uses 0.5.
	Jitter float64
	// BreakerThreshold trips the circuit after that many consecutive
	// transient failures; 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before
	// half-opening to let one probe through. 0 means 5s.
	BreakerCooldown time.Duration
	// MaxInFlight bounds concurrent queries through this client;
	// excess callers block until a slot frees or their context ends.
	// 0 means unlimited.
	MaxInFlight int
	// Sleep, when non-nil, replaces the real backoff sleep. It must
	// honour ctx cancellation. Tests inject a no-op here.
	Sleep func(ctx context.Context, d time.Duration) error
}

// DefaultPolicy returns the production defaults: 2-minute query
// deadline, 4 retries from 100ms with 50% jitter, breaker tripping
// after 5 consecutive failures with a 5s cooldown, 16 in-flight.
func DefaultPolicy() Policy {
	return Policy{
		Timeout:          2 * time.Minute,
		MaxRetries:       4,
		BaseBackoff:      100 * time.Millisecond,
		MaxBackoff:       10 * time.Second,
		Jitter:           0.5,
		BreakerThreshold: 5,
		BreakerCooldown:  5 * time.Second,
		MaxInFlight:      16,
	}
}

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// ResilientClient decorates a Client with per-query deadlines, bounded
// exponential backoff with jitter on retryable failures, a circuit
// breaker, and an in-flight limiter. It is safe for concurrent use.
//
// Failure handling follows the package error taxonomy: permanent
// failures (4xx, syntax errors) return immediately and do not count
// against the breaker; retryable failures (network errors, 429/5xx,
// truncated bodies) are retried and, when consecutive, trip the
// breaker, after which queries fail fast with ErrCircuitOpen until a
// half-open probe succeeds.
type ResilientClient struct {
	inner Client
	p     Policy
	sem   chan struct{}

	mu       sync.Mutex
	state    int
	consec   int       // consecutive transient failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
	rng      *rand.Rand
	now      func() time.Time // injectable clock (tests)

	// Registry series (nil handles without WithRegistry, which
	// no-op).
	m        clientMetrics
	mRetries *obs.Counter
	mTrips   *obs.Counter
	mReject  *obs.Counter
	slow     *obs.SlowLog
}

// NewResilient wraps inner with resilience mechanisms. Supported
// options: WithPolicy (default DefaultPolicy), WithRegistry (retry,
// breaker-trip, and rejection counters plus a breaker-state gauge),
// WithSlowQueryLog.
func NewResilient(inner Client, opts ...Option) *ResilientClient {
	o := applyOptions(opts)
	p := DefaultPolicy()
	if o.policy != nil {
		p = *o.policy
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 30 * time.Second
	}
	if p.BreakerCooldown == 0 {
		p.BreakerCooldown = 5 * time.Second
	}
	c := &ResilientClient{
		inner: inner,
		p:     p,
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
		now:   time.Now,
		slow:  o.slow,
	}
	if p.MaxInFlight > 0 {
		c.sem = make(chan struct{}, p.MaxInFlight)
	}
	reg := o.registry
	c.m = newClientMetrics(reg, "resilient")
	c.mRetries = reg.Counter("re2xolap_resilient_retries_total", "Attempts beyond the first.")
	c.mTrips = reg.Counter("re2xolap_resilient_breaker_trips_total", "Breaker transitions to open.")
	c.mReject = reg.Counter("re2xolap_resilient_rejected_total", "Queries rejected by the open breaker.")
	reg.GaugeFunc("re2xolap_resilient_breaker_open", "1 while the breaker is open or half-open.",
		func() float64 {
			if c.State() == "closed" {
				return 0
			}
			return 1
		})
	return c
}

// Unwrap returns the decorated client, so callers can reach features
// of a concrete client (e.g. InProcess.Engine for explain plans).
func (c *ResilientClient) Unwrap() Client { return c.inner }

// State returns the breaker state as a string: "closed", "open", or
// "half-open" (for logs and health endpoints).
func (c *ResilientClient) State() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Query implements Client as a thin adapter over QueryX.
func (c *ResilientClient) Query(ctx context.Context, query string) (*sparql.Results, error) {
	res, _, err := c.QueryX(ctx, Request{Query: query})
	return res, err
}

// QueryX implements QuerierX: wall time spans the whole retry loop
// (backoffs included), Retries/Attempts report the loop's work, and
// the engine phase breakdown from an in-process inner client
// propagates from the successful attempt. Retry and breaker decisions
// are recorded as events on the active trace span.
func (c *ResilientClient) QueryX(ctx context.Context, req Request) (*sparql.Results, QueryMeta, error) {
	meta := QueryMeta{Source: "resilient", Step: req.Opts.Step}
	start := time.Now()
	ctx, span := querySpan(ctx, req, "resilient-query")
	finish := func(res *sparql.Results, err error) (*sparql.Results, QueryMeta, error) {
		meta.Wall = time.Since(start)
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

	// In-flight limiter: block for a slot, but never past the caller's
	// context.
	if c.sem != nil {
		select {
		case c.sem <- struct{}{}:
			defer func() { <-c.sem }()
		case <-ctx.Done():
			return finish(nil, classifyCtx(ctx, fmt.Errorf("endpoint: waiting for query slot: %w", ctx.Err())))
		}
	}

	if c.p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.p.Timeout)
		defer cancel()
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := c.admit(); err != nil {
			span.Event("breaker rejected")
			return finish(nil, err)
		}
		meta.Attempts++
		res, im, err := QueryX(ctx, c.inner, req)
		if err == nil {
			c.recordSuccess()
			meta.Phases, meta.HasPhases = im.Phases, im.HasPhases
			meta.Generation = im.Generation
			meta.CacheHit, meta.Coalesced, meta.QueueWait = im.CacheHit, im.Coalesced, im.QueueWait
			return finish(res, nil)
		}
		err = classifyCtx(ctx, err)
		lastErr = err

		if errors.Is(err, ErrPermanent) {
			// The query itself is bad; the endpoint is healthy. Neither
			// retry nor count against the breaker.
			c.recordSuccess()
			return finish(nil, err)
		}
		c.recordFailure()

		// The overall deadline is gone (or the caller cancelled):
		// stop regardless of the retry budget.
		if ctx.Err() != nil {
			return finish(nil, err)
		}
		if attempt >= c.p.MaxRetries || !Retryable(err) {
			return finish(nil, err)
		}
		meta.Retries++
		c.mRetries.Inc()
		span.Event(fmt.Sprintf("retry %d after: %v", attempt+1, err))
		if err := c.backoff(ctx, attempt); err != nil {
			return finish(nil, classifyCtx(ctx, fmt.Errorf("endpoint: backoff interrupted before retry %d: %w (last failure: %v)", attempt+1, err, lastErr)))
		}
	}
}

// admit consults the breaker: closed admits everything, open rejects
// until the cooldown has passed, half-open admits exactly one probe.
func (c *ResilientClient) admit() error {
	if c.p.BreakerThreshold <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if c.now().Sub(c.openedAt) < c.p.BreakerCooldown {
			c.mReject.Inc()
			return fmt.Errorf("%w (cooling down, %s of %s elapsed)",
				ErrCircuitOpen, c.now().Sub(c.openedAt).Round(time.Millisecond), c.p.BreakerCooldown)
		}
		// Cooldown over: half-open and let this caller probe.
		c.state = breakerHalfOpen
		c.probing = true
		return nil
	default: // half-open
		if c.probing {
			c.mReject.Inc()
			return fmt.Errorf("%w (probe in flight)", ErrCircuitOpen)
		}
		c.probing = true
		return nil
	}
}

// recordSuccess closes the breaker and resets the failure streak.
func (c *ResilientClient) recordSuccess() {
	if c.p.BreakerThreshold <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state = breakerClosed
	c.consec = 0
	c.probing = false
}

// recordFailure advances the failure streak, tripping the breaker at
// the threshold; a failed half-open probe re-opens immediately.
func (c *ResilientClient) recordFailure() {
	if c.p.BreakerThreshold <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == breakerHalfOpen {
		c.state = breakerOpen
		c.openedAt = c.now()
		c.probing = false
		c.mTrips.Inc()
		return
	}
	c.consec++
	if c.state == breakerClosed && c.consec >= c.p.BreakerThreshold {
		c.state = breakerOpen
		c.openedAt = c.now()
		c.mTrips.Inc()
	}
}

// backoff sleeps before retry number attempt+1: base·2^attempt capped
// at MaxBackoff, minus up to Jitter of itself.
func (c *ResilientClient) backoff(ctx context.Context, attempt int) error {
	d := c.p.BaseBackoff
	if d <= 0 {
		return ctx.Err()
	}
	for i := 0; i < attempt && d < c.p.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.p.MaxBackoff {
		d = c.p.MaxBackoff
	}
	if c.p.Jitter > 0 {
		c.mu.Lock()
		f := c.rng.Float64()
		c.mu.Unlock()
		d -= time.Duration(f * c.p.Jitter * float64(d))
	}
	if c.p.Sleep != nil {
		return c.p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
