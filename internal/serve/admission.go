package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"re2xolap/internal/endpoint"
)

// AdmissionConfig tunes per-tenant admission control. The zero value
// of a field takes its documented default; a zero-value config as a
// whole is usable.
type AdmissionConfig struct {
	// MaxConcurrent bounds concurrently executing queries per tenant;
	// <= 0 means DefaultMaxConcurrent.
	MaxConcurrent int
	// QueueBudget bounds how many requests per tenant may wait for an
	// execution slot; a request arriving to a full queue is shed
	// immediately (reason "queue_full"). <= 0 means DefaultQueueBudget.
	QueueBudget int
}

// Admission defaults.
const (
	DefaultMaxConcurrent = 16
	DefaultQueueBudget   = 64
)

// defaultTenant buckets requests that carry no tenant identity.
const defaultTenant = "default"

// ewmaAlpha weights the newest service-time sample in the per-tenant
// moving average the deadline-aware shedder predicts queue wait from.
const ewmaAlpha = 0.2

// tenantState is one tenant's admission bookkeeping.
type tenantState struct {
	sem    chan struct{} // buffered; a token = one execution slot
	queued atomic.Int64  // callers blocked waiting for a slot
	// ewmaNanos is the smoothed per-query service time; 0 until the
	// first sample lands (the shedder then cannot predict and admits).
	ewmaNanos atomic.Int64
}

// admission implements per-tenant concurrency limits, bounded FIFO
// queueing, and deadline-aware shedding. Shed requests fail with
// endpoint.ErrOverloaded (retryable; the HTTP server maps it to
// 429 + Retry-After) without consuming an execution slot.
type admission struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	tenants map[string]*tenantState

	// sheds counts rejections across tenants and reasons (StackStats'
	// aggregate; the per-reason/tenant breakdown lives in the registry
	// counters).
	sheds atomic.Int64

	m *metrics
}

func newAdmission(cfg AdmissionConfig, m *metrics) *admission {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.QueueBudget <= 0 {
		cfg.QueueBudget = DefaultQueueBudget
	}
	return &admission{cfg: cfg, tenants: make(map[string]*tenantState), m: m}
}

// state returns (lazily creating) the tenant's bookkeeping.
func (a *admission) state(tenant string) *tenantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts, ok := a.tenants[tenant]
	if !ok {
		ts = &tenantState{sem: make(chan struct{}, a.cfg.MaxConcurrent)}
		a.tenants[tenant] = ts
	}
	return ts
}

// queueDepth sums queued callers across tenants (the exported gauge).
func (a *admission) queueDepth() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, ts := range a.tenants {
		n += ts.queued.Load()
	}
	return n
}

// acquire admits one request for the tenant from ctx, blocking in the
// tenant's FIFO queue when all execution slots are busy. It returns
// the time spent queued. Shedding happens in two places, both before
// any waiting that cannot pay off: when the queue is at its budget
// ("queue_full"), and when the service-time EWMA predicts the queue
// wait alone would exceed the request's deadline ("deadline" — reject
// now so the caller can retry elsewhere instead of timing out here).
func (a *admission) acquire(ctx context.Context) (release func(), queueWait time.Duration, err error) {
	tenant := endpoint.TenantFrom(ctx)
	if tenant == "" {
		tenant = defaultTenant
	}
	ts := a.state(tenant)

	done := func() func() {
		start := time.Now()
		return func() {
			// Service time feeds the EWMA the shedder predicts with.
			sample := time.Since(start).Nanoseconds()
			for {
				old := ts.ewmaNanos.Load()
				var next int64
				if old == 0 {
					next = sample
				} else {
					next = old + int64(ewmaAlpha*float64(sample-old))
				}
				if ts.ewmaNanos.CompareAndSwap(old, next) {
					break
				}
			}
			<-ts.sem
		}
	}

	// Fast path: a free slot means no queueing and no shedding.
	select {
	case ts.sem <- struct{}{}:
		return done(), 0, nil
	default:
	}

	queued := ts.queued.Add(1)
	defer ts.queued.Add(-1)
	if queued > int64(a.cfg.QueueBudget) {
		a.sheds.Add(1)
		a.m.shed("queue_full", tenant)
		return nil, 0, endpoint.MarkOverloaded(fmt.Errorf(
			"serve: tenant %q queue full (%d waiting, budget %d)", tenant, queued-1, a.cfg.QueueBudget))
	}
	if deadline, ok := ctx.Deadline(); ok {
		if ewma := ts.ewmaNanos.Load(); ewma > 0 {
			// Everyone ahead (queued-1 callers plus MaxConcurrent
			// executors) must finish before this request runs; slots
			// drain in parallel, so the predicted wait is the queue
			// position in units of full drain rounds.
			rounds := (queued + int64(a.cfg.MaxConcurrent) - 1) / int64(a.cfg.MaxConcurrent)
			predicted := time.Duration(ewma * rounds)
			if remaining := time.Until(deadline); predicted > remaining {
				a.sheds.Add(1)
				a.m.shed("deadline", tenant)
				return nil, 0, endpoint.MarkOverloaded(fmt.Errorf(
					"serve: tenant %q predicted queue wait %s exceeds deadline budget %s",
					tenant, predicted.Round(time.Millisecond), remaining.Round(time.Millisecond)))
			}
		}
	}

	wait := time.Now()
	select {
	case ts.sem <- struct{}{}:
		queueWait = time.Since(wait)
		a.m.observeQueueWait(queueWait, tenant)
		return done(), queueWait, nil
	case <-ctx.Done():
		return nil, time.Since(wait), ctx.Err()
	}
}
