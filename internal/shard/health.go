package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"re2xolap/internal/endpoint"
)

// HealthConfig tunes the coordinator's background replica prober. The
// prober runs one sweep immediately at construction and then every
// Interval: each replica gets a cheap health check (endpoint.Ping —
// GET /healthz for HTTP replicas, an ASK probe otherwise) under
// Timeout, feeding a per-replica up/down state machine. A replica
// turns down after FailThreshold consecutive failed probes and back
// up after RecoverThreshold consecutive successes — probing never
// stops while a replica is down, so recovery is automatic.
type HealthConfig struct {
	// Interval between probe sweeps; <= 0 disables the prober entirely
	// (replicas then stay routable and failover alone handles faults).
	Interval time.Duration
	// Timeout bounds one probe; 0 means 1s.
	Timeout time.Duration
	// FailThreshold is how many consecutive probe failures mark a
	// replica down; 0 means 2.
	FailThreshold int
	// RecoverThreshold is how many consecutive probe successes mark a
	// down replica up again; 0 means 2.
	RecoverThreshold int
}

// withDefaults fills the zero fields.
func (h HealthConfig) withDefaults() HealthConfig {
	if h.Timeout <= 0 {
		h.Timeout = time.Second
	}
	if h.FailThreshold <= 0 {
		h.FailThreshold = 2
	}
	if h.RecoverThreshold <= 0 {
		h.RecoverThreshold = 2
	}
	return h
}

// healthState is one replica's probe-driven state. Routing reads `up`
// lock-free; the streak counters are mutated only by the prober
// goroutine. Replicas start optimistically up (so a coordinator
// without a prober routes normally) but unprobed (so readiness can
// insist on at least one confirmed-healthy replica per shard).
//
// The state survives topology reloads: a replica whose client a
// reload hands back keeps its breaker and its health history.
type healthState struct {
	up     atomic.Bool
	probed atomic.Bool
	// prober-goroutine-private:
	consecFails int
	consecOKs   int
}

func newHealthState() *healthState {
	h := &healthState{}
	h.up.Store(true)
	return h
}

// observe feeds one probe outcome through the state machine and
// reports whether the up/down state flipped.
func (h *healthState) observe(ok bool, cfg HealthConfig) (flipped bool) {
	defer h.probed.Store(true)
	if ok {
		h.consecOKs++
		h.consecFails = 0
		if !h.up.Load() && h.consecOKs >= cfg.RecoverThreshold {
			h.up.Store(true)
			return true
		}
		return false
	}
	h.consecFails++
	h.consecOKs = 0
	if h.up.Load() && h.consecFails >= cfg.FailThreshold {
		h.up.Store(false)
		return true
	}
	return false
}

// probeLoop is the coordinator's background prober: an immediate
// first sweep (so readiness converges right after construction), then
// one sweep per tick until ctx ends. Each sweep probes the replicas
// of the *current* view, so reloaded topologies are picked up on the
// next tick without restarting the loop.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer close(c.probeDone)
	cfg := c.cfg.Health.withDefaults()
	c.sweep(ctx, cfg)
	t := time.NewTicker(cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.sweep(ctx, cfg)
		}
	}
}

// sweep probes every replica of the current view concurrently and
// applies the outcomes. Probe concurrency is one goroutine per
// replica: probes are cheap and a hung replica (blackhole) must not
// delay the others past its own Timeout.
func (c *Coordinator) sweep(ctx context.Context, cfg HealthConfig) {
	v := c.view.Load()
	if v == nil {
		return
	}
	done := make(chan struct{})
	// Counted before the first probe starts: a probe that finishes
	// while later ones are still being launched must not see zero.
	var pending atomic.Int64
	for _, g := range v.groups {
		pending.Add(int64(len(g.replicas)))
	}
	if pending.Load() == 0 {
		return
	}
	for _, g := range v.groups {
		for _, r := range g.replicas {
			go func(r *replica) {
				defer func() {
					if pending.Add(-1) == 0 {
						close(done)
					}
				}()
				c.probeOne(ctx, cfg, r)
			}(r)
		}
	}
	select {
	case <-done:
	case <-ctx.Done():
	}
}

// probeOne health-checks one replica and feeds its state machine,
// gauges, and probe-latency histogram.
func (c *Coordinator) probeOne(ctx context.Context, cfg HealthConfig, r *replica) {
	pctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	start := time.Now()
	err := endpoint.Ping(pctx, r.raw)
	cancel()
	if ctx.Err() != nil {
		// The coordinator is shutting down; a probe cut short by that is
		// not evidence about the replica.
		return
	}
	r.mProbe.ObserveDuration(time.Since(start))
	if r.health.observe(err == nil, cfg) {
		c.m.transition(err == nil)
	}
	r.publishUp()
}

// Ready reports coordinator readiness: every shard needs at least one
// replica that is up — and, when the prober runs, confirmed by at
// least one completed probe. Before the first sweep finishes the
// coordinator reports not-ready, which is exactly what a load
// balancer should see for a cold process. Wire it into the serving
// layer via endpoint.WithReadiness(c.Ready).
func (c *Coordinator) Ready() error {
	v := c.view.Load()
	probing := c.cfg.Health.Interval > 0
	for i, g := range v.groups {
		ok := false
		for _, r := range g.replicas {
			if r.health.up.Load() && (!probing || r.health.probed.Load()) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("shard %d: no healthy replica (of %d)", i, len(g.replicas))
		}
	}
	return nil
}
