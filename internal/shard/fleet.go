package shard

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"re2xolap/internal/obs"
)

// FleetConfig tunes the coordinator's fleet metrics collector: a
// scraper that pulls every HTTP replica's /metrics (the same topology
// view the health prober walks), merges the expositions under the
// obs.MergeProm rules, and serves the fleet view via FleetHandler.
// Replicas whose spec is not an http(s) URL (in-process backends)
// cannot be scraped and are excluded from the fleet view; their
// metrics live in the process's own registry.
type FleetConfig struct {
	// Interval between background collection sweeps. <= 0 means
	// on-demand: each FleetHandler request runs one sweep first, which
	// is the right mode for manual inspection and CI; a Prometheus
	// scraping /metrics/fleet every 15s wants a background interval so
	// request latency is one map read, not a fan-out scrape.
	Interval time.Duration
	// Timeout bounds one replica scrape; 0 means 2s.
	Timeout time.Duration
	// Client overrides the scrape HTTP client (tests).
	Client *http.Client
	// Passthrough adds family names to the default passthrough set
	// (per-instance series with an `instance` label instead of merged).
	Passthrough []string
}

// fleetPassthrough is the default set of families kept per-instance:
// process-identity gauges where any cross-instance aggregate (sum or
// max) would misread — a replica's store size, uptime, or goroutine
// count is meaningful only per process.
var fleetPassthrough = []string{
	"re2xolap_store_triples",
	"re2xolap_par_active_workers",
	"process_uptime_seconds",
	"go_goroutines",
	"go_heap_alloc_bytes",
	"go_gc_pause_seconds_total",
}

// maxScrapeBody caps one scrape response (a runaway exposition must
// not balloon coordinator memory).
const maxScrapeBody = 32 << 20

// scrapeState is one target's collection history. The last good
// snapshot is kept across failures so a dead replica's counters stay
// in the fleet totals, marked stale rather than vanishing.
type scrapeState struct {
	snap     *obs.PromSnapshot
	lastGood time.Time
	lastErr  string
}

// fleetCollector drives the scraping. States are keyed "shard|spec"
// (the same identity buildView uses for replica reuse) so history
// survives topology reloads that keep a replica.
type fleetCollector struct {
	c     *Coordinator
	cfg   FleetConfig
	httpc *http.Client

	collectMu sync.Mutex // serializes sweeps (background tick vs on-demand)
	mu        sync.Mutex // guards states
	states    map[string]*scrapeState

	cancel context.CancelFunc
	done   chan struct{}
}

// FleetInstance describes one replica's place in the fleet view.
type FleetInstance struct {
	Shard, Replica int
	Spec           string
	Instance       string // instance label value, "shard<i>/replica<j>"
	Scrapable      bool   // spec is an http(s) URL
	Scraped        bool   // at least one successful scrape
	Stale          bool   // last attempt failed (or never attempted)
	Age            time.Duration
	Err            string
}

// ReplicaStatus is one replica's routing health, as the prober and
// failover see it (Status exposes what the dashboard renders).
type ReplicaStatus struct {
	Shard, Replica int
	Spec           string
	Up, Probed     bool
}

// Status reports the current view's per-replica health.
func (c *Coordinator) Status() []ReplicaStatus {
	v := c.currentView()
	var out []ReplicaStatus
	for i, g := range v.groups {
		for j, r := range g.replicas {
			out = append(out, ReplicaStatus{
				Shard: i, Replica: j, Spec: r.spec,
				Up:     r.health.up.Load(),
				Probed: r.health.probed.Load(),
			})
		}
	}
	return out
}

// startFleet launches the collector when configured (mirrors
// startProber).
func (c *Coordinator) startFleet() {
	if c.cfg.Fleet == nil {
		return
	}
	cfg := *c.cfg.Fleet
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	httpc := cfg.Client
	if httpc == nil {
		httpc = &http.Client{}
	}
	c.fleet = &fleetCollector{c: c, cfg: cfg, httpc: httpc, states: map[string]*scrapeState{}}
	if cfg.Interval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		c.fleet.cancel = cancel
		c.fleet.done = make(chan struct{})
		go c.fleet.loop(ctx)
	}
}

func (f *fleetCollector) loop(ctx context.Context) {
	defer close(f.done)
	f.Collect(ctx)
	t := time.NewTicker(f.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.Collect(ctx)
		}
	}
}

// metricsURL derives the scrape URL from a replica spec: http(s) specs
// have their path replaced by /metrics (the spec addresses /sparql);
// anything else is unscrapable.
func metricsURL(spec string) (string, bool) {
	u, err := url.Parse(spec)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", false
	}
	u.Path, u.RawQuery, u.Fragment = "/metrics", "", ""
	return u.String(), true
}

// Collect runs one sweep: scrape every scrapable replica of the
// current view concurrently, record outcomes, and prune targets the
// topology dropped.
func (f *fleetCollector) Collect(ctx context.Context) {
	f.collectMu.Lock()
	defer f.collectMu.Unlock()
	start := time.Now()
	type target struct {
		key, url string
	}
	v := f.c.currentView()
	var targets []target
	for i, g := range v.groups {
		for _, r := range g.replicas {
			if u, ok := metricsURL(r.spec); ok {
				targets = append(targets, target{key: fmt.Sprintf("%d|%s", i, r.spec), url: u})
			}
		}
	}
	snaps := make([]*obs.PromSnapshot, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for k := range targets {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			snaps[k], errs[k] = f.scrape(ctx, targets[k].url)
		}(k)
	}
	wg.Wait()
	if ctx.Err() != nil {
		// Shutdown mid-sweep: failures here are not evidence of replica
		// staleness.
		return
	}
	now := time.Now()
	f.mu.Lock()
	fresh := make(map[string]*scrapeState, len(targets))
	for k, tgt := range targets {
		st := f.states[tgt.key]
		if st == nil {
			st = &scrapeState{}
		}
		if errs[k] == nil {
			st.snap, st.lastGood, st.lastErr = snaps[k], now, ""
			f.c.m.fleetScrape(true)
		} else {
			st.lastErr = errs[k].Error()
			f.c.m.fleetScrape(false)
		}
		fresh[tgt.key] = st
	}
	f.states = fresh
	f.mu.Unlock()
	f.c.m.fleetCollectS.ObserveDuration(time.Since(start))
}

func (f *fleetCollector) scrape(ctx context.Context, u string) (*obs.PromSnapshot, error) {
	sctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", u, resp.StatusCode)
	}
	return obs.ParseProm(io.LimitReader(resp.Body, maxScrapeBody))
}

// merged builds the fleet snapshot from the recorded states against
// the current view.
func (f *fleetCollector) merged() *obs.PromSnapshot {
	v := f.c.currentView()
	now := time.Now()
	f.mu.Lock()
	var insts []obs.PromInstance
	for i, g := range v.groups {
		for j, r := range g.replicas {
			if _, ok := metricsURL(r.spec); !ok {
				continue
			}
			st := f.states[fmt.Sprintf("%d|%s", i, r.spec)]
			in := obs.PromInstance{
				Instance:   fmt.Sprintf("shard%d/replica%d", i, j),
				Stale:      true,
				AgeSeconds: -1,
			}
			if st != nil {
				in.Snapshot = st.snap
				in.Stale = st.lastErr != "" || st.snap == nil
				if !st.lastGood.IsZero() {
					in.AgeSeconds = now.Sub(st.lastGood).Seconds()
				}
			}
			insts = append(insts, in)
		}
	}
	f.mu.Unlock()
	return obs.MergeProm(insts, obs.MergeOptions{
		Passthrough: append(append([]string{}, fleetPassthrough...), f.cfg.Passthrough...),
	})
}

// FleetSnapshot returns the merged fleet view, running a sweep first
// in on-demand mode (background mode serves the last sweep). Returns
// nil when fleet collection is not configured (WithFleet absent).
func (c *Coordinator) FleetSnapshot(ctx context.Context) *obs.PromSnapshot {
	f := c.fleet
	if f == nil {
		return nil
	}
	if f.cfg.Interval <= 0 {
		f.Collect(ctx)
	}
	return f.merged()
}

// FleetStatus reports per-replica scrape health for the dashboard.
// Non-scrapable (in-process) replicas are listed with Scrapable false.
func (c *Coordinator) FleetStatus() []FleetInstance {
	f := c.fleet
	if f == nil {
		return nil
	}
	v := c.currentView()
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []FleetInstance
	for i, g := range v.groups {
		for j, r := range g.replicas {
			fi := FleetInstance{
				Shard: i, Replica: j, Spec: r.spec,
				Instance: fmt.Sprintf("shard%d/replica%d", i, j),
				Stale:    true,
			}
			if _, ok := metricsURL(r.spec); ok {
				fi.Scrapable = true
				if st := f.states[fmt.Sprintf("%d|%s", i, r.spec)]; st != nil {
					fi.Scraped = st.snap != nil
					fi.Stale = st.lastErr != "" || st.snap == nil
					fi.Err = st.lastErr
					if !st.lastGood.IsZero() {
						fi.Age = now.Sub(st.lastGood)
					}
				}
			}
			out = append(out, fi)
		}
	}
	return out
}

// FleetHandler serves the merged fleet exposition at /metrics/fleet.
// Unreachable replicas degrade the output (their last good snapshot
// merged, staleness gauges flipped), never the response: a fleet with
// dead replicas is exactly when operators need this endpoint, so it
// does not 5xx on scrape failures. 404 when fleet collection is
// disabled.
func (c *Coordinator) FleetHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := c.FleetSnapshot(req.Context())
		if snap == nil {
			http.Error(w, "fleet collection disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", obs.PromContentType)
		_ = snap.WriteProm(w)
	})
}

// stopFleet ends the background loop (no-op for on-demand mode).
func (c *Coordinator) stopFleet() {
	if c.fleet != nil && c.fleet.cancel != nil {
		c.fleet.cancel()
		<-c.fleet.done
		c.fleet.cancel = nil
	}
}
