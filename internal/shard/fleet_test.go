package shard

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
)

// fleetReplica is one fake replica process: a /metrics endpoint over
// its own registry (the /sparql path is never exercised here — fleet
// collection is orthogonal to the query path).
func fleetReplica(t *testing.T, queries int64, latencies []float64) *httptest.Server {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("re2xolap_server_requests_total", "Requests.", obs.L("outcome", "ok")).Add(queries)
	h := reg.Histogram("re2xolap_sparql_query_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range latencies {
		h.Observe(v)
	}
	reg.GaugeFunc("re2xolap_store_triples", "Triples.", func() float64 { return float64(queries * 100) })
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func fleetCoordinator(t *testing.T, specs [][]string, cfg FleetConfig) *Coordinator {
	return fleetCoordinatorWith(t, specs, cfg, obs.NewRegistry())
}

// fleetCoordinatorWith is fleetCoordinator publishing to reg.
func fleetCoordinatorWith(t *testing.T, specs [][]string, cfg FleetConfig, reg *obs.Registry) *Coordinator {
	t.Helper()
	c, err := NewDynamic(Static{View: TopologyView{Groups: specs}}, HTTPDialer(),
		WithoutResilience(), WithRegistry(reg), WithFleet(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func fleetScrapeBody(t *testing.T, c *Coordinator) string {
	t.Helper()
	rec := httptest.NewRecorder()
	c.FleetHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/fleet", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics/fleet status = %d, body:\n%s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type = %q", ct)
	}
	return rec.Body.String()
}

// TestFleetFederation: the merged view over a 2-shard × 2-replica
// topology is exactly the sum of the individual scrapes — counters and
// histogram buckets — with per-process gauges passed through under an
// instance label. The merged view is the same whether or not the
// coordinator has a registry of its own.
func TestFleetFederation(t *testing.T) {
	reps := []*httptest.Server{
		fleetReplica(t, 10, []float64{0.005, 0.05}),
		fleetReplica(t, 7, []float64{0.5}),
		fleetReplica(t, 3, nil),
		fleetReplica(t, 1, []float64{0.005, 5}),
	}
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		c := fleetCoordinatorWith(t, [][]string{
			{reps[0].URL + "/sparql", reps[1].URL + "/sparql"},
			{reps[2].URL + "/sparql", reps[3].URL + "/sparql"},
		}, FleetConfig{}, reg) // on-demand mode
		checkFleetFederation(t, c)
	}
}

func checkFleetFederation(t *testing.T, c *Coordinator) {
	t.Helper()

	body := fleetScrapeBody(t, c)
	snap, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("fleet output does not parse: %v\n%s", err, body)
	}
	if v, ok := snap.Value("re2xolap_server_requests_total", obs.L("outcome", "ok")); !ok || v != 21 {
		t.Errorf("federated ok counter = %v ok=%v, want 21", v, ok)
	}
	h := snap.Family("re2xolap_sparql_query_seconds")
	if h == nil || len(h.Hists) != 1 {
		t.Fatalf("latency family = %+v\n%s", h, body)
	}
	// Buckets: 0.005 ×2 → le=0.01; 0.05 → le=0.1; 0.5 → le=1; 5 → +Inf.
	hh := h.Hists[0]
	if hh.Cum[0] != 2 || hh.Cum[1] != 3 || hh.Cum[2] != 4 || hh.Count != 5 {
		t.Errorf("federated buckets = %+v", hh)
	}
	// Quantiles recomputed over merged buckets.
	if _, ok := snap.Value("re2xolap_sparql_query_seconds_quantile", obs.L("quantile", "0.99")); !ok {
		t.Errorf("missing recomputed fleet quantile:\n%s", body)
	}
	// Per-process gauge passthrough, one series per instance.
	for i, want := range []float64{1000, 700, 300, 100} {
		inst := fmt.Sprintf("shard%d/replica%d", i/2, i%2)
		if v, ok := snap.Value("re2xolap_store_triples", obs.L("instance", inst)); !ok || v != want {
			t.Errorf("store_triples{instance=%q} = %v ok=%v, want %v", inst, v, ok, want)
		}
		if v, ok := snap.Value("re2xolap_fleet_instance_up", obs.L("instance", inst)); !ok || v != 1 {
			t.Errorf("instance_up{%s} = %v ok=%v, want 1", inst, v, ok)
		}
	}
	// Scrape accounting on the coordinator registry.
	if n := c.cfg.Registry.Counter("re2xolap_fleet_scrapes_total", "", obs.L("outcome", "ok")).Value(); c.cfg.Registry != nil && n != 4 {
		t.Errorf("scrape ok counter = %d, want 4", n)
	}
}

// TestFleetStaleness: killing a replica flips its staleness marker,
// keeps its last-good counters in the totals, and never 5xxes the
// fleet endpoint.
func TestFleetStaleness(t *testing.T) {
	alive := fleetReplica(t, 5, nil)
	dying := fleetReplica(t, 8, nil)
	c := fleetCoordinator(t, [][]string{
		{alive.URL + "/sparql", dying.URL + "/sparql"},
	}, FleetConfig{})

	body := fleetScrapeBody(t, c)
	if !strings.Contains(body, `re2xolap_fleet_instance_up{instance="shard0/replica1"} 1`) {
		t.Fatalf("replica1 not up before kill:\n%s", body)
	}

	dying.Close()
	body = fleetScrapeBody(t, c) // must still be 200
	snap, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := snap.Value("re2xolap_fleet_instance_up", obs.L("instance", "shard0/replica1")); v != 0 {
		t.Errorf("dead replica instance_up = %v, want 0:\n%s", v, body)
	}
	if v, _ := snap.Value("re2xolap_fleet_instance_up", obs.L("instance", "shard0/replica0")); v != 1 {
		t.Errorf("alive replica instance_up = %v, want 1", v)
	}
	// Last-good counters still contribute.
	if v, _ := snap.Value("re2xolap_server_requests_total", obs.L("outcome", "ok")); v != 13 {
		t.Errorf("federated counter after death = %v, want 13 (last-good retained)", v)
	}
	if v, ok := snap.Value("re2xolap_fleet_scrape_age_seconds", obs.L("instance", "shard0/replica1")); !ok || v < 0 {
		t.Errorf("scrape age = %v ok=%v, want >= 0", v, ok)
	}

	st := c.FleetStatus()
	if len(st) != 2 || st[1].Stale != true || st[0].Stale != false || st[1].Err == "" {
		t.Errorf("FleetStatus = %+v", st)
	}
}

// TestFleetDisabled: without WithFleet the handler 404s and the
// accessors return nil.
func TestFleetDisabled(t *testing.T) {
	srv := fleetReplica(t, 1, nil)
	c, err := NewDynamic(Static{View: TopologyView{Groups: [][]string{{srv.URL + "/sparql"}}}},
		HTTPDialer(), WithoutResilience())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := httptest.NewRecorder()
	c.FleetHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/fleet", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("disabled fleet status = %d, want 404", rec.Code)
	}
	if c.FleetSnapshot(context.Background()) != nil || c.FleetStatus() != nil {
		t.Error("disabled fleet accessors not nil")
	}
}

// TestFleetNonScrapableSkipped: replicas with non-URL specs
// (in-process backends) are excluded from scraping but the endpoint
// still serves the scrapable remainder.
func TestFleetNonScrapableSkipped(t *testing.T) {
	srv := fleetReplica(t, 4, nil)
	dial := func(shard, replica int, spec string) (endpoint.Client, error) {
		if spec == "mem:0" {
			return downClient{}, nil
		}
		return HTTPDialer()(shard, replica, spec)
	}
	c, err := NewDynamic(
		Static{View: TopologyView{Groups: [][]string{{srv.URL + "/sparql", "mem:0"}}}},
		dial, WithoutResilience(), WithFleet(FleetConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	body := fleetScrapeBody(t, c)
	snap, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Value("re2xolap_server_requests_total", obs.L("outcome", "ok")); !ok || v != 4 {
		t.Errorf("federated counter = %v ok=%v, want 4", v, ok)
	}
	if _, ok := snap.Value("re2xolap_fleet_instance_up", obs.L("instance", "shard0/replica1")); ok {
		t.Errorf("non-scrapable replica should not appear as an instance:\n%s", body)
	}
	st := c.FleetStatus()
	if len(st) != 2 || st[0].Scrapable != true || st[1].Scrapable != false {
		t.Errorf("FleetStatus = %+v", st)
	}
}

// TestFleetBackgroundMode: with an interval the loop collects without
// per-request sweeps, and Close stops it.
func TestFleetBackgroundMode(t *testing.T) {
	srv := fleetReplica(t, 9, nil)
	c := fleetCoordinator(t, [][]string{{srv.URL + "/sparql"}},
		FleetConfig{Interval: 10 * time.Millisecond})
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := c.FleetSnapshot(context.Background())
		if v, ok := snap.Value("re2xolap_server_requests_total", obs.L("outcome", "ok")); ok && v == 9 {
			break
		}
		if time.Now().After(deadline) {
			var buf bytes.Buffer
			_ = snap.WriteProm(&buf)
			t.Fatalf("background sweep never landed:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Close() // must stop the loop without hanging
}

func TestMetricsURL(t *testing.T) {
	for spec, want := range map[string]string{
		"http://h:1/sparql":      "http://h:1/metrics",
		"https://h/sparql?x=1#f": "https://h/metrics",
		"http://h":               "http://h/metrics",
		"local":                  "",
		"client:0/1":             "",
		"unix:///tmp/sock":       "",
		"ftp://h/sparql":         "",
	} {
		got, ok := metricsURL(spec)
		if (want == "") == ok || got != want {
			t.Errorf("metricsURL(%q) = %q, %v; want %q", spec, got, ok, want)
		}
	}
}
