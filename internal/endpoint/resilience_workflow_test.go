// Acceptance test for the resilience layer (ISSUE: tentpole): a full
// ReOLAP workflow — bootstrap, synthesis, execution — runs over an
// endpoint that drops 30% of requests, and completes purely through
// the ResilientClient's retries; against a hard-down endpoint the
// circuit breaker trips and surfaces ErrCircuitOpen well within the
// configured deadline instead of grinding through timeouts.
//
// Lives in package endpoint_test so it can drive the real
// datagen → vgraph → core stack through the decorated clients.
package endpoint_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"re2xolap/internal/bench"
	"re2xolap/internal/core"
	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/sparql"
	"re2xolap/internal/vgraph"
)

// fastPolicy retries aggressively with no real sleeping, so the test
// exercises the full retry machinery in milliseconds.
func fastPolicy() endpoint.Policy {
	return endpoint.Policy{
		Timeout:     30 * time.Second,
		MaxRetries:  8,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  10 * time.Microsecond,
		Jitter:      0.5,
		// Threshold high enough that an unlucky streak of independent
		// 30% faults cannot trip it (0.3^20 ≈ 3e-11 per position).
		BreakerThreshold: 20,
		BreakerCooldown:  time.Second,
		Sleep:            func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
}

func TestWorkflowSurvivesFaultyEndpoint(t *testing.T) {
	spec := datagen.EurostatLike(500)
	st, err := spec.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	inner := endpoint.NewInProcess(st)
	fault := endpoint.NewFault(inner, endpoint.FaultConfig{Seed: 1, FailureRate: 0.3})
	rc := endpoint.NewResilient(fault, endpoint.WithPolicy(fastPolicy()))
	ctx := context.Background()

	// Bootstrap crawls the schema with dozens of queries — every one
	// subject to the 30% fault rate.
	g, err := vgraph.Bootstrap(ctx, rc, spec.Config())
	if err != nil {
		t.Fatalf("bootstrap over faulty endpoint: %v", err)
	}
	if g.Stats().Dimensions != 4 {
		t.Fatalf("dimensions = %d, want 4 (faults corrupted the bootstrap?)", g.Stats().Dimensions)
	}

	eng := core.NewEngine(rc, g, spec.Config())
	d := &bench.Dataset{Spec: spec, Store: st, Client: inner, Graph: g, Engine: eng}
	rng := rand.New(rand.NewSource(7))
	ex, ok := d.SampleExample(rng, 2)
	if !ok {
		t.Fatal("could not sample an example")
	}

	cands, err := eng.Synthesize(ctx, core.Keywords(ex...))
	if err != nil {
		t.Fatalf("synthesis over faulty endpoint: %v", err)
	}
	if len(cands) == 0 {
		t.Fatalf("no interpretation for %v", ex)
	}
	rs, err := eng.Execute(ctx, cands[0].Query)
	if err != nil {
		t.Fatalf("execution over faulty endpoint: %v", err)
	}
	if rs.Len() == 0 {
		t.Error("query returned no tuples")
	}

	if fault.Injected() == 0 {
		t.Error("fault injector never fired; the test proved nothing")
	}
	stats := rc.Stats()
	if stats.Retries == 0 {
		t.Errorf("workflow finished without a single retry despite %d injected faults", fault.Injected())
	}
	if stats.BreakerTrips != 0 {
		t.Errorf("breaker tripped %d times under independent 30%% faults", stats.BreakerTrips)
	}
	t.Logf("workflow done: %d queries, %d attempts, %d retries, %d faults injected",
		stats.Queries, stats.Attempts, stats.Retries, fault.Injected())
}

func TestHardDownEndpointTripsBreakerWithinDeadline(t *testing.T) {
	st, err := datagen.EurostatLike(50).BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	down := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{Down: true})
	p := fastPolicy()
	p.Timeout = 2 * time.Second
	p.MaxRetries = 2
	p.BreakerThreshold = 3
	p.BreakerCooldown = time.Minute
	rc := endpoint.NewResilient(down, endpoint.WithPolicy(p))

	ctx := context.Background()
	t0 := time.Now()
	// First query burns its retry budget (3 attempts = 3 consecutive
	// failures = threshold) and trips the breaker.
	if _, err := rc.Query(ctx, `ASK { ?s ?p ?o . }`); err == nil {
		t.Fatal("hard-down endpoint answered")
	}
	// Subsequent queries must fail fast with ErrCircuitOpen.
	_, err = rc.Query(ctx, `ASK { ?s ?p ?o . }`)
	if !errors.Is(err, endpoint.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if elapsed := time.Since(t0); elapsed > p.Timeout {
		t.Errorf("breaker took %s to trip, deadline was %s", elapsed, p.Timeout)
	}
	if rc.State() != "open" {
		t.Errorf("breaker state = %q, want open", rc.State())
	}
	if trips := rc.Stats().BreakerTrips; trips != 1 {
		t.Errorf("trips = %d, want 1", trips)
	}

	// The bulk callers treat an open circuit as fatal, not skippable:
	// Transient must be false so core/bench abort instead of grinding
	// through every remaining combination.
	if endpoint.Transient(err) {
		t.Error("ErrCircuitOpen classified transient; bulk callers would spin")
	}
}

// failMatching wraps a client and fails every query containing a
// marker substring with a fixed error. Only the witness/validation
// queries of the synthesis contain "LIMIT 1", so targeting that marker
// exercises SynthesizeAll's combination loop deterministically.
type failMatching struct {
	inner  endpoint.Client
	marker string
	err    error
	hits   atomic.Int64 // Query runs on SynthesizeAll's workers
}

func (f *failMatching) Query(ctx context.Context, q string) (*sparql.Results, error) {
	if strings.Contains(q, f.marker) {
		f.hits.Add(1)
		return nil, f.err
	}
	return f.inner.Query(ctx, q)
}

// TestSynthesisSkipsTransientAbortsOnCircuitOpen pins the degraded-mode
// contract of core.Engine.SynthesizeAll: a transient validation failure
// skips just that combination, an open circuit aborts the synthesis.
func TestSynthesisSkipsTransientAbortsOnCircuitOpen(t *testing.T) {
	spec := datagen.EurostatLike(300)
	st, err := spec.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	inner := endpoint.NewInProcess(st)
	g, err := vgraph.Bootstrap(context.Background(), inner, spec.Config())
	if err != nil {
		t.Fatal(err)
	}
	d := &bench.Dataset{Spec: spec, Store: st, Client: inner, Graph: g}
	ex, ok := d.SampleExample(rand.New(rand.NewSource(3)), 2)
	if !ok {
		t.Fatal("could not sample an example")
	}
	tuple := core.Keywords(ex...)

	// Transient failures on every witness query: each combination is
	// skipped, synthesis itself succeeds (with zero candidates).
	flaky := &failMatching{inner: inner, marker: "LIMIT 1",
		err: endpoint.MarkRetryable(errors.New("injected transient"))}
	eng := core.NewEngine(flaky, g, spec.Config())
	cands, err := eng.Synthesize(context.Background(), tuple)
	if err != nil {
		t.Fatalf("transient validation failure aborted synthesis: %v", err)
	}
	if len(cands) != 0 {
		t.Errorf("candidates = %d with every witness query failing", len(cands))
	}
	if flaky.hits.Load() == 0 {
		t.Fatal("no witness query issued; marker went stale")
	}
	if eng.SkippedCombinations() == 0 {
		t.Error("skips not recorded in SkippedCombinations")
	}

	// An open circuit aborts: everything after it would fail anyway.
	downstream := &failMatching{inner: inner, marker: "LIMIT 1",
		err: fmt.Errorf("endpoint: %w", endpoint.ErrCircuitOpen)}
	eng2 := core.NewEngine(downstream, g, spec.Config())
	if _, err := eng2.Synthesize(context.Background(), tuple); !errors.Is(err, endpoint.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen to abort synthesis", err)
	}
}
