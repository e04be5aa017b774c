package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/store"
)

func TestParseSLO(t *testing.T) {
	objs, err := ParseSLO("p99<250ms, err<1%")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("objectives = %+v, want 2", objs)
	}
	if objs[0].Name != "p99<250ms" || objs[0].Latency != 250*time.Millisecond ||
		objs[0].Target != 0.99 || objs[0].Kind() != "latency" {
		t.Errorf("latency objective = %+v", objs[0])
	}
	if objs[1].Name != "err<1%" || objs[1].Latency != 0 ||
		objs[1].Target != 0.99 || objs[1].Kind() != "error_rate" {
		t.Errorf("error objective = %+v", objs[1])
	}

	if objs, err := ParseSLO("p50<1s"); err != nil || objs[0].Target != 0.5 {
		t.Errorf("p50<1s = %+v, %v", objs, err)
	}
	if objs, err := ParseSLO("err<0.5%"); err != nil || objs[0].Target != 0.995 {
		t.Errorf("err<0.5%% = %+v, %v", objs, err)
	}

	for _, bad := range []string{
		"", "p99", "p99<", "p99<fast", "p0<1s", "p100<1s", "pxx<1s",
		"err<1", "err<0%", "err<100%", "err<x%", "lat<1s",
		"p99<250ms,p99<250ms", // duplicate
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted, want error", bad)
		}
	}
}

// fakeClock is an injectable, movable clock for window tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

// newTestTracker builds a tracker with an injected clock.
func newTestTracker(t *testing.T, slo string, maxTenants int, reg *obs.Registry) (*Tracker, *fakeClock) {
	t.Helper()
	objs, err := ParseSLO(slo)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(SLOConfig{Objectives: objs, MaxTenants: maxTenants}, reg, newTenantNames(maxTenants))
	clk := newFakeClock()
	tr.now = clk.now
	return tr, clk
}

// TestSLOWindowDecay: bad events age out of the 5m window while the
// 1h and 6h windows still remember them.
func TestSLOWindowDecay(t *testing.T) {
	tr, clk := newTestTracker(t, "err<10%", 0, nil)

	// 8 good + 2 bad in the first minute → 20% errors, burn 2.0.
	for i := 0; i < 8; i++ {
		tr.Record("acme", Outcome{Wall: time.Millisecond})
	}
	tr.Record("acme", Outcome{Err: errors.New("boom")})
	tr.Record("acme", Outcome{Err: errors.New("boom")})

	rep := tr.Report()
	w5 := rep.Tenants["acme"].Windows["5m"].Objectives["err<10%"]
	if w5.Bad != 2 || math.Abs(w5.BurnRate-2.0) > 1e-9 {
		t.Fatalf("5m before decay = %+v, want bad=2 burn=2.0", w5)
	}

	// 10 minutes later the 5m window has slid past everything; one
	// fresh good request keeps it non-empty so the ratio is defined.
	clk.advance(10 * time.Minute)
	tr.Record("acme", Outcome{Wall: time.Millisecond})
	rep = tr.Report()
	ten := rep.Tenants["acme"]
	if w := ten.Windows["5m"].Objectives["err<10%"]; w.Bad != 0 || w.BurnRate != 0 {
		t.Errorf("5m after decay = %+v, want bad=0 burn=0", w)
	}
	if w := ten.Windows["1h"].Objectives["err<10%"]; w.Bad != 2 {
		t.Errorf("1h after decay = %+v, want bad=2 retained", w)
	}
	if w := ten.Windows["6h"].Objectives["err<10%"]; w.Bad != 2 {
		t.Errorf("6h after decay = %+v, want bad=2 retained", w)
	}
	if ten.Windows["1h"].Total != 11 {
		t.Errorf("1h total = %d, want 11", ten.Windows["1h"].Total)
	}

	// 7 hours later even the 6h window is clean.
	clk.advance(7 * time.Hour)
	tr.Record("acme", Outcome{Wall: time.Millisecond})
	rep = tr.Report()
	if w := rep.Tenants["acme"].Windows["6h"]; w.Total != 1 || w.Objectives["err<10%"].Bad != 0 {
		t.Errorf("6h after full decay = %+v, want total=1 bad=0", w)
	}
	// Cumulative counters never decay.
	if rep.Tenants["acme"].Queries != 12 || rep.Tenants["acme"].Errors != 2 {
		t.Errorf("cumulative = %+v", rep.Tenants["acme"])
	}
}

// TestSLOTenantOverflow: tenants past the cardinality bound fold into
// the overflow bucket — in the tracker and on the shared interner.
func TestSLOTenantOverflow(t *testing.T) {
	tr, _ := newTestTracker(t, "err<1%", 2, nil)
	for _, tenant := range []string{"t1", "t2", "t3", "t4", "t1"} {
		tr.Record(tenant, Outcome{Wall: time.Millisecond})
	}
	got := tr.Tenants()
	want := []string{OverflowTenant, "t1", "t2"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("tenants = %v, want %v", got, want)
	}
	rep := tr.Report()
	if rep.Tenants[OverflowTenant].Queries != 2 {
		t.Errorf("overflow queries = %d, want 2 (t3+t4)", rep.Tenants[OverflowTenant].Queries)
	}
	if rep.Tenants["t1"].Queries != 2 {
		t.Errorf("t1 queries = %d, want 2", rep.Tenants["t1"].Queries)
	}

	// The interner is shared state: empty names fold too.
	names := newTenantNames(1)
	if names.intern("a") != "a" || names.intern("b") != OverflowTenant ||
		names.intern("a") != "a" || names.intern("") != OverflowTenant {
		t.Error("interner bound not enforced")
	}
}

// sloStack builds a Stack over a fault-injectable in-process engine
// with SLO tracking on and an injectable clock.
func sloStack(t *testing.T, reg *obs.Registry, opts ...Option) (*Stack, *endpoint.FaultClient, *fakeClock) {
	t.Helper()
	fc := endpoint.NewFault(endpoint.NewInProcess(newTestStore(t)), endpoint.FaultConfig{})
	objs, err := ParseSLO("p99<50ms,err<1%")
	if err != nil {
		t.Fatal(err)
	}
	s := New(fc, append([]Option{WithRegistry(reg), WithSLO(SLOConfig{Objectives: objs})}, opts...)...)
	clk := newFakeClock()
	s.slo.now = clk.now
	return s, fc, clk
}

// TestSLOBurnAndRecover is the acceptance scenario: per-tenant burn
// rates move when a latency fault is injected under the stack and
// recover once the fault clears and the window slides.
func TestSLOBurnAndRecover(t *testing.T) {
	reg := obs.NewRegistry()
	s, fc, clk := sloStack(t, reg)
	ctx := endpoint.ContextWithTenant(context.Background(), "acme")

	// Healthy phase: everything is fast, burn stays at zero.
	for i := 0; i < 5; i++ {
		if _, _, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery}); err != nil {
			t.Fatal(err)
		}
	}
	burn := func(window string) float64 {
		rep := s.SLO().Report()
		ten := rep.Tenants["acme"]
		if ten == nil {
			t.Fatalf("tenant missing from report: %+v", rep.Tenants)
		}
		return ten.Windows[window].Objectives["p99<50ms"].BurnRate
	}
	if b := burn("5m"); b != 0 {
		t.Fatalf("healthy burn = %v, want 0", b)
	}

	// Induced latency fault: every request now exceeds the 50ms
	// threshold, so the p99<50ms burn must shoot far above 1 (the
	// budget is 1%, so all-bad traffic burns at ~100x).
	fc.SetLatency(60 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if _, _, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery}); err != nil {
			t.Fatal(err)
		}
	}
	if b := burn("5m"); b < 10 {
		t.Fatalf("burn under latency fault = %v, want >= 10", b)
	}
	// The error-rate objective is unaffected: slow is not failed.
	rep := s.SLO().Report()
	if b := rep.Tenants["acme"].Windows["5m"].Objectives["err<1%"].BurnRate; b != 0 {
		t.Errorf("err burn under latency fault = %v, want 0", b)
	}

	// Burn gauges are exported through the registry.
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseProm(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := snap.Value("re2xolap_slo_burn_rate",
		obs.L("objective", "p99<50ms"), obs.L("tenant", "acme"), obs.L("window", "5m"))
	if !ok || v < 10 {
		t.Errorf("burn gauge = %v ok=%v, want >= 10\n%s", v, ok, buf.String())
	}

	// Fault clears; six minutes later the 5m window has slid past the
	// bad phase and fresh traffic reads healthy again.
	fc.SetLatency(0)
	clk.advance(6 * time.Minute)
	for i := 0; i < 5; i++ {
		if _, _, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery}); err != nil {
			t.Fatal(err)
		}
	}
	if b := burn("5m"); b != 0 {
		t.Errorf("burn after recovery = %v, want 0", b)
	}
	if b := burn("1h"); b < 10 {
		t.Errorf("1h burn = %v, want >= 10 (long window remembers the incident)", b)
	}
}

// TestSLOHandlerAndAttribution: /debug/slo serves the JSON report and
// cache hits are attributed to the tenant that made them.
func TestSLOHandlerAndAttribution(t *testing.T) {
	reg := obs.NewRegistry()
	s, _, _ := sloStack(t, reg, WithResultCache(8))
	ctx := endpoint.ContextWithTenant(context.Background(), "acme")
	for i := 0; i < 3; i++ {
		if _, _, err := s.QueryX(ctx, endpoint.Request{Query: valueQuery}); err != nil {
			t.Fatal(err)
		}
	}

	rec := httptest.NewRecorder()
	s.SLO().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("handler status=%d ct=%q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var rep SLOReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("report does not decode: %v\n%s", err, rec.Body.String())
	}
	ten := rep.Tenants["acme"]
	if ten == nil {
		t.Fatalf("tenant missing:\n%s", rec.Body.String())
	}
	if ten.Queries != 3 || ten.CacheHits != 2 {
		t.Errorf("attribution = %+v, want 3 queries / 2 cache hits", ten)
	}
	if r := ten.CacheHitRatio; r < 0.66 || r > 0.67 {
		t.Errorf("cache hit ratio = %v, want ~2/3", r)
	}
	if len(rep.Objectives) != 2 || len(rep.Windows) != 3 {
		t.Errorf("report shape = %d objectives, %d windows", len(rep.Objectives), len(rep.Windows))
	}
}

// TestSLOShedAttribution: shed requests count as bad events and as
// per-tenant sheds, and the shed counter carries the tenant label.
func TestSLOShedAttribution(t *testing.T) {
	reg := obs.NewRegistry()
	s, fc, _ := sloStack(t, reg,
		WithAdmission(AdmissionConfig{MaxConcurrent: 1, QueueBudget: 1}))
	ctx := endpoint.ContextWithTenant(context.Background(), "acme")
	// Distinct texts, so no request coalesces onto another.
	query := func(i int) string {
		return fmt.Sprintf(`SELECT ?v WHERE { <http://t/s%d> <http://t/value> ?v }`, i)
	}

	// Hold the only slot with a slow request, fill the queue with a
	// second, then overflow with more.
	fc.SetLatency(200 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer wg.Done()
			_, _, _ = s.QueryX(ctx, endpoint.Request{Query: query(i)})
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let them occupy slot + queue
	var sheds int
	for i := 0; i < 4; i++ {
		if _, _, err := s.QueryX(ctx, endpoint.Request{Query: query(2 + i)}); errors.Is(err, endpoint.ErrOverloaded) {
			sheds++
		}
	}
	wg.Wait()
	if sheds == 0 {
		t.Fatal("no request was shed")
	}
	rep := s.SLO().Report()
	if got := rep.Tenants["acme"].Sheds; got != int64(sheds) {
		t.Errorf("tenant sheds = %d, want %d", got, sheds)
	}
	if v := reg.Counter("re2xolap_serve_shed_total", "",
		obs.L("reason", "queue_full"), obs.L("tenant", "acme")).Value(); v != int64(sheds) {
		t.Errorf("labeled shed counter = %d, want %d", v, sheds)
	}
}

// BenchmarkStackQueryX measures the serving fast path with SLO
// tracking off vs on — the acceptance bound is <2% overhead.
func BenchmarkStackQueryX(b *testing.B) {
	st := store.New()
	run := func(b *testing.B, opts ...Option) {
		inner := endpoint.NewInProcess(st)
		s := New(inner, append([]Option{WithResultCache(64)}, opts...)...)
		ctx := endpoint.ContextWithTenant(context.Background(), "bench")
		req := endpoint.Request{Query: valueQuery}
		if _, _, err := s.QueryX(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.QueryX(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("slo=off", func(b *testing.B) { run(b) })
	b.Run("slo=on", func(b *testing.B) {
		objs, err := ParseSLO("p99<250ms,err<1%")
		if err != nil {
			b.Fatal(err)
		}
		run(b, WithSLO(SLOConfig{Objectives: objs}))
	})
}
