package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_total", "help"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}
	g := r.Gauge("test_gauge", "help")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(3)
	if got := g.Value(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
}

// TestRegistryConcurrentFirstUse: many goroutines asking for one new
// series at once all get the same metric, and none of their updates is
// lost on a metric another goroutine replaced. Run it under -race.
func TestRegistryConcurrentFirstUse(t *testing.T) {
	const n = 16
	r := NewRegistry()
	lbl := L("k", "v")
	counters := make([]*Counter, n)
	gauges := make([]*Gauge, n)
	hists := make([]*Histogram, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			counters[i] = r.Counter("first_total", "h", lbl)
			counters[i].Inc()
			gauges[i] = r.Gauge("first_gauge", "h", lbl)
			gauges[i].Add(2)
			hists[i] = r.Histogram("first_seconds", "h", nil, lbl)
			hists[i].Observe(0.5)
			r.GaugeFunc("first_sampled", "h", func() float64 { return 1 }, lbl)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if counters[i] != counters[0] || gauges[i] != gauges[0] || hists[i] != hists[0] {
			t.Fatalf("goroutine %d got a different metric than goroutine 0", i)
		}
	}
	if c, g, h := counters[0].Value(), gauges[0].Value(), hists[0].Count(); c != n || g != 2*n || h != n {
		t.Fatalf("counter %d, gauge %d, histogram count %d; want %d, %d, %d", c, g, h, n, 2*n, n)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `first_sampled{k="v"} 1`) {
		t.Fatalf("the sampled gauge is missing:\n%s", b.String())
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("errs_total", "h", L("kind", "retryable"))
	b := r.Counter("errs_total", "h", L("kind", "permanent"))
	if a == b {
		t.Fatal("different label values returned the same series")
	}
	// Label order must not matter for identity.
	x := r.Counter("multi_total", "h", L("a", "1"), L("b", "2"))
	y := r.Counter("multi_total", "h", L("b", "2"), L("a", "1"))
	if x != y {
		t.Fatal("label order changed series identity")
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	// Prometheus le semantics: a value exactly on a bound belongs to
	// that bound's bucket.
	h.Observe(0.05) // le=0.1
	h.Observe(0.1)  // le=0.1 (on the boundary)
	h.Observe(0.5)  // le=1
	h.Observe(1.0)  // le=1 (on the boundary)
	h.Observe(10.0) // le=10
	h.Observe(99)   // +Inf
	cum, total := h.snapshot()
	if want := []int64{2, 4, 5}; cum[0] != want[0] || cum[1] != want[1] || cum[2] != want[2] {
		t.Fatalf("cumulative buckets = %v, want %v", cum, want)
	}
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+1+10+99; got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two kinds did not panic")
		}
	}()
	r.Gauge("clash", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad-name", "h")
}

// TestNilFastPathAllocs is the contract the instrumented hot paths
// rely on: with metrics disabled (nil registry → nil metrics), every
// operation is allocation-free.
func TestNilFastPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	var r *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	var l *SlowLog
	var sp *Span
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c = r.Counter("x_total", "h")
		g = r.Gauge("x", "h")
		h = r.Histogram("x_seconds", "h", nil)
		c.Inc()
		c.Add(2)
		g.Set(1)
		h.Observe(0.5)
		h.ObserveDuration(time.Millisecond)
		if l.Slow(time.Hour) {
			t.Fatal("nil slow log reported slow")
		}
		sp = SpanFrom(ctx)
		sp.Start("child").End()
		sp.Event("x")
		ctx2, s2 := StartSpan(ctx, "y")
		if s2 != nil || ctx2 != ctx {
			t.Fatal("StartSpan without a parent span must be a no-op")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled fast path allocates %.1f per op, want 0", allocs)
	}
}

func TestSlowLog(t *testing.T) {
	var buf strings.Builder
	l := NewSlowLog(&buf, 100*time.Millisecond)
	l.now = func() time.Time { return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC) }
	l.Record(QueryRecord{Source: "test", WallMS: 50, Query: "SELECT fast"})
	if buf.Len() != 0 {
		t.Fatalf("fast query logged: %q", buf.String())
	}
	l.Record(QueryRecord{
		Source: "test", Step: "witness", WallMS: 250, Rows: 3,
		PhaseMS: map[string]float64{"join": 200.5},
		Query:   "SELECT slow",
	})
	line := buf.String()
	for _, want := range []string{
		`"time":"2026-08-05T12:00:00Z"`, `"source":"test"`, `"step":"witness"`,
		`"wall_ms":250`, `"rows":3`, `"join":200.5`, `"query":"SELECT slow"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow log line missing %s: %s", want, line)
		}
	}
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("entry is not exactly one line: %q", line)
	}
	if l.Logged() != 1 {
		t.Fatalf("Logged = %d, want 1", l.Logged())
	}
}

func TestSlowLogTruncatesQuery(t *testing.T) {
	var buf strings.Builder
	l := NewSlowLog(&buf, 0)
	l.Record(QueryRecord{Source: "test", WallMS: 1, Query: strings.Repeat("x", 3*maxSlowQueryLen)})
	if !strings.Contains(buf.String(), "...(truncated)") {
		t.Fatal("oversized query was not truncated")
	}
}
