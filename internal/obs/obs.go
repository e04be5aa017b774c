// Package obs is the stdlib-only observability substrate: a named
// metric registry (atomic counters, gauges, fixed-bucket latency
// histograms) with Prometheus text-format exposition, a per-query
// span-tree trace, and a structured slow-query log.
//
// Two design rules keep the hot path honest:
//
//   - Every metric method is nil-safe and allocation-free. Code holds
//     a *Counter (etc.) obtained once at construction; when metrics
//     are disabled the pointer is nil and each call is a single
//     predictable branch. There is no global registry — a nil
//     *Registry means "off".
//   - Registration (Counter, Gauge, Histogram) takes a lock and may
//     allocate; it happens at construction time, never per query.
//     Callers must cache the returned pointer.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value metric dimension. Series with the same
// metric name but different label values are distinct instances of one
// family and share HELP/TYPE in the exposition.
type Label struct{ Key, Value string }

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is
// ready to use; a nil *Counter ignores all operations.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are a programming error but not checked
// on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready
// to use; a nil *Gauge ignores all operations.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the value by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// LatencyBuckets is the default histogram bucketing for query
// latencies, in seconds: 0.5ms up to 60s, roughly logarithmic.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram counts observations into fixed cumulative-at-exposition
// buckets, tracking the running sum (Prometheus histogram semantics:
// a value lands in the first bucket whose upper bound is >= it). The
// bucket layout is immutable after construction; observation is
// lock-free. A nil *Histogram ignores all operations.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds
	counts []atomic.Int64
	inf    atomic.Int64 // observations above the last bound
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a standalone histogram (most callers get one
// from a Registry instead). bounds must be strictly increasing; nil
// means LatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v, i.e. the le bucket the value belongs to.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution from the fixed buckets by linear interpolation within
// the bucket holding the target rank — the same estimate a Prometheus
// server's histogram_quantile computes. A rank landing in the +Inf
// bucket clamps to the last finite bound (histogram_quantile
// semantics). Returns 0 for a nil or empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	cum, total := h.snapshot()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	fcum := make([]float64, len(cum))
	for i, c := range cum {
		fcum[i] = float64(c)
	}
	return bucketQuantile(h.bounds, fcum, float64(total), q)
}

// bucketQuantile estimates the q-quantile from cumulative bucket
// counts over the given finite upper bounds, with total including the
// +Inf bucket. It is the shared core of Histogram.Quantile and of the
// fleet merge layer, which recomputes quantiles from summed buckets;
// both must agree so a merged exposition is indistinguishable from a
// single process having seen all observations.
func bucketQuantile(bounds, cum []float64, total, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * total
	for i, c := range cum {
		if c >= rank {
			lower := 0.0
			var prev float64
			if i > 0 {
				lower = bounds[i-1]
				prev = cum[i-1]
			}
			inBucket := c - prev
			if inBucket == 0 {
				return bounds[i]
			}
			return lower + (bounds[i]-lower)*(rank-prev)/inBucket
		}
	}
	return bounds[len(bounds)-1]
}

// snapshot returns cumulative bucket counts aligned with bounds plus
// the +Inf total, consistent enough for exposition (each counter is
// read atomically; scrapes racing observations may be off by the
// in-flight ones, which Prometheus tolerates).
func (h *Histogram) snapshot() (cum []int64, total int64) {
	cum = make([]int64, len(h.bounds))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, run + h.inf.Load()
}

// metricKind discriminates what a family holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// instance is one labeled series within a family.
type instance struct {
	labels []Label
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name, help string
	kind       metricKind
	instances  map[string]*instance // keyed by serialized sorted labels
}

// Registry is a named collection of metrics. A nil *Registry is the
// disabled state: every lookup returns nil, and nil metrics no-op, so
// instrumented code needs no separate "metrics off" branch. Safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey serializes labels (sorted by key) into a map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b []byte
	for _, l := range sorted {
		b = append(b, l.Key...)
		b = append(b, 0xff)
		b = append(b, l.Value...)
		b = append(b, 0xfe)
	}
	return string(b)
}

// lookup returns the instance for name+labels, creating it — and its
// metric, from bounds for a histogram — under the registry mutex, so
// two first uses of one series cannot race. It enforces kind
// consistency: mis-registering the same name as two kinds is a
// programming error and panics. A non-nil fn replaces a GaugeFunc's
// sampler, under the same mutex WriteProm calls it under.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, bounds []float64, fn func() float64) *instance {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, instances: map[string]*instance{}}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	key := labelKey(labels)
	in := f.instances[key]
	if in == nil {
		sorted := make([]Label, len(labels))
		copy(sorted, labels)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
		in = &instance{labels: sorted}
		switch kind {
		case kindCounter:
			in.c = &Counter{}
		case kindGauge:
			in.g = &Gauge{}
		case kindHistogram:
			in.h = NewHistogram(bounds)
		}
		f.instances[key] = in
	}
	if fn != nil {
		in.fn = fn
	}
	return in
}

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter returns the counter for name+labels, creating it on first
// use. Subsequent calls with the same name+labels return the same
// *Counter. A nil registry returns nil (which no-ops).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, labels, nil, nil).c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, labels, nil, nil).g
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// exposition time (for values a subsystem already tracks, e.g. pool
// occupancy or store size). Re-registering replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.lookup(name, help, kindGaugeFunc, labels, nil, fn)
}

// Histogram returns the histogram for name+labels, creating it with
// the given bucket upper bounds on first use (nil means
// LatencyBuckets). The bucket layout of an existing histogram is not
// changed by later calls.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, labels, bounds, nil).h
}
