package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/sparql"
)

// stepMetrics publishes per-step query series, created lazily because
// the step vocabulary is open-ended (refinements produce "refine:…"
// tags at runtime).
type stepMetrics struct {
	reg *obs.Registry

	mu      sync.Mutex
	queries map[string]*obs.Counter
	errors  map[string]*obs.Counter
	seconds map[string]*obs.Histogram
}

// Instrument attaches a metrics registry: every synthesis step's
// endpoint queries get counted and timed under
// re2xolap_core_step_queries_total / step_query_errors_total /
// step_query_seconds with a step label. Call before the first query.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.steps = &stepMetrics{
		reg:     reg,
		queries: make(map[string]*obs.Counter),
		errors:  make(map[string]*obs.Counter),
		seconds: make(map[string]*obs.Histogram),
	}
}

// record is nil-safe per-step accounting.
func (m *stepMetrics) record(step string, wall time.Duration, err error) {
	if m == nil {
		return
	}
	m.mu.Lock()
	q, ok := m.queries[step]
	if !ok {
		l := obs.L("step", step)
		q = m.reg.Counter("re2xolap_core_step_queries_total",
			"Endpoint queries issued per synthesis step.", l)
		m.queries[step] = q
		m.errors[step] = m.reg.Counter("re2xolap_core_step_query_errors_total",
			"Failed endpoint queries per synthesis step.", l)
		m.seconds[step] = m.reg.Histogram("re2xolap_core_step_query_seconds",
			"Endpoint query latency per synthesis step.", nil, l)
	}
	errc, sec := m.errors[step], m.seconds[step]
	m.mu.Unlock()
	q.Inc()
	sec.ObserveDuration(wall)
	if err != nil {
		errc.Inc()
	}
}

// StepStat is the per-step timing summary StepStats reports: query
// and error counts, total endpoint time, and latency quantiles
// estimated from the step's histogram.
type StepStat struct {
	Step         string
	Queries      int64
	Errors       int64
	TotalSeconds float64
	P50, P95     float64
	P99          float64
}

// StepStats summarizes the per-step query accounting since Instrument,
// sorted by step name. Nil (engine not instrumented) yields nil, so
// report printers need no separate branch.
func (e *Engine) StepStats() []StepStat {
	m := e.steps
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]StepStat, 0, len(m.queries))
	for step, q := range m.queries {
		h := m.seconds[step]
		out = append(out, StepStat{
			Step:         step,
			Queries:      q.Value(),
			Errors:       m.errors[step].Value(),
			TotalSeconds: h.Sum(),
			P50:          h.Quantile(0.5),
			P95:          h.Quantile(0.95),
			P99:          h.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// query issues one endpoint query tagged with the synthesis step that
// needs it, so traces, metrics, and the slow-query log can explain why
// the query ran. All Engine query paths go through here.
func (e *Engine) query(ctx context.Context, step, q string) (*sparql.Results, error) {
	res, _, err := e.queryMeta(ctx, step, q)
	return res, err
}

// queryMeta is query that also returns the execution metadata.
func (e *Engine) queryMeta(ctx context.Context, step, q string) (*sparql.Results, endpoint.QueryMeta, error) {
	res, meta, err := endpoint.QueryX(ctx, e.Client, endpoint.Request{
		Query: q,
		Opts:  endpoint.QueryOpts{Step: step},
	})
	e.steps.record(step, meta.Wall, err)
	return res, meta, err
}
