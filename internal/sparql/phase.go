package sparql

import (
	"context"
	"strconv"
	"time"

	"re2xolap/internal/obs"
)

// phaseNames declares the engine's execution phases in the order a
// query runs through them: parse (text → AST), plan (executor setup
// and short-circuit analysis; join-order selection itself happens
// inside the join phase, per BGP block), join (pattern matching,
// filters, closures — the bulk), aggregate (grouping/projection), and
// sort (ORDER BY/DISTINCT/LIMIT modifiers). Metrics, trace spans, the
// slow-query log and EXPLAIN ANALYZE all read this one list.
var phaseNames = [...]string{"parse", "plan", "join", "aggregate", "sort"}

// PhaseTimings is the per-query wall-time breakdown the engine's
// recorder reports, one field per entry of the phase list.
// Serialization happens above the engine, in the protocol layer, which
// accounts for it separately.
type PhaseTimings struct {
	Parse     time.Duration
	Plan      time.Duration
	Join      time.Duration
	Aggregate time.Duration
	Sort      time.Duration
	// Rows is the result row count (0 for ASK).
	Rows int
}

// fields returns p's phase fields in phase-list order.
func (p *PhaseTimings) fields() [len(phaseNames)]*time.Duration {
	return [...]*time.Duration{&p.Parse, &p.Plan, &p.Join, &p.Aggregate, &p.Sort}
}

// Each calls fn with every phase's name and duration, in execution
// order.
func (p PhaseTimings) Each(fn func(name string, d time.Duration)) {
	for i, d := range p.fields() {
		fn(phaseNames[i], *d)
	}
}

// Total sums the measured phases (engine-side time; the caller's wall
// clock may add queueing and serialization on top).
func (p PhaseTimings) Total() time.Duration {
	var t time.Duration
	for _, d := range p.fields() {
		t += *d
	}
	return t
}

// engineMetrics caches the engine's registry series so the per-query
// cost of metrics is a handful of atomic adds — no registry lookups
// on the hot path. The zero value (no registry) holds nil handles,
// which no-op.
type engineMetrics struct {
	queries *obs.Counter
	errors  *obs.Counter
	rows    *obs.Counter
	total   *obs.Histogram
	phase   [len(phaseNames)]*obs.Histogram
}

// Instrument registers the engine's query metrics in reg; every
// string entry point (QueryString, QueryStringTimed, Profile) publishes
// to them. Call it at construction time, before the engine serves
// queries; a nil reg disables metrics again.
func (e *Engine) Instrument(reg *obs.Registry) {
	m := engineMetrics{
		queries: reg.Counter("re2xolap_sparql_queries_total", "Queries executed by the SPARQL engine."),
		errors:  reg.Counter("re2xolap_sparql_query_errors_total", "Queries that failed (syntax or execution)."),
		rows:    reg.Counter("re2xolap_sparql_rows_total", "Result rows produced."),
		total:   reg.Histogram("re2xolap_sparql_query_seconds", "End-to-end engine latency per query.", nil),
	}
	for i, name := range phaseNames {
		m.phase[i] = reg.Histogram("re2xolap_sparql_phase_seconds",
			"Engine wall time per execution phase.", nil, obs.L("phase", name))
	}
	e.metrics = m
}

// QueryStringTimed parses and executes src under ctx (cancellation or
// deadline expiry aborts the join mid-flight), reporting the per-phase
// wall-time breakdown. An EXPLAIN prefix returns the plan as a
// one-column result set and reports parse and plan; EXPLAIN ANALYZE
// returns the runtime profile and reports the analyzed query's phases.
// Metrics (if instrumented) and trace spans (if ctx carries one) are
// recorded as a side effect. The protocol layer uses this to fill
// QueryMeta and feed the slow-query log.
func (e *Engine) QueryStringTimed(ctx context.Context, src string) (*Results, PhaseTimings, error) {
	res, pt, _, err := e.run(ctx, src, false)
	return res, pt, err
}

// recordQuery publishes one query's timings to the registry and the
// active trace span.
func (e *Engine) recordQuery(pt PhaseTimings, span *obs.Span, err error) {
	m := &e.metrics
	m.queries.Inc()
	if err != nil {
		m.errors.Inc()
	}
	m.rows.Add(int64(pt.Rows))
	m.total.ObserveDuration(pt.Total())
	for i, d := range pt.fields() {
		m.phase[i].ObserveDuration(*d)
	}
	if span != nil {
		pt.Each(func(name string, d time.Duration) {
			if d > 0 {
				span.Record(name, d)
			}
		})
		span.SetAttr("rows", strconv.Itoa(pt.Rows))
		if err != nil {
			span.SetAttr("error", err.Error())
		}
	}
}
