package sparql

import (
	"context"
	"strconv"
	"time"

	"re2xolap/internal/obs"
)

// PhaseTimings is the per-query wall-time breakdown the instrumented
// engine reports: parse (text → AST), plan (executor setup and
// short-circuit analysis; join-order selection itself happens inside
// the join phase, per BGP block), join (pattern matching, filters,
// closures — the bulk), aggregate (grouping/projection), and sort
// (ORDER BY/DISTINCT/LIMIT modifiers). Serialization happens above
// the engine, in the protocol layer, which accounts for it
// separately.
type PhaseTimings struct {
	Parse     time.Duration
	Plan      time.Duration
	Join      time.Duration
	Aggregate time.Duration
	Sort      time.Duration
	// Rows is the result row count (0 for ASK).
	Rows int
}

// Total sums the measured phases (engine-side time; the caller's wall
// clock may add queueing and serialization on top).
func (p PhaseTimings) Total() time.Duration {
	return p.Parse + p.Plan + p.Join + p.Aggregate + p.Sort
}

// engineMetrics caches the engine's registry series so the per-query
// cost of metrics is a handful of atomic adds — no registry lookups
// on the hot path.
type engineMetrics struct {
	queries *obs.Counter
	errors  *obs.Counter
	rows    *obs.Counter
	total   *obs.Histogram
	phase   [5]*obs.Histogram // parse, plan, join, aggregate, sort
}

var phaseNames = [5]string{"parse", "plan", "join", "aggregate", "sort"}

// Instrument registers the engine's query metrics in reg; the timed
// entry points (QueryStringTimed, Profile) publish to them. Call it at
// construction time, before the engine serves queries; a nil reg
// disables metrics again.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		e.metrics = nil
		return
	}
	m := &engineMetrics{
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
// wall-time breakdown. An EXPLAIN or EXPLAIN ANALYZE prefix returns the
// plan or the runtime profile as a one-column result set. Metrics
// (if instrumented) and trace spans (if ctx carries one) are recorded
// as a side effect. The protocol layer uses this to fill QueryMeta
// and feed the slow-query log.
func (e *Engine) QueryStringTimed(ctx context.Context, src string) (*Results, PhaseTimings, error) {
	if rest, analyze, ok := explainPrefix(src); ok {
		var pt PhaseTimings
		start := time.Now()
		res, err := e.runExplain(ctx, rest, analyze)
		pt.Plan = time.Since(start)
		if res != nil {
			pt.Rows = res.Len()
		}
		return res, pt, err
	}
	var pt PhaseTimings
	start := time.Now()
	q, err := Parse(src)
	pt.Parse = time.Since(start)
	if err != nil {
		e.recordQuery(pt, obs.SpanFrom(ctx), err)
		return nil, pt, err
	}
	res, err := e.queryPhased(ctx, q, e.st.View(), &pt, nil)
	if res != nil {
		pt.Rows = res.Len()
	}
	e.recordQuery(pt, obs.SpanFrom(ctx), err)
	return res, pt, err
}

// recordQuery publishes one query's timings to the registry and the
// active trace span.
func (e *Engine) recordQuery(pt PhaseTimings, span *obs.Span, err error) {
	if m := e.metrics; m != nil {
		m.queries.Inc()
		if err != nil {
			m.errors.Inc()
		}
		m.rows.Add(int64(pt.Rows))
		m.total.ObserveDuration(pt.Total())
		for i, d := range [5]time.Duration{pt.Parse, pt.Plan, pt.Join, pt.Aggregate, pt.Sort} {
			m.phase[i].ObserveDuration(d)
		}
	}
	if span != nil {
		for i, d := range [5]time.Duration{pt.Parse, pt.Plan, pt.Join, pt.Aggregate, pt.Sort} {
			if d > 0 {
				span.Record(phaseNames[i], d)
			}
		}
		span.SetAttr("rows", strconv.Itoa(pt.Rows))
		if err != nil {
			span.SetAttr("error", err.Error())
		}
	}
}
