package sparql

import (
	"context"
	"fmt"
	"strings"
	"time"

	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
)

// Runtime query profiler: a per-operator tree mirroring the Explain
// plan, filled during execution with observed cardinalities and wall
// times. The profiler follows the package's nil-safe instrumentation
// pattern — a nil *profiler on the executor is the disabled state and
// costs one pointer check per operator, so the bare query path stays
// byte-identical and within noise of the unprofiled engine. Worker
// clones never profile (clone() leaves prof nil): fan-out is recorded
// as the Workers attribute on the operator that fanned out, which
// keeps the tree deterministic across worker counts.

// ProfileNode is one operator of a profiled execution: what ran, how
// many rows went in and came out, the planner's cardinality estimate
// where one existed, and the operator's wall time.
type ProfileNode struct {
	// Op names the operator: "query", "bgp", "scan", "index join",
	// "filter", "values", "text-seed", "subquery", "closure", "union",
	// "optional", "bind", "aggregate", "project", "construct",
	// "modifiers". The steps and filters of a pattern join are pipelined,
	// so they sit under the "bgp" node that timed them and carry counts
	// but no Wall of their own.
	Op string
	// Detail is the operator-specific description (the triple pattern,
	// filter expression, keyword, ...).
	Detail string
	// RowsIn/RowsOut are the observed input and output cardinalities.
	RowsIn  int
	RowsOut int
	// Est is the planner's cardinality estimate for this operator
	// (index entry count for pattern joins, candidate count for text
	// seeds); -1 when the planner had no estimate.
	Est int64
	// Workers is the fan-out width when the operator ran on the worker
	// pool; 0 or 1 means it ran sequentially.
	Workers int
	// Wall is the operator's elapsed wall time.
	Wall     time.Duration
	Children []*ProfileNode

	start time.Time
}

// profiler collects ProfileNodes during one query execution. It is
// single-goroutine by construction: only the root executor carries a
// profiler, worker clones run bare.
type profiler struct {
	root  *ProfileNode
	stack []*ProfileNode
}

func newProfiler() *profiler {
	root := &ProfileNode{Op: "query", Est: -1, start: time.Now()}
	return &profiler{root: root, stack: []*ProfileNode{root}}
}

// open appends a child under the current node and makes it current.
func (p *profiler) open(op, detail string, rowsIn int) *ProfileNode {
	n := &ProfileNode{Op: op, Detail: detail, RowsIn: rowsIn, Est: -1, start: time.Now()}
	top := p.stack[len(p.stack)-1]
	top.Children = append(top.Children, n)
	p.stack = append(p.stack, n)
	return n
}

// plan appends the schedule of a pattern-join plan under the current
// node — the seed filters, then every step with the filters that run
// after it — each with the row counts the run observed.
func (p *profiler) plan(bp *bgpPlan) {
	top := p.stack[len(p.stack)-1]
	add := func(op, detail string, est int64, c stepCount) {
		top.Children = append(top.Children, &ProfileNode{
			Op: op, Detail: detail, Est: est, RowsIn: c.in, RowsOut: c.out, Workers: c.workers,
		})
	}
	filters := func(fs []planFilter) {
		for _, f := range fs {
			add("filter", fmt.Sprint(f.expr), -1, bp.counts[f.n])
		}
	}
	filters(bp.seed)
	for i, st := range bp.steps {
		add(st.op(), fmt.Sprint(st.tp), int64(st.est), bp.counts[i])
		filters(st.filters)
	}
}

// close finalizes n and pops the stack down to n's parent. Searching
// from the top makes close robust to error paths that abandoned
// deeper nodes without closing them.
func (p *profiler) close(n *ProfileNode, rowsOut int) {
	n.RowsOut = rowsOut
	n.Wall = time.Since(n.start)
	for i := len(p.stack) - 1; i >= 1; i-- {
		if p.stack[i] == n {
			p.stack = p.stack[:i]
			return
		}
	}
}

// finish closes the root with the final result cardinality.
func (p *profiler) finish(rows int) {
	p.root.RowsOut = rows
	p.root.Wall = time.Since(p.root.start)
	p.stack = p.stack[:1]
}

// profClose finalizes a node opened by an `if ex.prof != nil` site.
// Nil-safe on both the node and the profiler (the profiler may have
// been temporarily suppressed between open and close).
func (ex *executor) profClose(n *ProfileNode, rowsOut int) {
	if n == nil || ex.prof == nil {
		return
	}
	ex.prof.close(n, rowsOut)
}

// Profile is the result of a profiled execution: the phase breakdown
// plus the per-operator tree.
type Profile struct {
	Query  string
	Phases PhaseTimings
	Root   *ProfileNode
}

// String renders the profile as an EXPLAIN ANALYZE-style indented
// tree with estimates, observed cardinalities, and wall times.
func (p *Profile) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE  rows=%d total=%s\n", p.Phases.Rows, p.Phases.Total().Round(time.Microsecond))
	fmt.Fprintf(&b, "phases: parse=%s plan=%s join=%s aggregate=%s sort=%s\n",
		p.Phases.Parse.Round(time.Microsecond), p.Phases.Plan.Round(time.Microsecond),
		p.Phases.Join.Round(time.Microsecond), p.Phases.Aggregate.Round(time.Microsecond),
		p.Phases.Sort.Round(time.Microsecond))
	if p.Root != nil {
		writeProfileNode(&b, p.Root, 0)
	}
	return b.String()
}

func writeProfileNode(b *strings.Builder, n *ProfileNode, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.Op)
	if n.Detail != "" {
		b.WriteString(" ")
		b.WriteString(n.Detail)
	}
	b.WriteString("  [")
	if n.Est >= 0 {
		fmt.Fprintf(b, "est=%d ", n.Est)
	}
	fmt.Fprintf(b, "in=%d out=%d", n.RowsIn, n.RowsOut)
	if !n.start.IsZero() {
		fmt.Fprintf(b, " wall=%s", n.Wall.Round(time.Microsecond))
	}
	if n.Workers > 1 {
		fmt.Fprintf(b, " workers=%d", n.Workers)
	}
	b.WriteString("]\n")
	for _, c := range n.Children {
		writeProfileNode(b, c, depth+1)
	}
}

// aggregateDetail summarizes the grouping an aggregate node performs.
func aggregateDetail(q *Query) string {
	if len(q.GroupBy) == 0 {
		return "no GROUP BY"
	}
	return "GROUP BY " + strings.Join(q.GroupBy, ", ")
}

// modifierDetail summarizes the ORDER BY/DISTINCT/LIMIT stage.
func modifierDetail(q *Query) string {
	var parts []string
	if len(q.OrderBy) > 0 {
		parts = append(parts, fmt.Sprintf("ORDER BY (%d keys)", len(q.OrderBy)))
	}
	if q.Distinct {
		parts = append(parts, "DISTINCT")
	}
	if q.Offset > 0 {
		parts = append(parts, fmt.Sprintf("OFFSET %d", q.Offset))
	}
	if q.Limit >= 0 {
		parts = append(parts, fmt.Sprintf("LIMIT %d", q.Limit))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// CardDelta is one estimated-vs-actual cardinality pair from a
// profiled execution — the feedback signal a cost-based planner
// consumes.
type CardDelta struct {
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`
	Est    int64  `json:"est"`
	Actual int64  `json:"actual"`
}

// Deltas returns the estimate-vs-actual pairs for every operator the
// planner estimated (pattern joins, text seeds), in execution order.
func (p *Profile) Deltas() []CardDelta {
	if p == nil || p.Root == nil {
		return nil
	}
	var out []CardDelta
	var walk func(n *ProfileNode)
	walk = func(n *ProfileNode) {
		if n.Est >= 0 {
			out = append(out, CardDelta{Op: n.Op, Detail: n.Detail, Est: n.Est, Actual: int64(n.RowsOut)})
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return out
}

// Profile parses and executes src with the runtime profiler enabled,
// returning the results and the per-operator profile. The results are
// byte-identical to QueryString — profiling only observes. Metrics
// (if instrumented) and trace spans (if ctx carries one) are recorded
// like QueryStringTimed. On execution errors the partial profile is
// still returned alongside the error.
func (e *Engine) Profile(ctx context.Context, src string) (*Results, *Profile, error) {
	var pt PhaseTimings
	start := time.Now()
	q, err := Parse(src)
	pt.Parse = time.Since(start)
	if err != nil {
		e.recordQuery(pt, obs.SpanFrom(ctx), err)
		return nil, nil, err
	}
	prof := newProfiler()
	res, err := e.queryPhased(ctx, q, e.st.View(), &pt, prof)
	if res != nil {
		pt.Rows = res.Len()
	}
	prof.finish(pt.Rows)
	p := &Profile{Query: src, Phases: pt, Root: prof.root}
	e.recordQuery(pt, obs.SpanFrom(ctx), err)
	return res, p, err
}

// explainPrefix recognizes the EXPLAIN / EXPLAIN ANALYZE query prefix
// (case-insensitive) and returns the query text after it. No legal
// SPARQL form starts with EXPLAIN, so the prefix cannot shadow a real
// query.
func explainPrefix(src string) (rest string, analyze, ok bool) {
	s := strings.TrimSpace(src)
	const kw = "EXPLAIN"
	if len(s) <= len(kw) || !strings.EqualFold(s[:len(kw)], kw) || !isSpaceByte(s[len(kw)]) {
		return "", false, false
	}
	rest = strings.TrimSpace(s[len(kw):])
	const kw2 = "ANALYZE"
	if len(rest) > len(kw2) && strings.EqualFold(rest[:len(kw2)], kw2) && isSpaceByte(rest[len(kw2)]) {
		return strings.TrimSpace(rest[len(kw2):]), true, true
	}
	return rest, false, true
}

func isSpaceByte(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// runExplain serves an EXPLAIN[-ANALYZE]-prefixed query as a result
// set with one "plan" column and one row per output line, so the plan
// travels through every client and serialization unchanged.
func (e *Engine) runExplain(ctx context.Context, src string, analyze bool) (*Results, error) {
	var text string
	if analyze {
		_, p, err := e.Profile(ctx, src)
		if err != nil {
			return nil, err
		}
		text = p.String()
	} else {
		t, err := e.ExplainString(src)
		if err != nil {
			return nil, err
		}
		text = t
	}
	res := &Results{Vars: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, []rdf.Term{rdf.NewString(line)})
	}
	return res, nil
}
