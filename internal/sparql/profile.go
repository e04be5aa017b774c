package sparql

import (
	"context"
	"fmt"
	"strings"
	"time"

	"re2xolap/internal/rdf"
)

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

// profiler is the engine's one query recorder: the phase clock of
// every string entry point and, for a profile, the operator tree
// mirroring the Explain plan. A nil *profiler is the bare path
// (subqueries, QueryContext): no timestamps, one pointer check per
// operator. Worker clones never carry one, so fan-out is recorded as
// the Workers attribute of the operator that fanned out and the tree
// is the same at any worker count.
type profiler struct {
	pt     PhaseTimings
	lapped int          // phases closed so far: the running one's index
	mark   time.Time    // when the running phase started
	root   *ProfileNode // nil unless growing the operator tree
	stack  []*ProfileNode
}

// newProfiler starts the clock of one query, its first phase running;
// tree asks for the operator tree.
func newProfiler(tree bool) *profiler {
	p := &profiler{mark: time.Now()}
	if tree {
		p.root = &ProfileNode{Op: "query", Est: -1, start: p.mark}
		p.stack = []*ProfileNode{p.root}
	}
	return p
}

// lap closes the running phase and starts the next at one instant,
// which it returns. Phases run in phaseNames order, so each lap closes
// the next one; a query that stops early leaves the rest at zero.
func (p *profiler) lap() time.Time {
	if p == nil {
		return time.Time{}
	}
	now := time.Now()
	*p.pt.fields()[p.lapped] = now.Sub(p.mark)
	p.lapped, p.mark = p.lapped+1, now
	return now
}

// ops returns p when it grows the operator tree and nil otherwise:
// the executor's profiler, whose nil is the one per-operator check.
func (p *profiler) ops() *profiler {
	if p == nil || p.root == nil {
		return nil
	}
	return p
}

// open appends a child started now under the current node and makes
// it current.
func (p *profiler) open(op, detail string, rowsIn int) *ProfileNode {
	return p.openAt(time.Now(), op, detail, rowsIn)
}

// openAt is open with the start instant given, for the nodes that
// begin on a phase lap.
func (p *profiler) openAt(start time.Time, op, detail string, rowsIn int) *ProfileNode {
	n := &ProfileNode{Op: op, Detail: detail, RowsIn: rowsIn, Est: -1, start: start}
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

// closeAt ends n at end and pops the stack down to n's parent; a nil
// n is a no-op. Searching from the top makes it robust to error paths
// that abandoned deeper nodes without closing them.
func (p *profiler) closeAt(n *ProfileNode, end time.Time, rowsOut int) {
	if n == nil {
		return
	}
	n.RowsOut = rowsOut
	n.Wall = end.Sub(n.start)
	for i := len(p.stack) - 1; i >= 1; i-- {
		if p.stack[i] == n {
			p.stack = p.stack[:i]
			return
		}
	}
}

// profile closes the root at the last lap — so its wall is the phase
// total — with the cardinality of res, and returns the record of the
// query src.
func (p *profiler) profile(src string, res *Results) *Profile {
	pt := p.pt
	if res != nil {
		pt.Rows = res.Len()
	}
	p.root.RowsOut = pt.Rows
	p.root.Wall = p.mark.Sub(p.root.start)
	p.stack = p.stack[:1]
	return &Profile{Query: src, Phases: pt, Root: p.root}
}

// profClose finalizes a node opened by an `if ex.prof != nil` site.
// Nil-safe on both the node and the profiler (the profiler may have
// been temporarily suppressed between open and close).
func (ex *executor) profClose(n *ProfileNode, rowsOut int) {
	if n == nil || ex.prof == nil {
		return
	}
	ex.prof.closeAt(n, time.Now(), rowsOut)
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
	fmt.Fprintf(&b, "EXPLAIN ANALYZE  rows=%d total=%s\nphases:", p.Phases.Rows, p.Phases.Total().Round(time.Microsecond))
	p.Phases.Each(func(name string, d time.Duration) {
		fmt.Fprintf(&b, " %s=%s", name, d.Round(time.Microsecond))
	})
	b.WriteByte('\n')
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
	res, _, p, err := e.run(ctx, src, true)
	return res, p, err
}

// explainPrefix recognizes the EXPLAIN / EXPLAIN ANALYZE query prefix
// (case-insensitive) and returns the query text after it; without one,
// rest is src. No legal SPARQL form starts with EXPLAIN, so the prefix
// cannot shadow a real query.
func explainPrefix(src string) (rest string, analyze, ok bool) {
	s := strings.TrimSpace(src)
	const kw = "EXPLAIN"
	if len(s) <= len(kw) || !strings.EqualFold(s[:len(kw)], kw) || !isSpaceByte(s[len(kw)]) {
		return src, false, false
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

// planResults serves an EXPLAIN[-ANALYZE] answer as a result set with
// one "plan" column and one row per output line, so the plan travels
// through every client and serialization unchanged.
func planResults(text string) *Results {
	res := &Results{Vars: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, []rdf.Term{rdf.NewString(line)})
	}
	return res
}
