package sparql

import (
	"fmt"
	"slices"
	"sync"

	"re2xolap/internal/store"
)

// One plan and one operator join every basic graph pattern — the WHERE
// clause's own patterns, UNION branches, OPTIONAL blocks and EXISTS
// groups, under a solution budget or without one, on one goroutine or
// on the worker pool. planBGP fixes a left-deep order of index
// nested-loop joins once; run pipelines seed rows through it depth
// first, so no intermediate level is materialised.

// termPos is one position of a planned pattern, resolved once: a
// variable's slot, or a constant's dictionary ID.
type termPos struct {
	slot int      // variable slot; -1 for a constant
	id   store.ID // the constant's ID; 0 when the data does not hold the term
}

func (p termPos) of(r row) store.ID {
	if p.slot < 0 {
		return p.id
	}
	return r[p.slot]
}

// planFilter is a filter scheduled at the first point where all its
// variables are bound, compiled against the plan's slots; n indexes its
// counter.
type planFilter struct {
	expr Expr
	test condFn
	n    int
}

// bgpStep is one index nested-loop join of a plan.
type bgpStep struct {
	tp  *TriplePattern // in the patterns the plan was made for
	pos [3]termPos
	// A variable repeated within the pattern (?x ?p ?x) constrains the
	// match itself. Nothing else needs checking per match: a slot the
	// row already binds is passed to Match as a bound component.
	sameSP, sameSO, samePO bool
	est                    int  // MatchCount over the constants: the planner's estimate
	joined                 bool // an earlier step or the seed binds one of its variables
	filters                []planFilter
}

// op names the step the way plans and profiles print it.
func (st *bgpStep) op() string {
	if st.joined {
		return "index join"
	}
	return "scan"
}

// stepCount is the observed traffic of one step or filter.
type stepCount struct{ in, out, workers int }

// bgpPlan is the join order, the resolved patterns and the filter
// schedule for seed rows binding exactly the slots in bound. Everything
// but counts is immutable once built, so worker clones share it; counts
// belongs to the goroutine that planned, clones count into their own
// array and the planner sums them (see joinPlan).
type bgpPlan struct {
	bound    []bool
	seed     []planFilter // evaluable on the seed row
	steps    []bgpStep
	residual []int // open plans: indexes of the filters no step covers
	empty    bool  // a constant is absent from the data: no solutions
	counts   []stepCount
}

// registerVars gives every pattern variable its slot, in syntactic
// order. Callers that fan out register before they do, so the parent
// and every clone agree on slot numbering.
func (ex *executor) registerVars(patterns []TriplePattern) {
	for _, tp := range patterns {
		for _, n := range [3]Node{tp.S, tp.P, tp.O} {
			if n.IsVar {
				ex.slot(n.Var)
			}
		}
	}
}

// sameBound reports whether r binds exactly the slots in bound — the
// one definition of "the seed binds this variable".
func sameBound(bound []bool, r row) bool {
	for s, id := range r {
		if bound[s] != (id != 0) {
			return false
		}
	}
	return true
}

// planBGP orders patterns greedily for seed rows that bind the slots r
// binds and schedules every filter at the first point where its
// variables are bound: on the seed, after a step, or — when none
// covers it — as a residual. An open plan (the caller still joins
// closures, unions, optionals or BINDs, which may bind more) hands the
// residuals back; otherwise they run at the last step, so a budget
// counts only surviving rows.
func (ex *executor) planBGP(patterns []TriplePattern, filters []Expr, r row, open bool) *bgpPlan {
	n := len(patterns)
	// One array holds the plan's seed binding, the binding as the plan
	// grows, and which filters are scheduled.
	flags := make([]bool, 2*len(r)+len(filters))
	bound, scheduled := flags[len(r):2*len(r)], flags[2*len(r):]
	p := &bgpPlan{bound: flags[:len(r):len(r)], steps: make([]bgpStep, n), counts: make([]stepCount, n+len(filters))}
	for s, id := range r {
		p.bound[s] = id != 0
		bound[s] = id != 0
	}
	for i := range patterns {
		tp, st := &patterns[i], &p.steps[i]
		st.tp = tp
		for k, nd := range [3]*Node{&tp.S, &tp.P, &tp.O} {
			if nd.IsVar {
				st.pos[k] = termPos{slot: ex.slot(nd.Var)}
				continue
			}
			id, ok := ex.dict.Lookup(nd.Term)
			st.pos[k] = termPos{slot: -1, id: id}
			p.empty = p.empty || !ok
		}
		s, pr, o := st.pos[0], st.pos[1], st.pos[2]
		st.sameSP = s.slot >= 0 && s.slot == pr.slot
		st.sameSO = s.slot >= 0 && s.slot == o.slot
		st.samePO = pr.slot >= 0 && pr.slot == o.slot
		st.est = ex.view.MatchCount(s.id, pr.id, o.id)
	}
	// A filter waits for the slots of its variables; one naming a
	// variable without a slot can only be a residual.
	waits := make([][]int, len(filters))
	for i, f := range filters {
		for _, name := range exprVars(f, nil, true) {
			s, _ := ex.vars.lookup(name)
			waits[i] = append(waits[i], s)
		}
	}
	nextCount := n
	schedule := func(dst []planFilter, force bool) []planFilter {
		for i, f := range filters {
			ready := !scheduled[i] && !slices.ContainsFunc(waits[i], func(s int) bool { return s < 0 || !bound[s] })
			if ready || force && !scheduled[i] {
				scheduled[i] = true
				dst = append(dst, planFilter{expr: f, test: ex.compileCond(f), n: nextCount})
				nextCount++
			}
		}
		return dst
	}
	p.seed = schedule(nil, false)
	// Step k is the cheapest of the steps not yet placed, which keep
	// their syntactic order behind it: ties go to the earliest.
	for k := range p.steps {
		i := k
		if !ex.eng.DisableJoinOrdering {
			i += cheapestPattern(p.steps[k:], bound)
		}
		st := p.steps[i]
		copy(p.steps[k+1:i+1], p.steps[k:i])
		for _, tp := range st.pos {
			st.joined = st.joined || tp.slot >= 0 && bound[tp.slot]
		}
		for _, tp := range st.pos {
			if tp.slot >= 0 {
				bound[tp.slot] = true
			}
		}
		st.filters = schedule(nil, false)
		p.steps[k] = st
	}
	switch {
	case open:
		for i := range filters {
			if !scheduled[i] {
				p.residual = append(p.residual, i)
			}
		}
	case n > 0:
		p.steps[n-1].filters = schedule(p.steps[n-1].filters, true)
	default:
		p.seed = schedule(p.seed, true)
	}
	return p
}

// cheapestPattern returns the index of the cheapest step to join next.
// Constant positions use exact index counts; positions holding an
// already-bound variable divide the estimate since the join will be
// index-driven per row. Patterns sharing a bound variable are always
// preferred over disconnected ones — joining a disconnected pattern is
// a cartesian product, which dwarfs any per-pattern count difference.
// (Disconnected remains possible when the query itself is a product of
// independent components.)
func cheapestPattern(steps []bgpStep, bound []bool) int {
	anyBound := slices.Contains(bound, true)
	best, bestCost, bestConnected := 0, -1, false
	for i := range steps {
		div := 1
		connected := !anyBound
		for _, p := range steps[i].pos {
			if p.slot >= 0 && bound[p.slot] {
				div *= 16
				connected = true
			}
		}
		cost := steps[i].est/div + 1
		better := false
		switch {
		case bestCost < 0:
			better = true
		case connected != bestConnected:
			better = connected
		default:
			better = cost < bestCost
		}
		if better {
			best, bestCost, bestConnected = i, cost, connected
		}
	}
	return best
}

// bgpSegment is a run of consecutive seed rows that bind the same
// slots, with the plan for that binding.
type bgpSegment struct {
	rows []row
	plan *bgpPlan
}

// planSeed registers the patterns' variables, pads rows to the slot
// count and splits them into segments. A variable counts as seed-bound
// only where every row of the segment binds it: rows that differ
// (VALUES with UNDEF, OPTIONAL after UNION) get a plan per distinct
// binding, planned once each, and a uniform seed — the usual case —
// is one segment.
func (ex *executor) planSeed(rows []row, patterns []TriplePattern, filters []Expr, open bool) []bgpSegment {
	ex.registerVars(patterns)
	rows = ex.extendRows(rows)
	var segs []bgpSegment
	lo := 0
	var cur *bgpPlan
	for i, r := range rows {
		if cur != nil && sameBound(cur.bound, r) {
			continue
		}
		if cur != nil {
			segs = append(segs, bgpSegment{rows: rows[lo:i], plan: cur})
			lo = i
		}
		// An earlier segment may have planned this binding already.
		if k := slices.IndexFunc(segs, func(s bgpSegment) bool { return sameBound(s.plan.bound, r) }); k >= 0 {
			cur = segs[k].plan
		} else {
			cur = ex.planBGP(patterns, filters, r, open)
		}
	}
	if cur != nil {
		segs = append(segs, bgpSegment{rows: rows[lo:], plan: cur})
	}
	return segs
}

// segPlans is the distinct plans of segs, in first-use order.
func segPlans(segs []bgpSegment) []*bgpPlan {
	var plans []*bgpPlan
	for _, s := range segs {
		if !slices.Contains(plans, s.plan) {
			plans = append(plans, s.plan)
		}
	}
	return plans
}

// joinBGP is the WHERE clause's own pattern join: plan, run, and — when
// profiling — one bgp node carrying the wall time with a counted node
// per step and filter beneath it. It returns the joined rows and, for
// an open join, the filters left for the caller to apply last.
func (ex *executor) joinBGP(rows []row, patterns []TriplePattern, filters []Expr, open bool, budget int) ([]row, []Expr, error) {
	var pn *ProfileNode
	if ex.prof != nil && len(patterns)+len(filters) > 0 {
		detail := fmt.Sprintf("%d patterns", len(patterns))
		if budget > 0 {
			detail += fmt.Sprintf(", budget %d", budget)
		}
		pn = ex.prof.open("bgp", detail, len(rows))
	}
	segs := ex.planSeed(rows, patterns, filters, open)
	out, err := ex.joinSegs(segs, budget)
	if pn != nil {
		for _, plan := range segPlans(segs) {
			ex.prof.plan(plan)
		}
	}
	ex.profClose(pn, len(out))
	if !open {
		return out, nil, err
	}
	// A filter one plan settled and another left over is owed to the
	// rows of the second; applying it to all of them again is harmless.
	left := make([]bool, len(filters))
	for _, s := range segs {
		for _, i := range s.plan.residual {
			left[i] = true
		}
	}
	var residual []Expr
	for i, f := range filters {
		if left[i] {
			residual = append(residual, f)
		}
	}
	return out, residual, err
}

// joinSegs runs every segment through its plan and concatenates the
// outputs in seed order, stopping at budget rows (0 = all).
func (ex *executor) joinSegs(segs []bgpSegment, budget int) ([]row, error) {
	var out []row
	for _, s := range segs {
		rows, err := ex.joinPlan(s.rows, s.plan, max(budget-len(out), 0))
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = rows
		} else {
			out = append(out, rows...)
		}
		if budget > 0 && len(out) >= budget {
			break
		}
	}
	return out, nil
}

// joinPlan joins rows through every step of plan. A depth-first search
// exposes no concurrency, so with more than one worker the frontier is
// expanded a step at a time until it is wide enough to split; then
// each worker pipelines the remaining steps over its contiguous chunk
// with the full budget. Concatenating the chunk outputs in order and
// truncating to the budget reproduces the sequential output exactly:
// that is the first budget solutions in frontier order, each worker
// emits its chunk's solutions in that order, and a worker's own budget
// can only cut solutions beyond position budget of the concatenation.
// Budget 1 (ASK, EXISTS) stays sequential: the expected work is one
// path, and widening the frontier would be pure speculation.
func (ex *executor) joinPlan(rows []row, plan *bgpPlan, budget int) ([]row, error) {
	n := len(plan.steps)
	if ex.workers <= 1 || budget == 1 || n == 0 {
		return ex.run(rows, plan, 0, n, budget, plan.counts)
	}
	from := 0
	for ; from < n && len(rows) < max(ex.threshold, 2); from++ {
		lastBudget := 0
		if from+1 == n {
			lastBudget = budget
		}
		var err error
		if rows, err = ex.run(rows, plan, from, from+1, lastBudget, plan.counts); err != nil || len(rows) == 0 {
			return nil, err
		}
	}
	if from == n {
		return rows, nil
	}
	var mu sync.Mutex
	outs := make([][]row, ex.workers)
	err := ex.fanOut(len(rows), ex.workers, func(w *executor, c, lo, hi int) error {
		counts := make([]stepCount, len(plan.counts))
		var err error
		outs[c], err = w.run(rows[lo:hi], plan, from, n, budget, counts)
		mu.Lock()
		for i, c := range counts {
			plan.counts[i].in += c.in
			plan.counts[i].out += c.out
		}
		mu.Unlock()
		return err
	})
	for i := from; i < n; i++ {
		plan.counts[i].workers = ex.workers
	}
	out, err := ex.mergeChunks(outs, err)
	if budget > 0 && len(out) > budget {
		out = out[:budget]
	}
	return out, err
}

// Output-row slab sizes, in rows.
const (
	minSlabRows = 2
	maxSlabRows = 1024
)

// rowSlab carves output rows of one width from slabs that start small,
// because most joins are ASK-sized probes producing a row or two, and
// double up to maxSlabRows.
type rowSlab struct {
	free []store.ID
	rows int // the next slab's size in rows; 0 means minSlabRows
}

// head is the next row of width w, capacity-limited so an append to it
// cannot reach the row after; keep carves it off.
func (s *rowSlab) head(w int) row {
	if len(s.free) < w {
		s.rows = max(s.rows, minSlabRows)
		s.free = make([]store.ID, s.rows*w)
		s.rows = min(2*s.rows, maxSlabRows)
	}
	return s.free[:w:w]
}

func (s *rowSlab) keep(w int) { s.free = s.free[w:] }

// bgpRun is the state of one run call.
type bgpRun struct {
	ex     *executor
	plan   *bgpPlan
	to     int
	budget int
	counts []stepCount
	// in[d] is the input row of step d: the seed row at the first step,
	// below it the one scratch row the step above writes each match to.
	in    []row
	depth int // the step whose Match is delivering
	cb    func(s, p, o store.ID) bool
	out   []row
	slab  rowSlab
	// halt unwinds every nested Match: the budget is met or the query
	// was cancelled.
	halt bool
	// outBuf backs out for a budget of one, so an ASK or LIMIT 1 probe
	// allocates no output list.
	outBuf [1]row
}

// run is the one loop that matches triple patterns: it extends each
// seed row through plan steps [from, to) depth first and returns the
// rows complete at step to-1, in (seed row, match of from, match of
// from+1, …) lexicographic order — row for row what joining one whole
// level after another produces. Seed filters apply when from is 0,
// each step's filters as soon as the step has bound its variables;
// budget > 0 stops after that many rows. Every row in and out of a
// step or filter is counted in counts.
func (ex *executor) run(seed []row, plan *bgpPlan, from, to, budget int, counts []stepCount) ([]row, error) {
	if plan.empty || len(seed) == 0 {
		return nil, nil
	}
	b := &bgpRun{ex: ex, plan: plan, to: to, budget: budget, counts: counts}
	if budget == 1 {
		b.out = b.outBuf[:0]
	}
	if from < to {
		b.in = make([]row, to)
		// The scratch rows and the first output slab share an array; a
		// budget of one needs one output row.
		w := len(seed[0])
		n, first := (to-from-1)*w, minSlabRows
		if budget == 1 {
			first = 1
		}
		scratch := make([]store.ID, n+first*w)
		b.slab = rowSlab{free: scratch[n:], rows: 2 * minSlabRows}
		for d := from + 1; d < to; d++ {
			b.in[d], scratch = scratch[:w:w], scratch[w:]
		}
		b.cb = b.onMatch
	}
	// A cancelled scan must also stop the loop over the seed rows — on a
	// cartesian product that loop alone can run for minutes.
	for _, r := range seed {
		if b.halt || ex.cancelled() {
			break
		}
		if from == 0 && !b.pass(plan.seed, r) {
			continue
		}
		if from == to {
			b.emit(r)
			continue
		}
		b.in[from] = r
		b.expand(from)
	}
	if ex.dead.Load() {
		return nil, ex.ctxErr()
	}
	return b.out, nil
}

// expand matches step d against its input row.
func (b *bgpRun) expand(d int) {
	st, in := &b.plan.steps[d], b.in[d]
	b.counts[d].in++
	b.depth = d
	b.ex.view.Match(st.pos[0].of(in), st.pos[1].of(in), st.pos[2].of(in), b.cb)
}

// onMatch receives one match of step b.depth: it completes the row,
// applies the step's filters and hands the row to the next step, or
// emits it after the last.
func (b *bgpRun) onMatch(s, p, o store.ID) bool {
	if b.ex.cancelled() {
		b.halt = true
		return false
	}
	d := b.depth
	st, in := &b.plan.steps[d], b.in[d]
	if st.sameSP && s != p || st.sameSO && s != o || st.samePO && p != o {
		return true
	}
	last := d+1 == b.to
	var nr row
	if last {
		nr = b.slab.head(len(in))
	} else {
		nr = b.in[d+1]
	}
	copy(nr, in)
	for k, id := range [3]store.ID{s, p, o} {
		if slot := st.pos[k].slot; slot >= 0 {
			nr[slot] = id
		}
	}
	b.counts[d].out++
	if !b.pass(st.filters, nr) {
		return true
	}
	if last {
		b.slab.keep(len(nr))
		b.emit(nr)
	} else {
		b.expand(d + 1)
		b.depth = d
	}
	return !b.halt
}

func (b *bgpRun) emit(r row) {
	b.out = append(b.out, r)
	b.halt = b.halt || b.budget > 0 && len(b.out) >= b.budget
}

// pass reports whether r satisfies every filter; an evaluation error
// rejects the row.
func (b *bgpRun) pass(filters []planFilter, r row) bool {
	for _, f := range filters {
		b.counts[f.n].in++
		if keep, err := f.test(b.ex, r, nil); err != nil || !keep {
			return false
		}
		b.counts[f.n].out++
	}
	return true
}
