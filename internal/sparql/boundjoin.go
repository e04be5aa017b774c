package sparql

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"re2xolap/internal/rdf"
)

// Bound-join planning: decompose a cross-shard BGP into per-shard
// star subplans joined at the coordinator. Under subject-hash
// partitioning every triple of a subject lives on one shard, so a
// group of patterns sharing one subject node evaluates exactly on a
// scatter + union — each solution is computed wholly on the shard
// that owns its subject, and appears exactly once in the union. A
// query whose WHERE splits into two or more such groups joined on
// shared variables can therefore run as a sequence of scatters: fetch
// the statically most selective group first, then constrain each
// subsequent group's fetch with the distinct bindings accumulated so
// far, shipped as an inline VALUES block (the bound/semijoin
// technique of federated SPARQL engines). FILTERs whose variables a
// group covers are pushed into that group's fetch query; the rest
// evaluate at the coordinator after the join.

// BoundGroup is one subject star group of a bound-join plan: the
// patterns sharing a subject node, the filters pushed down into its
// fetch query, and the variables it binds in first-appearance order.
type BoundGroup struct {
	Patterns []TriplePattern
	Filters  []Expr
	Vars     []string
}

// PatternCardinalityHint scores a pattern's static selectivity from
// its constant positions — lower means fewer expected matches. The
// scale mirrors the triple-store access paths: a constant subject
// touches one subject's star, a constant predicate+object one
// relation cell, a constant object a reverse slice, a constant
// predicate a whole relation, and an all-variable pattern the store.
func PatternCardinalityHint(tp TriplePattern) int {
	sConst, pConst, oConst := !tp.S.IsVar, !tp.P.IsVar, !tp.O.IsVar
	switch {
	case sConst:
		return 2
	case pConst && oConst:
		return 8
	case oConst:
		return 12
	case pConst:
		return 32
	default:
		return 64
	}
}

// CardinalityHint scores the group: its most selective pattern,
// discounted for every extra pattern and pushed filter (each is a
// further constraint on the same star). Lower is more selective; the
// bound-join planner fetches lower-hint groups first so the bindings
// shipped to later groups come from the smaller side.
func (g *BoundGroup) CardinalityHint() int {
	h := 0
	for i, tp := range g.Patterns {
		w := PatternCardinalityHint(tp)
		if i == 0 || w < h {
			h = w
		}
	}
	h -= 2*(len(g.Patterns)-1) + len(g.Filters)
	if h < 1 {
		h = 1
	}
	return h
}

// BoundJoinPlan is a compiled bound-join execution: subject star
// groups in fetch order, the per-step join variables, and the
// residual filters left for the coordinator. The plan is a pure
// function of the query text and holds no execution state, so it is
// safe to cache and share across concurrent queries (NewExec builds
// the per-query state).
type BoundJoinPlan struct {
	orig     *Query
	groups   []BoundGroup
	joinVars [][]string // per step; step 0 is nil (unconstrained fetch)
	newVars  [][]string // vars each step appends to the accumulated layout
	residual []Expr
}

// Groups returns the star groups in execution order.
func (p *BoundJoinPlan) Groups() []BoundGroup { return p.groups }

// Steps returns the number of scatter rounds.
func (p *BoundJoinPlan) Steps() int { return len(p.groups) }

// JoinVars returns the variables step i joins on (nil for step 0).
func (p *BoundJoinPlan) JoinVars(i int) []string { return p.joinVars[i] }

// Residual returns the filters evaluated at the coordinator after
// the join (those spanning more than one group).
func (p *BoundJoinPlan) Residual() []Expr { return p.residual }

// PlanBoundJoin compiles q into a bound-join plan, or reports that
// the query is outside the class. The class: a SELECT or ASK whose
// WHERE is triple patterns and FILTERs only (no OPTIONAL, UNION,
// VALUES, BIND, closures, subselects), no aggregation, no EXISTS
// anywhere, and whose patterns form two or more subject star groups
// connected by shared variables. Disconnected groups (a cartesian
// product) are rejected — constraining a fetch with bindings that
// share no variable is impossible, and the gather fallback is exact.
func PlanBoundJoin(q *Query) (*BoundJoinPlan, bool) {
	if q.Construct != nil || q.Star || q.IsAggregate() {
		return nil, false
	}
	var filters []Expr
	type rawGroup struct {
		key  string
		g    BoundGroup
		pos  int // first-appearance index, the deterministic tie-break
		hint int
	}
	var raws []*rawGroup
	byKey := map[string]*rawGroup{}
	subjectKey := func(n Node) string {
		if n.IsVar {
			return "v\x00" + n.Var
		}
		return "t\x00" + n.Term.String()
	}
	for _, e := range q.Where {
		switch el := e.(type) {
		case TriplePattern:
			k := subjectKey(el.S)
			r := byKey[k]
			if r == nil {
				r = &rawGroup{key: k, pos: len(raws)}
				byKey[k] = r
				raws = append(raws, r)
			}
			r.g.Patterns = append(r.g.Patterns, el)
		case FilterElement:
			filters = append(filters, el.Expr)
		default:
			return nil, false
		}
	}
	if len(raws) < 2 {
		return nil, false
	}
	// EXISTS — in a FILTER, the projection or ORDER BY — needs row-time
	// pattern evaluation the coordinator cannot do.
	exprs := slices.Clone(filters)
	for _, it := range q.Select {
		if it.Expr != nil {
			exprs = append(exprs, it.Expr)
		}
	}
	for _, o := range q.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	if slices.ContainsFunc(exprs, contains[ExistsExpr]) {
		return nil, false
	}

	for _, r := range raws {
		for _, v := range appendPatternVars(nil, r.g.Patterns) {
			if !slices.Contains(r.g.Vars, v) {
				r.g.Vars = append(r.g.Vars, v)
			}
		}
	}

	// Push each filter into every group that binds all its variables;
	// filters no single group covers join at the coordinator. A filter
	// referencing a variable no pattern binds stays residual too, where
	// its unbound evaluation drops every row — same as the engine.
	p := &BoundJoinPlan{orig: q}
	for _, f := range filters {
		vars := exprVars(f, nil, true)
		pushed := false
		for _, r := range raws {
			if !slices.ContainsFunc(vars, func(v string) bool { return !slices.Contains(r.g.Vars, v) }) {
				r.g.Filters = append(r.g.Filters, f)
				pushed = true
			}
		}
		if !pushed {
			p.residual = append(p.residual, f)
		}
	}
	for _, r := range raws {
		r.hint = r.g.CardinalityHint()
	}

	// Greedy selectivity order under a connectivity constraint: start
	// from the most selective group, then repeatedly take the most
	// selective group sharing a variable with what is already bound.
	// Ties break on first appearance, keeping the order — and so every
	// generated fetch query — a deterministic function of the text.
	bound := map[string]bool{}
	used := make([]bool, len(raws))
	pick := func(connected bool) *rawGroup {
		var best *rawGroup
		for _, r := range raws {
			if used[r.pos] {
				continue
			}
			if connected && !slices.ContainsFunc(r.g.Vars, func(v string) bool { return bound[v] }) {
				continue
			}
			if best == nil || r.hint < best.hint {
				best = r
			}
		}
		return best
	}
	for len(p.groups) < len(raws) {
		r := pick(len(p.groups) > 0)
		if r == nil {
			return nil, false // disconnected join graph
		}
		used[r.pos] = true
		var jv, nv []string
		for _, v := range r.g.Vars {
			if bound[v] {
				jv = append(jv, v)
			} else {
				nv = append(nv, v)
				bound[v] = true
			}
		}
		p.groups = append(p.groups, r.g)
		p.joinVars = append(p.joinVars, jv)
		p.newVars = append(p.newVars, nv)
	}
	return p, true
}

// stepQuery builds the fetch query for one step: the group's
// patterns and pushed filters, preceded by a VALUES block over the
// join variables when bindings constrain the fetch. Solution
// modifiers never push down — they apply to the global join result.
func (p *BoundJoinPlan) stepQuery(step int, bindings [][]rdf.Term) *Query {
	g := p.groups[step]
	q := &Query{Limit: -1}
	for _, v := range g.Vars {
		q.Select = append(q.Select, SelectItem{Var: v})
	}
	if len(bindings) > 0 {
		rows := make([][]*rdf.Term, len(bindings))
		for i, b := range bindings {
			row := make([]*rdf.Term, len(b))
			for j := range b {
				t := b[j]
				row[j] = &t
			}
			rows[i] = row
		}
		q.Where = append(q.Where, ValuesElement{Vars: p.joinVars[step], Rows: rows})
	}
	for _, tp := range g.Patterns {
		q.Where = append(q.Where, tp)
	}
	for _, f := range g.Filters {
		q.Where = append(q.Where, FilterElement{Expr: f})
	}
	return q
}

// BoundJoinExec is the per-query execution state of a bound-join
// plan: the accumulated join relation and the hash table of the step
// in progress. Feed is safe for concurrent use — the coordinator
// streams shard responses into it as they arrive, so probe rows join
// while other shards are still answering.
type BoundJoinExec struct {
	plan *BoundJoinPlan

	mu      sync.Mutex
	step    int
	vars    []string     // accumulated layout after completed steps
	rows    [][]rdf.Term // accumulated join relation
	shipped int          // distinct bindings shipped in VALUES blocks

	// In-progress step state, set by StepQueries.
	hash     map[string][]int // join-key → accumulated row indices
	probeKey []int            // join-var positions in the probe layout
	probeNew []int            // new-var positions in the probe layout
	next     [][]rdf.Term
}

// NewExec returns fresh execution state for one query.
func (p *BoundJoinPlan) NewExec() *BoundJoinExec {
	return &BoundJoinExec{plan: p}
}

// Steps returns the number of scatter rounds.
func (e *BoundJoinExec) Steps() int { return len(e.plan.groups) }

// BindingsShipped returns the distinct binding rows shipped to the
// shards so far across all VALUES-constrained steps.
func (e *BoundJoinExec) BindingsShipped() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shipped
}

// Empty reports whether the accumulated relation is empty — callers
// can short-circuit the remaining steps (the join result stays empty).
func (e *BoundJoinExec) Empty() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.step > 0 && len(e.rows) == 0
}

// joinKey renders the join-variable projection of a row as a hash key.
func joinKey(row []rdf.Term, idx []int) (string, bool) {
	var b []byte
	for _, i := range idx {
		if !Bound(row[i]) {
			return "", false
		}
		b = append(b, row[i].String()...)
		b = append(b, 0)
	}
	return string(b), true
}

// StepQueries prepares the current step and returns its fetch-query
// texts: one unconstrained query for step 0, otherwise the group
// query repeated once per chunk of at most chunk distinct bindings
// (chunk <= 0 means a single unchunked VALUES block). The binding
// rows are deduplicated and canonically sorted first, so the texts —
// and the chunk boundaries — are a function of the accumulated
// solution set alone, independent of topology and arrival order. An
// empty return means the relation is already empty and the step (and
// all remaining ones) can be skipped.
func (e *BoundJoinExec) StepQueries(chunk int) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.plan.groups[e.step]
	e.next = nil
	e.probeKey = nil
	e.probeNew = nil
	jv := e.plan.joinVars[e.step]
	// The probe layout is the group's variable order; split it into
	// join positions (hash key) and new positions (appended columns).
	for i, v := range g.Vars {
		if slices.Contains(jv, v) {
			e.probeKey = append(e.probeKey, i)
		} else {
			e.probeNew = append(e.probeNew, i)
		}
	}
	if e.step == 0 {
		return []string{e.plan.stepQuery(0, nil).String()}
	}

	jIdx := make([]int, len(jv))
	for i, v := range jv {
		jIdx[i] = slices.Index(e.vars, v)
	}
	e.hash = make(map[string][]int, len(e.rows))
	type keyedBinding struct {
		key string
		row []rdf.Term
	}
	var distinct []keyedBinding
	for ri, row := range e.rows {
		k, ok := joinKey(row, jIdx)
		if !ok {
			continue
		}
		if _, dup := e.hash[k]; !dup {
			b := make([]rdf.Term, len(jIdx))
			for i, c := range jIdx {
				b[i] = row[c]
			}
			distinct = append(distinct, keyedBinding{key: k, row: b})
		}
		e.hash[k] = append(e.hash[k], ri)
	}
	if len(distinct) == 0 {
		return nil
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i].key < distinct[j].key })
	e.shipped += len(distinct)
	if chunk <= 0 {
		chunk = len(distinct)
	}
	var texts []string
	for lo := 0; lo < len(distinct); lo += chunk {
		hi := min(lo+chunk, len(distinct))
		bindings := make([][]rdf.Term, 0, hi-lo)
		for _, kb := range distinct[lo:hi] {
			bindings = append(bindings, kb.row)
		}
		texts = append(texts, e.plan.stepQuery(e.step, bindings).String())
	}
	return texts
}

// Feed streams one shard response of the current step into the join.
// For step 0 the rows accumulate directly; afterwards each probe row
// joins against the hash-table side, multiplying multiplicities —
// exact bag semantics, because every group solution is computed on
// exactly one shard (subject colocation) and matches exactly one
// distinct VALUES row (its own join projection), so the union over
// shards and chunks sees each solution exactly once.
func (e *BoundJoinExec) Feed(res *Results) error {
	if res == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.plan.groups[e.step]
	if len(res.Vars) != len(g.Vars) {
		return fmt.Errorf("sparql: bound join step %d: shard returned %d columns, want %d", e.step, len(res.Vars), len(g.Vars))
	}
	if e.step == 0 {
		e.next = append(e.next, res.Rows...)
		return nil
	}
	for _, row := range res.Rows {
		k, ok := joinKey(row, e.probeKey)
		if !ok {
			continue
		}
		for _, ri := range e.hash[k] {
			acc := e.rows[ri]
			out := make([]rdf.Term, 0, len(acc)+len(e.probeNew))
			out = append(out, acc...)
			for _, c := range e.probeNew {
				out = append(out, row[c])
			}
			e.next = append(e.next, out)
		}
	}
	return nil
}

// EndStep commits the step in progress: the joined rows become the
// accumulated relation and the layout grows by the step's new
// variables.
func (e *BoundJoinExec) EndStep() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rows = e.next
	e.vars = append(e.vars, e.plan.newVars[e.step]...)
	e.next, e.hash, e.probeKey, e.probeNew = nil, nil, nil, nil
	e.step++
}

// Finalize applies the residual filters, evaluates the projection,
// and finishes with the original query's modifiers, ties broken
// canonically. For ASK the boolean is whether any row survived. Filter
// errors drop the row and projection errors leave the cell unbound,
// matching the engine's semantics. The ORDER BY keys, in SPARQL's
// scope, are read off the joined rows, and a row is projected only once
// the canonical tie-break, DISTINCT or the answer needs it: rows seldom
// tie on their keys, so most rows an ordered LIMIT drops are never
// projected.
func (e *BoundJoinExec) Finalize() (*Results, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rows := e.rows
	c := termCompiler(e.vars)
	if len(e.plan.residual) > 0 {
		tests := make([]condFn, len(e.plan.residual))
		for i, f := range e.plan.residual {
			tests[i] = c.cond(f)
		}
		kept := rows[:0:0]
	rows:
		for _, row := range rows {
			for _, test := range tests {
				if keep, err := test(nil, nil, row); err != nil || !keep {
					continue rows
				}
			}
			kept = append(kept, row)
		}
		rows = kept
	}
	q := e.plan.orig
	if q.Ask {
		return &Results{IsAsk: true, Boolean: len(rows) > 0}, nil
	}
	vars := make([]string, len(q.Select))
	cells := make([]evalFn, len(q.Select))
	for i, it := range q.Select {
		vars[i] = it.Var
		cells[i] = c.value(it.cell())
	}
	return termSolutions(c, orderScope(q, nil), rows, vars, cells).finish(q, false), nil
}
