package sparql

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// Engine executes parsed queries against a store. An Engine is safe
// for concurrent use: each query takes an immutable store view at
// start (snapshot isolation) and keeps all mutable evaluation state in
// a per-query executor.
type Engine struct {
	st *store.Store
	// Exec configures intra-query parallelism; the zero value means
	// GOMAXPROCS workers (see ExecOptions). Set Exec.Workers = 1 for
	// the sequential debugging baseline.
	Exec ExecOptions
	// DisableTextIndex turns off the full-text rewrite of keyword
	// filters (used by the ablation benchmarks).
	DisableTextIndex bool
	// DisableJoinOrdering makes the executor join patterns in syntactic
	// order (used by the ablation benchmarks).
	DisableJoinOrdering bool

	// metrics holds the pre-registered observability series; nil
	// handles until Instrument is called.
	metrics engineMetrics
}

// NewEngine returns an engine over st.
func NewEngine(st *store.Store) *Engine { return &Engine{st: st} }

// Store returns the engine's backing store, letting serving layers
// reach store-level facts (e.g. the mutation generation counter)
// without holding a second reference.
func (e *Engine) Store() *store.Store { return e.st }

// QueryString parses and executes src. An EXPLAIN or EXPLAIN ANALYZE
// prefix returns the static plan or the runtime profile as a one-column
// result set instead of executing normally.
func (e *Engine) QueryString(src string) (*Results, error) {
	res, _, _, err := e.run(context.Background(), src, false)
	return res, err
}

// run is the one body of the string entry points: it strips an EXPLAIN
// prefix, times the parse, executes under one recorder and records the
// call exactly once. EXPLAIN answers with the plan and reports parse
// and plan; EXPLAIN ANALYZE answers with the profile and reports the
// analyzed query's phases. tree asks for the operator tree; the
// profile is nil when nothing executed.
func (e *Engine) run(ctx context.Context, src string, tree bool) (*Results, PhaseTimings, *Profile, error) {
	src, analyze, explain := explainPrefix(src)
	rec := newProfiler(tree || analyze)
	q, err := Parse(src)
	rec.lap()
	var res *Results
	var prof *Profile
	switch {
	case err != nil:
	case explain && !analyze:
		res = planResults(e.Explain(q))
		rec.lap()
	default:
		res, err = e.queryPhased(ctx, q, e.st.View(), rec)
		if rec.root != nil {
			prof = rec.profile(src, res)
		}
		if analyze && err == nil {
			res = planResults(prof.String())
		}
	}
	if res != nil {
		rec.pt.Rows = res.Len()
	}
	e.recordQuery(rec.pt, obs.SpanFrom(ctx), err)
	return res, rec.pt, prof, err
}

// Query executes a parsed query without cancellation.
func (e *Engine) Query(q *Query) (*Results, error) {
	return e.QueryContext(context.Background(), q)
}

// QueryContext executes a parsed query, aborting with ctx.Err() when
// the context is cancelled. Cancellation is checked every few thousand
// row extensions, so long-running analytical joins stop promptly (the
// paper's evaluation relies on endpoint timeouts for the similarity
// blow-up cases).
func (e *Engine) QueryContext(ctx context.Context, q *Query) (*Results, error) {
	return e.queryWithView(ctx, q, e.st.View())
}

// queryWithView executes q against an already-taken store view, so
// subqueries share the outer query's snapshot.
func (e *Engine) queryWithView(ctx context.Context, q *Query, view *store.View) (*Results, error) {
	return e.queryPhased(ctx, q, view, nil)
}

// queryPhased is queryWithView under the recorder rec, which laps the
// plan, join, aggregate and sort phases and, when it grows a tree,
// receives every operator's node. A nil rec (the default path, and all
// subqueries) takes no timestamps at all.
func (e *Engine) queryPhased(ctx context.Context, q *Query, view *store.View, rec *profiler) (*Results, error) {
	ex := e.newExecutor(ctx, view, rec.ops())
	// Short-circuit budget: ASK and plain LIMIT queries stop the join
	// as soon as enough full solutions exist, so their cost does not
	// grow with the number of matching observations (mirroring a real
	// triplestore's early-exit ASK).
	budget := 0
	switch {
	case q.Ask:
		budget = 1
	case !q.IsAggregate() && !q.Distinct && len(q.OrderBy) == 0 && q.Limit >= 0:
		budget = q.Limit + q.Offset
	}
	rec.lap() // plan
	rows, err := ex.evalWhere(q.Where, budget)
	joined := rec.lap()
	if err != nil {
		return nil, err
	}
	if err := ex.ctx.Err(); err != nil {
		return nil, err
	}
	if q.Ask {
		return &Results{IsAsk: true, Boolean: len(rows) > 0}, nil
	}
	if q.Construct != nil {
		var pn *ProfileNode
		if ex.prof != nil {
			pn = ex.prof.open("construct", fmt.Sprintf("%d template triples", len(q.Construct)), len(rows))
		}
		res := ex.construct(q, rows)
		ex.profClose(pn, len(res.Triples))
		return res, nil
	}
	// The aggregate (or project) and modifiers nodes span the laps of
	// their phases, so node walls and phase times are one reading.
	op, detail, stage := "project", "", ex.project
	if q.IsAggregate() {
		op, detail, stage = "aggregate", aggregateDetail(q), ex.aggregate
	}
	var pn *ProfileNode
	if ex.prof != nil {
		pn = ex.prof.openAt(joined, op, detail, len(rows))
		if ex.parallel(len(rows)) {
			pn.Workers = ex.workers
		}
	}
	sol, err := stage(q, rows)
	aggregated := rec.lap()
	if err != nil {
		return nil, err
	}
	ex.prof.closeAt(pn, aggregated, sol.n)
	var mn *ProfileNode
	if ex.prof != nil {
		mn = ex.prof.openAt(aggregated, "modifiers", modifierDetail(q), sol.n)
	}
	res := sol.finish(q, true)
	if err := ex.ctxErr(); err != nil {
		return nil, err
	}
	ex.prof.closeAt(mn, rec.lap(), len(res.Rows))
	return res, nil
}

// executor holds per-query state: the variable slot table and the
// binding rows. Parallel stages run on clones (see clone) that share
// the view, context, and cancellation latch but own everything
// mutable.
type executor struct {
	eng  *Engine
	view *store.View
	dict *store.Dict
	// local holds the terms the query computes that the dictionary
	// lacks; nil until the first (see encode).
	local *localTerms
	vars  slotTable
	// workers/threshold are the resolved parallelism settings for this
	// query; clones run with workers = 1.
	workers   int
	threshold int
	// ctx cancels long joins; ticks counts row extensions between
	// cancellation checks; dead latches the first observed
	// cancellation so every later check aborts immediately (the tick
	// boundary may land deep in a scan callback whose caller discards
	// errors — without the latch the rest of the query keeps running).
	// The latch is shared by all clones of one query, so a cancel seen
	// by any worker drains the whole pool promptly.
	ctx   context.Context
	ticks int
	dead  *atomic.Bool
	// prof collects the per-operator profile when non-nil; nil (the
	// default, and every worker clone) is the disabled state, costing
	// one pointer check per operator.
	prof *profiler
	// seed and seedIDs back evalWhere's one seed row for a query with
	// few variables; names starts the slot table.
	seed    [1]row
	seedIDs [8]store.ID
	names   [8]string
	// group is set only on the executor emit evaluates HAVING and the
	// projection with: the current group's finalized aggregates, which
	// an aggRef reads (compiler.aggregate).
	group []Value
}

// newExecutor returns the executor of one query over view; a nil ctx
// never cancels, a nil prof does not profile.
func (e *Engine) newExecutor(ctx context.Context, view *store.View, prof *profiler) *executor {
	// The latch shares the executor's allocation.
	q := new(struct {
		ex   executor
		dead atomic.Bool
	})
	q.ex = executor{
		eng: e, view: view, dict: view.Dict(), ctx: ctx,
		workers: e.Exec.workers(), threshold: e.Exec.threshold(),
		dead: &q.dead, prof: prof,
	}
	q.ex.vars.names = q.ex.names[:0]
	return &q.ex
}

// cancelCheckInterval is how many row extensions pass between context
// checks.
const cancelCheckInterval = 8192

// cancelled reports whether the query's context has been cancelled,
// checking at most every cancelCheckInterval calls.
func (ex *executor) cancelled() bool {
	if ex.dead.Load() {
		return true
	}
	if ex.ctx == nil {
		return false
	}
	ex.ticks++
	if ex.ticks%cancelCheckInterval != 0 {
		return false
	}
	if ex.ctx.Err() != nil {
		ex.dead.Store(true)
		return true
	}
	return false
}

// ctxErr is the unconditional form of cancelled, for loop boundaries
// where the per-iteration cost is already large.
func (ex *executor) ctxErr() error {
	if ex.ctx == nil {
		return nil
	}
	return ex.ctx.Err()
}

// slotTable numbers a query's variables: names[s] is the variable of
// slot s, in first-seen order. Slots are looked up when a query is
// compiled and planned, not per match, so a scan over the names does.
type slotTable struct {
	names []string
}

// lookup returns the slot of name.
func (t *slotTable) lookup(name string) (int, bool) {
	if s := slices.Index(t.names, name); s >= 0 {
		return s, true
	}
	return -1, false
}

// add returns the slot of name, giving it the next one if it has none.
func (t *slotTable) add(name string) int {
	if s, ok := t.lookup(name); ok {
		return s
	}
	t.names = append(t.names, name)
	return len(t.names) - 1
}

// clone returns a table a worker can grow on its own.
func (t *slotTable) clone() slotTable {
	return slotTable{names: slices.Clone(t.names)}
}

func (ex *executor) slot(name string) int { return ex.vars.add(name) }

// row is a partial solution: one term ID per slot, 0 = unbound.
type row []store.ID

func (ex *executor) extendRows(rows []row) []row {
	n := len(ex.vars.names)
	for i, r := range rows {
		if len(r) < n {
			rows[i] = append(make(row, 0, n), r...)[:n]
		}
	}
	return rows
}

// whereParts is a group graph pattern sorted by element kind, in the
// order evalWhere joins the kinds.
type whereParts struct {
	subs      []SubSelectElement
	values    []ValuesElement
	patterns  []TriplePattern
	filters   []Expr
	closures  []ClosurePattern
	unions    []UnionElement
	optionals []OptionalElement
	binds     []BindElement
}

// splitWhere sorts elems by kind. Patterns, filters and VALUES blocks
// are what the probes of example validation consist of: their slices
// are sized by one counting sweep and share nothing with later growth.
func splitWhere(elems []PatternElement) whereParts {
	var w whereParts
	patterns, filters, values := 0, 0, 0
	for _, el := range elems {
		switch el.(type) {
		case TriplePattern:
			patterns++
		case FilterElement:
			filters++
		case ValuesElement:
			values++
		}
	}
	if patterns > 0 {
		w.patterns = make([]TriplePattern, 0, patterns)
	}
	if filters > 0 {
		w.filters = make([]Expr, 0, filters)
	}
	if values > 0 {
		w.values = make([]ValuesElement, 0, values)
	}
	for _, el := range elems {
		switch x := el.(type) {
		case TriplePattern:
			w.patterns = append(w.patterns, x)
		case FilterElement:
			w.filters = append(w.filters, x.Expr)
		case ValuesElement:
			w.values = append(w.values, x)
		case OptionalElement:
			w.optionals = append(w.optionals, x)
		case UnionElement:
			w.unions = append(w.unions, x)
		case ClosurePattern:
			w.closures = append(w.closures, x)
		case SubSelectElement:
			w.subs = append(w.subs, x)
		case BindElement:
			w.binds = append(w.binds, x)
		}
	}
	return w
}

// open reports whether anything joins after the patterns: then the
// pattern join can neither stop at a budget nor settle the filters
// whose variables are still unbound.
func (w whereParts) open() bool {
	return len(w.closures)+len(w.unions)+len(w.optionals)+len(w.binds) > 0
}

// evalWhere evaluates the WHERE clause and returns binding rows;
// budget > 0 lets it stop once that many exist.
func (ex *executor) evalWhere(elems []PatternElement, budget int) ([]row, error) {
	w := splitWhere(elems)
	// Pattern variables come first in slot order; starVars mirrors this
	// element order for the SELECT * header.
	ex.registerVars(w.patterns)
	if n := len(ex.vars.names); n <= len(ex.seedIDs) {
		ex.seed[0] = ex.seedIDs[:n:n]
	} else {
		ex.seed[0] = make(row, n)
	}
	rows := ex.seed[:]
	// Subqueries run first: their solutions seed the join like VALUES.
	for _, sub := range w.subs {
		var pn *ProfileNode
		if ex.prof != nil {
			pn = ex.prof.open("subquery", sub.Query.String(), len(rows))
		}
		var err error
		rows, err = ex.joinSubSelect(rows, sub)
		ex.profClose(pn, len(rows))
		if err != nil {
			return nil, err
		}
	}
	// VALUES blocks join first: they are small and selective.
	for _, v := range w.values {
		var pn *ProfileNode
		if ex.prof != nil {
			pn = ex.prof.open("values", strings.Join(v.Vars, ", "), len(rows))
		}
		rows = ex.joinValues(rows, v)
		ex.profClose(pn, len(rows))
	}
	// Full-text rewrite: keyword filters become candidate-set joins.
	if !ex.eng.DisableTextIndex {
		for _, f := range w.filters {
			if v, kw, ok := textConstraint(f); ok {
				ids := ex.view.TextSearch(kw)
				var pn *ProfileNode
				if ex.prof != nil {
					pn = ex.prof.open("text-seed", fmt.Sprintf("?%s ~ %q", v, kw), len(rows))
					pn.Est = int64(len(ids))
				}
				rows = ex.joinCandidates(rows, v, ids)
				ex.profClose(pn, len(rows))
			}
		}
	}
	if w.open() {
		budget = 0
	}
	rows, residual, err := ex.joinBGP(rows, w.patterns, w.filters, w.open(), budget)
	if err != nil {
		return nil, err
	}
	for _, cp := range w.closures {
		var pn *ProfileNode
		if ex.prof != nil {
			pn = ex.prof.open("closure", cp.String(), len(rows))
		}
		rows, err = ex.joinClosure(rows, cp)
		ex.profClose(pn, len(rows))
		if err != nil {
			return nil, err
		}
	}
	// A union or an optional reports as one operator whether its joins
	// ran here or on clones: only joinBGP profiles its steps.
	for _, u := range w.unions {
		var pn *ProfileNode
		if ex.prof != nil {
			pn = ex.prof.open("union", fmt.Sprintf("%d branches", len(u.Branches)), len(rows))
			if ex.workers > 1 && len(u.Branches) > 1 {
				pn.Workers = ex.workers
			}
		}
		rows, err = ex.joinUnion(rows, u)
		ex.profClose(pn, len(rows))
		if err != nil {
			return nil, err
		}
	}
	for _, opt := range w.optionals {
		var pn *ProfileNode
		if ex.prof != nil {
			pn = ex.prof.open("optional", fmt.Sprintf("%d patterns", len(opt.Patterns)), len(rows))
		}
		rows, err = ex.joinOptional(rows, opt)
		ex.profClose(pn, len(rows))
		if err != nil {
			return nil, err
		}
	}
	// BIND assignments compute per-row values once all patterns are
	// joined. A failed or unbound expression leaves the variable unbound
	// (SPARQL semantics).
	var bindNode *ProfileNode
	if ex.prof != nil && len(w.binds) > 0 {
		names := make([]string, len(w.binds))
		for i, be := range w.binds {
			names[i] = "?" + be.Var
		}
		bindNode = ex.prof.open("bind", strings.Join(names, ", "), len(rows))
	}
	for _, be := range w.binds {
		slot := ex.slot(be.Var)
		expr := ex.compile(be.Expr)
		rows = ex.extendRows(rows)
		for i, r := range rows {
			v, err := expr(ex, r, nil)
			if err != nil || !v.Bound {
				continue
			}
			if r[slot] != 0 {
				continue // already bound: BIND does not overwrite
			}
			nr := append(row(nil), r...)
			nr[slot] = ex.encode(v.Term)
			rows[i] = nr
		}
	}
	ex.profClose(bindNode, len(rows))
	// The filters the pattern join could not settle run now.
	for _, f := range residual {
		var pn *ProfileNode
		if ex.prof != nil {
			pn = ex.prof.open("filter", fmt.Sprint(f), len(rows))
			if ex.parallel(len(rows)) {
				pn.Workers = ex.workers
			}
		}
		rows = ex.applyFilter(rows, f)
		ex.profClose(pn, len(rows))
	}
	return rows, nil
}

// textConstraint recognizes CONTAINS(LCASE(STR(?v)), "kw"),
// CONTAINS(STR(?v), "kw"), and CONTAINS(?v, "kw") filter shapes.
func textConstraint(e Expr) (string, string, bool) {
	f, ok := e.(FuncExpr)
	if !ok || f.Name != "CONTAINS" || len(f.Args) != 2 {
		return "", "", false
	}
	c, ok := f.Args[1].(ConstExpr)
	if !ok || !c.Term.IsLiteral() {
		return "", "", false
	}
	arg := f.Args[0]
	for {
		if inner, ok := arg.(FuncExpr); ok && len(inner.Args) == 1 && (inner.Name == "LCASE" || inner.Name == "STR" || inner.Name == "UCASE") {
			arg = inner.Args[0]
			continue
		}
		break
	}
	v, ok := arg.(VarExpr)
	if !ok {
		return "", "", false
	}
	return v.Name, c.Term.Value, true
}

// joinCandidates restricts (or seeds) a variable with an explicit
// candidate ID set.
func (ex *executor) joinCandidates(rows []row, varName string, ids []store.ID) []row {
	slot := ex.slot(varName)
	rows = ex.extendRows(rows)
	var inSet map[store.ID]struct{} // built when the first row needs it
	out := make([]row, 0, min(len(rows)*len(ids), maxSlabRows))
	var slab rowSlab
	for _, r := range rows {
		if r[slot] != 0 {
			if inSet == nil {
				inSet = make(map[store.ID]struct{}, len(ids))
				for _, id := range ids {
					inSet[id] = struct{}{}
				}
			}
			if _, ok := inSet[r[slot]]; ok {
				out = append(out, r)
			}
			continue
		}
		for _, id := range ids {
			nr := slab.head(len(r))
			copy(nr, r)
			slab.keep(len(nr))
			nr[slot] = id
			out = append(out, nr)
		}
	}
	return out
}

// joinValues joins an inline data block; UNDEF leaves the variable as
// the row has it.
func (ex *executor) joinValues(rows []row, v ValuesElement) []row {
	table := make([]store.ID, 0, len(v.Rows)*len(v.Vars))
	for _, dataRow := range v.Rows {
		for _, term := range dataRow {
			id := store.ID(0)
			if term != nil {
				id = ex.encode(*term)
			}
			table = append(table, id)
		}
	}
	return ex.joinTable(rows, v.Vars, table, len(v.Rows))
}

// joinTable joins rows with a table of n solutions over vars, one row
// of len(vars) IDs after the other, where ID 0 is an unbound cell: a
// row and a table row are compatible when they agree wherever both
// bind, and only compatible pairs are copied.
func (ex *executor) joinTable(rows []row, vars []string, table []store.ID, n int) []row {
	slots := make([]int, len(vars))
	for i, name := range vars {
		slots[i] = ex.slot(name)
	}
	rows = ex.extendRows(rows)
	out := make([]row, 0, min(len(rows)*n, maxSlabRows))
	slab := rowSlab{rows: min(len(rows)*n, maxSlabRows)}
	for _, r := range rows {
	next:
		for k := 0; k < n; k++ {
			tr := table[k*len(vars) : (k+1)*len(vars)]
			for i, id := range tr {
				if cur := r[slots[i]]; id != 0 && cur != 0 && cur != id {
					continue next
				}
			}
			nr := slab.head(len(r))
			copy(nr, r)
			slab.keep(len(nr))
			for i, id := range tr {
				if id != 0 {
					nr[slots[i]] = id
				}
			}
			out = append(out, nr)
		}
	}
	return out
}

// joinSubSelect evaluates a nested SELECT with a fresh executor and
// joins its solutions with the current rows on shared variables. The
// subquery inherits the outer query's context so deadlines reach it.
func (ex *executor) joinSubSelect(rows []row, sub SubSelectElement) ([]row, error) {
	ctx := ex.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := ex.eng.queryWithView(ctx, sub.Query, ex.view)
	if err != nil {
		return nil, fmt.Errorf("subquery: %w", err)
	}
	table := make([]store.ID, 0, len(res.Rows)*len(res.Vars))
	for _, srow := range res.Rows {
		for _, t := range srow {
			id := store.ID(0)
			if Bound(t) {
				id = ex.encode(t)
			}
			table = append(table, id)
		}
	}
	return ex.joinTable(rows, res.Vars, table, len(res.Rows)), nil
}

// joinClosure joins a transitive path pattern S <p>+/<p>* O. Bound
// endpoints drive a breadth-first closure over the predicate; with
// both endpoints unbound, the closure is computed from every subject
// carrying the predicate.
func (ex *executor) joinClosure(rows []row, cp ClosurePattern) ([]row, error) {
	pid, ok := ex.dict.Lookup(cp.Pred)
	if !ok {
		if cp.MinZero {
			// Zero-length paths still hold: S = O.
			return ex.joinZeroLength(rows, cp), nil
		}
		return nil, nil
	}
	sConst, oConst, ok := ex.closureConsts(cp)
	if !ok {
		return nil, nil
	}
	sPos, oPos := -1, -1
	if cp.S.IsVar {
		sPos = ex.slot(cp.S.Var)
	}
	if cp.O.IsVar {
		oPos = ex.slot(cp.O.Var)
	}
	rows = ex.extendRows(rows)
	var out []row
	for _, r := range rows {
		// Closure expansion over a dense predicate can dominate the
		// query; honour a server-side timeout between rows too.
		if err := ex.ctxErr(); err != nil {
			return nil, err
		}
		sID, oID := sConst, oConst
		if sPos >= 0 {
			sID = r[sPos]
		}
		if oPos >= 0 {
			oID = r[oPos]
		}
		switch {
		case sID != 0:
			targets := ex.closureFrom(sID, pid, true, cp.MinZero)
			for _, t := range targets {
				if oID != 0 {
					if t == oID {
						out = append(out, r)
						break
					}
					continue
				}
				nr := append(row(nil), r...)
				nr[oPos] = t
				out = append(out, nr)
			}
		case oID != 0:
			sources := ex.closureFrom(oID, pid, false, cp.MinZero)
			for _, src := range sources {
				nr := append(row(nil), r...)
				nr[sPos] = src
				out = append(out, nr)
			}
		default:
			// Both unbound: start from every distinct subject of pid, in
			// the order Match first delivers each.
			seen := map[store.ID]bool{}
			var starts []store.ID
			ex.view.Match(0, pid, 0, func(sub, _, _ store.ID) bool {
				if !seen[sub] {
					seen[sub] = true
					starts = append(starts, sub)
				}
				return true
			})
			for _, sub := range starts {
				for _, t := range ex.closureFrom(sub, pid, true, cp.MinZero) {
					nr := append(row(nil), r...)
					nr[sPos] = sub
					nr[oPos] = t
					out = append(out, nr)
				}
			}
		}
	}
	return out, nil
}

// closureConsts resolves the closure's constant endpoints to IDs (0
// for a variable endpoint). A constant the store does not hold has no
// edges, so under + the pattern has no solution (ok is false), while
// under * it still has the zero-length one, S = O; the constant then
// takes a local ID the way VALUES terms do, so that solution can bind
// it.
func (ex *executor) closureConsts(cp ClosurePattern) (s, o store.ID, ok bool) {
	resolve := func(n Node) (store.ID, bool) {
		if n.IsVar {
			return 0, true
		}
		if id, known := ex.dict.Lookup(n.Term); known {
			return id, true
		}
		if !cp.MinZero {
			return 0, false
		}
		return ex.encode(n.Term), true
	}
	s, sOK := resolve(cp.S)
	o, oOK := resolve(cp.O)
	return s, o, sOK && oOK
}

// joinZeroLength handles <p>* when p has no edges at all: S = O.
func (ex *executor) joinZeroLength(rows []row, cp ClosurePattern) []row {
	if !cp.S.IsVar && !cp.O.IsVar {
		if cp.S.Term == cp.O.Term {
			return rows
		}
		return nil
	}
	// Binding an unconstrained S = O pair to "every term" is
	// unbounded; restrict to rows where at least one side is bound.
	sPos, oPos := -1, -1
	if cp.S.IsVar {
		sPos = ex.slot(cp.S.Var)
	}
	if cp.O.IsVar {
		oPos = ex.slot(cp.O.Var)
	}
	sConst, oConst, _ := ex.closureConsts(cp)
	rows = ex.extendRows(rows)
	var out []row
	for _, r := range rows {
		sID, oID := sConst, oConst
		if sPos >= 0 {
			sID = r[sPos]
		}
		if oPos >= 0 {
			oID = r[oPos]
		}
		switch {
		case sID != 0 && oID != 0:
			if sID == oID {
				out = append(out, r)
			}
		case sID != 0:
			nr := append(row(nil), r...)
			nr[oPos] = sID
			out = append(out, nr)
		case oID != 0:
			nr := append(row(nil), r...)
			nr[sPos] = oID
			out = append(out, nr)
		}
	}
	return out
}

// closureFrom computes the forward (or backward) transitive closure of
// pid starting at id, optionally including the start node (MinZero).
func (ex *executor) closureFrom(id store.ID, pid store.ID, forward, includeStart bool) []store.ID {
	// visited dedupes expansion; emitted dedupes output. They differ
	// only for the start node, which belongs to the output when it is
	// re-reached through a cycle (c1 <p>+ c1) or when includeStart.
	visited := map[store.ID]bool{id: true}
	emitted := map[store.ID]bool{}
	frontier := []store.ID{id}
	var out []store.ID
	if includeStart {
		emitted[id] = true
		out = append(out, id)
	}
	for len(frontier) > 0 {
		// The BFS can touch the whole graph; stop expanding promptly
		// once the query's deadline or cancellation hits. The partial
		// closure is discarded by the caller's ctx check.
		if ex.ctxErr() != nil {
			return out
		}
		next := frontier[:0:0]
		for _, cur := range frontier {
			visit := func(n store.ID) bool {
				if ex.cancelled() {
					return false
				}
				if !emitted[n] {
					emitted[n] = true
					out = append(out, n)
				}
				if !visited[n] {
					visited[n] = true
					next = append(next, n)
				}
				return true
			}
			if forward {
				ex.view.Match(cur, pid, 0, func(_, _, o store.ID) bool {
					return visit(o)
				})
			} else {
				ex.view.Match(0, pid, cur, func(s, _, _ store.ID) bool {
					return visit(s)
				})
			}
		}
		frontier = next
	}
	return out
}

// joinUnion joins the current rows with the union of the branches:
// each branch is evaluated as an inner join seeded with the current
// rows, and the branch results are concatenated.
func (ex *executor) joinUnion(rows []row, u UnionElement) ([]row, error) {
	// Every branch is planned here, before any fan-out, and the variables
	// of all of them registered before the first is: the branches and
	// their clones must agree on slots and row width.
	parts := make([]whereParts, len(u.Branches))
	for i, br := range u.Branches {
		parts[i] = splitWhere(br)
		ex.registerVars(parts[i].patterns)
	}
	branches := make([][]bgpSegment, len(parts))
	for i, w := range parts {
		branches[i] = ex.planSeed(rows, w.patterns, w.filters, false)
	}
	// Branches are independent inner joins over the same seed, so they
	// run concurrently (each on a clone); concatenating the branch
	// results in branch order reproduces the sequential output exactly.
	k := 1
	if ex.workers > 1 {
		k = len(branches)
	}
	outs := make([][]row, len(branches))
	err := ex.fanOut(len(branches), k, func(w *executor, _, lo, hi int) error {
		for b := lo; b < hi; b++ {
			var err error
			if outs[b], err = w.joinSegs(branches[b], 0); err != nil {
				return err
			}
		}
		return nil
	})
	return ex.mergeChunks(outs, err)
}

// joinOptional left-joins an OPTIONAL block: every row is extended by
// the block's solutions, or kept as it is when there are none.
func (ex *executor) joinOptional(rows []row, opt OptionalElement) ([]row, error) {
	var out []row
	segs := ex.planSeed(rows, opt.Patterns, opt.Filters, false)
	for _, seg := range segs {
		for i, r := range seg.rows {
			sub, err := ex.run(seg.rows[i:i+1], seg.plan, 0, len(seg.plan.steps), 0, seg.plan.counts)
			if err != nil {
				return nil, err
			}
			if len(sub) == 0 {
				out = append(out, r)
			} else {
				out = append(out, sub...)
			}
		}
	}
	return out, nil
}

// slotValue is the value slot s of r binds, with the dictionary's
// numeric cache; unbound when there is no slot (s < 0) or r predates it.
func (ex *executor) slotValue(r row, s int) Value {
	if s < 0 || s >= len(r) || r[s] == 0 {
		return Value{}
	}
	id := r[s]
	if l := ex.local; l != nil && id > ^store.ID(len(l.vals)) {
		return l.vals[^id]
	}
	v := Value{Term: ex.dict.Decode(id), Bound: true, numState: numNo}
	if n, ok := ex.dict.Numeric(id); ok {
		v.num, v.numState = n, numYes
	}
	return v
}

// localTerms are the terms a read query binds that the store's
// dictionary lacks: BIND values, VALUES and subquery cells, the
// constant a zero-length closure path binds. They take IDs counting
// down from the top of the ID range, which the dictionary never
// reaches, so only writes grow the dictionary and a term a writer adds
// during the query cannot share an ID with one. Only the query's own
// executor mints, between stages; worker clones share the table and
// read it.
type localTerms struct {
	ids  map[rdf.Term]store.ID
	vals []Value // vals[^id], as constValue gives them
}

// encode returns the ID of t within the query: the dictionary's, or a
// local one when the dictionary lacks t. A term the dictionary learns
// from a writer after it took a local ID keeps that ID, so a term has
// one ID throughout the query.
func (ex *executor) encode(t rdf.Term) store.ID {
	l := ex.local
	if l != nil {
		if id, ok := l.ids[t]; ok {
			return id
		}
	}
	if id, ok := ex.dict.Lookup(t); ok {
		return id
	}
	if l == nil {
		l = &localTerms{ids: map[rdf.Term]store.ID{}}
		ex.local = l
	}
	id := ^store.ID(len(l.vals))
	l.vals = append(l.vals, constValue(t))
	l.ids[t] = id
	return id
}

// applyFilter keeps the rows satisfying f, compiled once for all of
// them, in place: a chunk per worker when the rows are many, one
// otherwise. Since chunks are contiguous and merged in order, the
// surviving rows keep their input order either way.
func (ex *executor) applyFilter(rows []row, f Expr) []row {
	test := ex.compileCond(f)
	outs := make([][]row, ex.width(len(rows)))
	err := ex.fanOut(len(rows), len(outs), func(w *executor, c, lo, hi int) error {
		out := rows[lo:lo]
		for _, r := range rows[lo:hi] {
			if keep, err := test(w, r, nil); err == nil && keep {
				out = append(out, r)
			}
		}
		outs[c] = out
		return nil
	})
	// Only a context error can fail the merge; drop the rows and let
	// the caller's context check surface it.
	out, _ := ex.mergeChunks(outs, err)
	return out
}

// project is the stage of a non-aggregate query: the ORDER BY keys are
// read off the ID rows, and a line is rendered only for a row the
// answer keeps, or for every row up front under DISTINCT. Rendering
// fans out over the workers when rows are many, each writing its own
// index range.
func (ex *executor) project(q *Query, rows []row) (*solutions, error) {
	items := q.Select
	if q.Star {
		items = nil
		for _, name := range starVars(q.Where) {
			items = append(items, SelectItem{Var: name})
		}
	}
	pj := &projection{rows: rows}
	pj.slots = slices.Grow(pj.slotBuf[:0], len(items))[:len(items)]
	vars := make([]string, len(items))
	for i, it := range items {
		vars[i] = it.Var
		pj.slots[i], _ = ex.vars.lookup(it.Var)
		if it.Expr != nil {
			if pj.cells == nil {
				pj.cells = make([]evalFn, len(items))
			}
			pj.slots[i], pj.cells[i] = -1, ex.compile(it.Expr)
		}
	}
	// renderAll renders the rows at perm, their lines sharing one array.
	renderAll := func(perm []int) [][]rdf.Term {
		out := make([][]rdf.Term, len(perm))
		w := len(items)
		terms := make([]rdf.Term, len(perm)*w)
		ex.fanOut(len(perm), ex.width(len(perm)), func(x *executor, _, lo, hi int) error {
			for i := lo; i < hi; i++ {
				out[i] = pj.render(x, perm[i], terms[i*w:(i+1)*w:(i+1)*w])
			}
			return nil
		})
		return out
	}
	keys := orderValues(compiler{slots: &ex.vars, aggBase: -1}.orderKeys(orderScope(q, nil)), len(rows), func(i int) (*executor, row, []rdf.Term) {
		return ex, rows[i], nil
	})
	sol := &solutions{vars: vars, n: len(rows), keys: keys, lines: renderAll}
	if q.Distinct {
		all := make([]int, len(rows))
		for i := range all {
			all[i] = i
		}
		lines := renderAll(all)
		sol.line = func(i int) []rdf.Term { return lines[i] }
		sol.lines = func(perm []int) [][]rdf.Term { return pick(lines, perm) }
	}
	return sol, nil
}

// projection renders the lines of a non-aggregate query: a variable
// from its slot (-1: the query never binds it), an expression through
// its compiled cell.
type projection struct {
	rows  []row
	slots []int
	cells []evalFn // nil when every item is a variable
	// slotBuf backs slots for a projection of few items.
	slotBuf [4]int
}

// render fills line with row k's projection and returns it.
func (pj *projection) render(ex *executor, k int, line []rdf.Term) []rdf.Term {
	r := pj.rows[k]
	for i, s := range pj.slots {
		v := ex.slotValue(r, s)
		if pj.cells != nil && pj.cells[i] != nil {
			var err error
			if v, err = pj.cells[i](ex, r, nil); err != nil {
				continue
			}
		}
		if v.Bound {
			line[i] = v.Term
		}
	}
	return line
}

// starVars is what SELECT * projects: the variables in scope of the
// group graph pattern where — those its triple patterns, subselect
// projections, VALUES blocks, closures, UNION branches, OPTIONAL blocks
// and BINDs bind — in the order evalWhere gives them slots, without the
// parser's internal path variables. A variable only a FILTER or an
// EXISTS mentions is not in scope, so the header never depends on
// which rows reach them.
func starVars(where []PatternElement) []string {
	var vars []string
	add := func(names ...string) {
		for _, v := range names {
			if !strings.HasPrefix(v, internalVarPrefix) && !slices.Contains(vars, v) {
				vars = append(vars, v)
			}
		}
	}
	w := splitWhere(where)
	add(appendPatternVars(nil, w.patterns)...)
	for _, sub := range w.subs {
		if sub.Query.Star {
			add(starVars(sub.Query.Where)...)
		}
		for _, it := range sub.Query.Select {
			add(it.Var)
		}
	}
	for _, v := range w.values {
		add(v.Vars...)
	}
	for _, cp := range w.closures {
		for _, n := range [2]Node{cp.S, cp.O} {
			if n.IsVar {
				add(n.Var)
			}
		}
	}
	for _, u := range w.unions {
		for _, br := range u.Branches {
			add(appendPatternVars(nil, splitWhere(br).patterns)...)
		}
	}
	for _, opt := range w.optionals {
		add(appendPatternVars(nil, opt.Patterns)...)
	}
	for _, b := range w.binds {
		add(b.Var)
	}
	return vars
}

// construct instantiates the CONSTRUCT template once per solution,
// skipping instantiations with unbound variables or invalid triples,
// and deduplicating the output graph.
func (ex *executor) construct(q *Query, rows []row) *Results {
	res := &Results{IsConstruct: true}
	seen := map[rdf.Triple]bool{}
	emit := func(t rdf.Triple) {
		if t.Validate() != nil || seen[t] {
			return
		}
		seen[t] = true
		res.Triples = append(res.Triples, t)
	}
	// A template position compiles as the constant or the variable it is.
	pos := make([][3]evalFn, len(q.Construct))
	for i, tp := range q.Construct {
		for k, n := range [3]Node{tp.S, tp.P, tp.O} {
			if n.IsVar {
				pos[i][k] = ex.compile(VarExpr{Name: n.Var})
			} else {
				pos[i][k] = ex.compile(ConstExpr{Term: n.Term})
			}
		}
	}
	for _, r := range rows {
	template:
		for _, p := range pos {
			var t [3]rdf.Term
			for k, f := range p {
				v, _ := f(ex, r, nil)
				if !v.Bound {
					continue template
				}
				t[k] = v.Term
			}
			emit(rdf.Triple{S: t[0], P: t[1], O: t[2]})
		}
	}
	// Respect LIMIT/OFFSET on the constructed graph.
	res.Triples = window(q, res.Triples)
	return res
}
