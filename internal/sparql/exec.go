package sparql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"re2xolap/internal/obs"
	"re2xolap/internal/par"
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

	// metrics holds the pre-registered observability series; nil until
	// Instrument is called. The query path checks this one pointer to
	// decide between the timed and the bare execution paths.
	metrics *engineMetrics
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
	if rest, analyze, ok := explainPrefix(src); ok {
		return e.runExplain(context.Background(), rest, analyze)
	}
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Query(q)
}

// QueryStringContext parses and executes src under ctx: cancellation
// or deadline expiry aborts the join mid-flight. When the engine is
// instrumented (Instrument) or ctx carries a trace span, execution is
// routed through the timed path so phase metrics and spans are
// recorded; otherwise this is the zero-overhead path.
func (e *Engine) QueryStringContext(ctx context.Context, src string) (*Results, error) {
	if rest, analyze, ok := explainPrefix(src); ok {
		return e.runExplain(ctx, rest, analyze)
	}
	if e.metrics != nil || obs.SpanFrom(ctx) != nil {
		res, _, err := e.QueryStringTimed(ctx, src)
		return res, err
	}
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.QueryContext(ctx, q)
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
	return e.queryPhased(ctx, q, view, nil, nil)
}

// queryPhased is queryWithView with optional phase accounting and
// operator profiling: when pt is non-nil the plan/join/aggregate/sort
// wall times and the result row count are recorded into it; when prof
// is non-nil every operator additionally records a ProfileNode. pt ==
// nil, prof == nil (the default path, and all subqueries) takes no
// timestamps at all, keeping the uninstrumented hot path
// byte-identical to the pre-observability engine.
func (e *Engine) queryPhased(ctx context.Context, q *Query, view *store.View, pt *PhaseTimings, prof *profiler) (*Results, error) {
	var mark time.Time
	if pt != nil {
		mark = time.Now()
	}
	ex := &executor{
		eng: e, view: view, dict: view.Dict(),
		slots: map[string]int{}, ctx: ctx,
		workers: e.Exec.workers(), threshold: e.Exec.threshold(),
		dead: new(atomic.Bool), prof: prof,
	}
	// Short-circuit budget: ASK and plain LIMIT queries stop the join
	// as soon as enough full solutions exist, so their cost does not
	// grow with the number of matching observations (mirroring a real
	// triplestore's early-exit ASK).
	switch {
	case q.Ask:
		ex.limit = 1
	case !q.IsAggregate() && !q.Distinct && len(q.OrderBy) == 0 && q.Limit >= 0:
		ex.limit = q.Limit + q.Offset
	}
	if pt != nil {
		now := time.Now()
		pt.Plan = now.Sub(mark)
		mark = now
	}
	rows, err := ex.evalWhere(q.Where)
	if pt != nil {
		pt.Join = time.Since(mark)
	}
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
		res, cerr := ex.construct(q, rows)
		if res != nil {
			ex.profClose(pn, len(res.Triples))
		} else {
			ex.profClose(pn, 0)
		}
		return res, cerr
	}
	if pt != nil {
		mark = time.Now()
	}
	var res *Results
	var pn *ProfileNode
	if q.IsAggregate() {
		if ex.prof != nil {
			pn = ex.prof.open("aggregate", aggregateDetail(q), len(rows))
			if ex.parallel(len(rows)) {
				pn.Workers = ex.workers
			}
		}
		res, err = ex.aggregate(q, rows)
	} else {
		if ex.prof != nil {
			pn = ex.prof.open("project", "", len(rows))
			if ex.parallel(len(rows)) {
				pn.Workers = ex.workers
			}
		}
		res, err = ex.project(q, rows)
	}
	if res != nil {
		ex.profClose(pn, len(res.Rows))
	} else {
		ex.profClose(pn, 0)
	}
	if pt != nil {
		now := time.Now()
		pt.Aggregate = now.Sub(mark)
		mark = now
	}
	if err != nil {
		return nil, err
	}
	var mn *ProfileNode
	if ex.prof != nil {
		mn = ex.prof.open("modifiers", modifierDetail(q), len(res.Rows))
	}
	if err := applyModifiers(q, res); err != nil {
		return nil, err
	}
	ex.profClose(mn, len(res.Rows))
	if pt != nil {
		pt.Sort = time.Since(mark)
	}
	return res, nil
}

// executor holds per-query state: the variable slot table and the
// binding rows. Parallel stages run on clones (see clone) that share
// the view, context, and cancellation latch but own everything
// mutable.
type executor struct {
	eng    *Engine
	view   *store.View
	dict   *store.Dict
	slots  map[string]int
	varSeq []string // slot → name, in first-seen order
	// limit > 0 enables the short-circuit DFS join: evaluation stops
	// once that many full solutions exist.
	limit int
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

func (ex *executor) slot(name string) int {
	if s, ok := ex.slots[name]; ok {
		return s
	}
	s := len(ex.varSeq)
	ex.slots[name] = s
	ex.varSeq = append(ex.varSeq, name)
	return s
}

// row is a partial solution: one term ID per slot, 0 = unbound.
type row []store.ID

func (ex *executor) extendRows(rows []row) []row {
	n := len(ex.varSeq)
	for i, r := range rows {
		for len(r) < n {
			r = append(r, 0)
		}
		rows[i] = r
	}
	return rows
}

// evalWhere evaluates the WHERE clause and returns binding rows.
func (ex *executor) evalWhere(elems []PatternElement) ([]row, error) {
	var patterns []TriplePattern
	var filters []Expr
	var values []ValuesElement
	var optionals []OptionalElement
	var unions []UnionElement
	var closures []ClosurePattern
	var subs []SubSelectElement
	var binds []BindElement
	for _, el := range elems {
		switch x := el.(type) {
		case TriplePattern:
			patterns = append(patterns, x)
		case FilterElement:
			filters = append(filters, x.Expr)
		case ValuesElement:
			values = append(values, x)
		case OptionalElement:
			optionals = append(optionals, x)
		case UnionElement:
			unions = append(unions, x)
		case ClosurePattern:
			closures = append(closures, x)
		case SubSelectElement:
			subs = append(subs, x)
		case BindElement:
			binds = append(binds, x)
		}
	}
	// Pre-register pattern variables so slots are stable.
	for _, tp := range patterns {
		for _, n := range []Node{tp.S, tp.P, tp.O} {
			if n.IsVar {
				ex.slot(n.Var)
			}
		}
	}
	rows := []row{make(row, len(ex.varSeq))}
	// Subqueries run first: their solutions seed the join like VALUES.
	for _, sub := range subs {
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
	for _, v := range values {
		var pn *ProfileNode
		if ex.prof != nil {
			pn = ex.prof.open("values", strings.Join(v.Vars, ", "), len(rows))
		}
		var err error
		rows, err = ex.joinValues(rows, v)
		ex.profClose(pn, len(rows))
		if err != nil {
			return nil, err
		}
	}
	// Full-text rewrite: keyword filters become candidate-set joins.
	if !ex.eng.DisableTextIndex {
		for _, f := range filters {
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
	var err error
	if ex.limit > 0 && len(optionals) == 0 && len(unions) == 0 && len(closures) == 0 && len(subs) == 0 && len(binds) == 0 {
		if ex.prof == nil {
			return ex.joinDFS(rows, patterns, filters)
		}
		// The DFS interleaves all patterns and filters per solution path,
		// so it profiles as one operator.
		pn := ex.prof.open("dfs", fmt.Sprintf("%d patterns, budget %d", len(patterns), ex.limit), len(rows))
		if ex.workers > 1 && ex.limit != 1 && len(patterns) > 0 {
			pn.Workers = ex.workers
		}
		out, derr := ex.joinDFS(rows, patterns, filters)
		ex.profClose(pn, len(out))
		return out, derr
	}
	rows, err = ex.joinPatterns(rows, patterns, filters)
	if err != nil {
		return nil, err
	}
	for _, cp := range closures {
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
	for _, u := range unions {
		var pn *ProfileNode
		if ex.prof != nil {
			pn = ex.prof.open("union", fmt.Sprintf("%d branches", len(u.Branches)), len(rows))
			if ex.workers > 1 && len(u.Branches) > 1 {
				pn.Workers = ex.workers
			}
		}
		// Branch evaluation re-enters joinPatterns; suppress nested
		// profiling so the union reports as one operator whether its
		// branches ran sequentially or on clones.
		saved := ex.prof
		ex.prof = nil
		rows, err = ex.joinUnion(rows, u)
		ex.prof = saved
		ex.profClose(pn, len(rows))
		if err != nil {
			return nil, err
		}
	}
	for _, opt := range optionals {
		var pn *ProfileNode
		if ex.prof != nil {
			pn = ex.prof.open("optional", fmt.Sprintf("%d patterns", len(opt.Patterns)), len(rows))
		}
		// The left-join re-enters joinPatterns once per input row;
		// suppress nested profiling for the same reason as UNION.
		saved := ex.prof
		ex.prof = nil
		rows, err = ex.joinOptional(rows, opt)
		ex.prof = saved
		ex.profClose(pn, len(rows))
		if err != nil {
			return nil, err
		}
	}
	// BIND assignments compute per-row values once all patterns are
	// joined. A failed or unbound expression leaves the variable unbound
	// (SPARQL semantics).
	var bindNode *ProfileNode
	if ex.prof != nil && len(binds) > 0 {
		names := make([]string, len(binds))
		for i, be := range binds {
			names[i] = "?" + be.Var
		}
		bindNode = ex.prof.open("bind", strings.Join(names, ", "), len(rows))
	}
	for _, be := range binds {
		slot := ex.slot(be.Var)
		rows = ex.extendRows(rows)
		for i, r := range rows {
			v, err := evalExpr(be.Expr, rowBinding{ex: ex, r: r})
			if err != nil || !v.Bound {
				continue
			}
			if r[slot] != 0 {
				continue // already bound: BIND does not overwrite
			}
			nr := append(row(nil), r...)
			nr[slot] = ex.dict.Encode(v.Term)
			rows[i] = nr
		}
	}
	ex.profClose(bindNode, len(rows))
	// Any filters not consumed during the pattern join run now
	// (joinPatterns marks consumed filters by nil-ing them).
	for _, f := range filters {
		if f == nil {
			continue
		}
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
	inSet := make(map[store.ID]struct{}, len(ids))
	for _, id := range ids {
		inSet[id] = struct{}{}
	}
	var out []row
	for _, r := range rows {
		if r[slot] != 0 {
			if _, ok := inSet[r[slot]]; ok {
				out = append(out, r)
			}
			continue
		}
		for _, id := range ids {
			nr := append(row(nil), r...)
			nr[slot] = id
			out = append(out, nr)
		}
	}
	return out
}

func (ex *executor) joinValues(rows []row, v ValuesElement) ([]row, error) {
	slots := make([]int, len(v.Vars))
	for i, name := range v.Vars {
		slots[i] = ex.slot(name)
	}
	rows = ex.extendRows(rows)
	var out []row
	for _, r := range rows {
		for _, dataRow := range v.Rows {
			nr := append(row(nil), r...)
			ok := true
			for i, term := range dataRow {
				if term == nil {
					continue // UNDEF leaves the var as-is
				}
				id := ex.dict.Encode(*term)
				if nr[slots[i]] != 0 && nr[slots[i]] != id {
					ok = false
					break
				}
				nr[slots[i]] = id
			}
			if ok {
				out = append(out, nr)
			}
		}
	}
	return out, nil
}

// joinPatterns joins all patterns into rows using greedy selectivity
// ordering, applying filters as soon as their variables are bound.
// Consumed filters are set to nil in the filters slice.
func (ex *executor) joinPatterns(rows []row, patterns []TriplePattern, filters []Expr) ([]row, error) {
	remaining := make([]TriplePattern, len(patterns))
	copy(remaining, patterns)
	boundVars := map[string]bool{}
	// Vars bound by VALUES/text seeding: a var is bound if any row
	// binds it. (All rows bind the same slots at this point.)
	if len(rows) > 0 {
		for name, s := range ex.slots {
			if s < len(rows[0]) && rows[0][s] != 0 {
				boundVars[name] = true
			}
		}
	}
	applyReady := func() {
		for i, f := range filters {
			if f == nil {
				continue
			}
			if containsAggregate(f) {
				continue
			}
			ready := true
			for _, v := range exprVars(f, nil) {
				if !boundVars[v] {
					ready = false
					break
				}
			}
			if ready {
				var pn *ProfileNode
				if ex.prof != nil {
					pn = ex.prof.open("filter", fmt.Sprint(f), len(rows))
					if ex.parallel(len(rows)) {
						pn.Workers = ex.workers
					}
				}
				rows = ex.applyFilter(rows, f)
				ex.profClose(pn, len(rows))
				filters[i] = nil
			}
		}
	}
	applyReady()
	for len(remaining) > 0 {
		idx := 0
		if !ex.eng.DisableJoinOrdering {
			idx = ex.cheapestPattern(remaining, boundVars)
		}
		tp := remaining[idx]
		remaining = append(remaining[:idx], remaining[idx+1:]...)
		var pn *ProfileNode
		if ex.prof != nil {
			op := "scan"
			for _, n := range []Node{tp.S, tp.P, tp.O} {
				if n.IsVar && boundVars[n.Var] {
					op = "index join"
					break
				}
			}
			pn = ex.prof.open(op, fmt.Sprint(tp), len(rows))
			pn.Est = int64(ex.view.MatchCount(ex.constID(tp.S), ex.constID(tp.P), ex.constID(tp.O)))
			if ex.parallel(len(rows)) {
				pn.Workers = ex.workers
			}
		}
		var err error
		rows, err = ex.joinPattern(rows, tp)
		ex.profClose(pn, len(rows))
		if err != nil {
			return nil, err
		}
		if ex.ctx != nil {
			if err := ex.ctx.Err(); err != nil {
				return nil, err
			}
		}
		for _, n := range []Node{tp.S, tp.P, tp.O} {
			if n.IsVar {
				boundVars[n.Var] = true
			}
		}
		applyReady()
		if len(rows) == 0 {
			return rows, nil
		}
	}
	return rows, nil
}

// cheapestPattern estimates each pattern's cost and returns the index
// of the cheapest. Constant positions use exact index counts; positions
// holding an already-bound variable divide the estimate since the join
// will be index-driven per row. Patterns sharing a bound variable are
// always preferred over disconnected ones — joining a disconnected
// pattern is a cartesian product, which dwarfs any per-pattern count
// difference. (Disconnected remains possible when the query itself is
// a product of independent components.)
func (ex *executor) cheapestPattern(patterns []TriplePattern, bound map[string]bool) int {
	anyBound := len(bound) > 0
	best, bestCost, bestConnected := 0, -1, false
	for i, tp := range patterns {
		s, p, o := ex.constID(tp.S), ex.constID(tp.P), ex.constID(tp.O)
		cost := ex.view.MatchCount(s, p, o)
		div := 1
		connected := !anyBound
		for _, n := range []Node{tp.S, tp.P, tp.O} {
			if n.IsVar && bound[n.Var] {
				div *= 16
				connected = true
			}
		}
		cost = cost/div + 1
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

// constID returns the dictionary ID of a constant node, or 0 for
// variables and unknown terms.
func (ex *executor) constID(n Node) store.ID {
	if n.IsVar {
		return 0
	}
	id, _ := ex.dict.Lookup(n.Term)
	return id
}

// joinPattern extends each row with all matches of tp. With enough
// input rows it fans the scan out over the worker pool: chunks are
// contiguous and merged in order, so the output is identical to the
// sequential scan.
func (ex *executor) joinPattern(rows []row, tp TriplePattern) ([]row, error) {
	// Register pattern variables on this executor before any fan-out so
	// the parent and every worker clone agree on slot numbering.
	for _, n := range []Node{tp.S, tp.P, tp.O} {
		if n.IsVar {
			ex.slot(n.Var)
		}
	}
	if ex.parallel(len(rows)) {
		return ex.runRowChunks(rows, func(w *executor, chunk []row) ([]row, error) {
			return w.joinPatternSeq(chunk, tp)
		})
	}
	return ex.joinPatternSeq(rows, tp)
}

// Output-row slab sizes of joinPatternSeq, in rows.
const (
	minSlabRows = 2
	maxSlabRows = 1024
)

// joinPatternSeq is the single-goroutine scan loop behind joinPattern.
func (ex *executor) joinPatternSeq(rows []row, tp TriplePattern) ([]row, error) {
	type pos struct {
		slot  int // variable slot, -1 for constants
		id    store.ID
		known bool // constant exists in the dictionary
	}
	mk := func(n Node) pos {
		if n.IsVar {
			return pos{slot: ex.slot(n.Var)}
		}
		id, ok := ex.dict.Lookup(n.Term)
		return pos{slot: -1, id: id, known: ok}
	}
	ps, pp, po := mk(tp.S), mk(tp.P), mk(tp.O)
	if ps.slot < 0 && !ps.known || pp.slot < 0 && !pp.known || po.slot < 0 && !po.known {
		return nil, nil // constant term absent from the data: no matches
	}
	// A variable repeated within the pattern (e.g. ?x ?p ?x) constrains
	// the match itself. Nothing else needs checking per match: a slot
	// the row already binds was passed to Match as a bound component.
	sameSP := ps.slot >= 0 && ps.slot == pp.slot
	sameSO := ps.slot >= 0 && ps.slot == po.slot
	samePO := pp.slot >= 0 && pp.slot == po.slot
	rows = ex.extendRows(rows)
	var out []row
	// Output rows are carved from slabs that start small, because most
	// calls are ASK-sized probes producing a row or two, and double.
	var slab []store.ID
	slabRows := minSlabRows
	// A cancelled scan must also stop the loop over the input rows —
	// on a cartesian product that loop alone can run for minutes.
	stopped := false
	for _, r := range rows {
		if stopped || ex.cancelled() {
			return nil, ex.ctxErr()
		}
		get := func(p pos) store.ID {
			if p.slot < 0 {
				return p.id
			}
			return r[p.slot]
		}
		sID, pID, oID := get(ps), get(pp), get(po)
		ex.view.Match(sID, pID, oID, func(ts, tp2, to store.ID) bool {
			if ex.cancelled() {
				stopped = true
				return false
			}
			if sameSP && ts != tp2 || sameSO && ts != to || samePO && tp2 != to {
				return true
			}
			if len(slab) < len(r) {
				slab = make([]store.ID, slabRows*len(r))
				slabRows = min(2*slabRows, maxSlabRows)
			}
			// Capacity-limited, so a later append cannot reach the next row.
			nr := row(slab[:len(r):len(r)])
			slab = slab[len(r):]
			copy(nr, r)
			if ps.slot >= 0 {
				nr[ps.slot] = ts
			}
			if pp.slot >= 0 {
				nr[pp.slot] = tp2
			}
			if po.slot >= 0 {
				nr[po.slot] = to
			}
			out = append(out, nr)
			return true
		})
	}
	if stopped {
		return nil, ex.ctxErr()
	}
	return out, nil
}

// joinDFS is the short-circuit join used when a solution budget is
// set (ASK, plain LIMIT queries): patterns are ordered once with the
// greedy heuristic, then solutions are produced one at a time by
// depth-first backtracking, applying each filter at the first depth
// where its variables are bound, and stopping at ex.limit solutions.
// With more than one worker and a budget above one, the search runs in
// parallel over a depth-1 frontier (see joinDFSPar).
func (ex *executor) joinDFS(seed []row, patterns []TriplePattern, filters []Expr) ([]row, error) {
	plan := ex.planDFS(seed, patterns, filters)
	// ASK and EXISTS (budget 1) stay sequential: the expected work is a
	// single path, and widening the frontier would be pure speculation.
	if ex.workers > 1 && ex.limit != 1 && len(plan.order) > 0 {
		return ex.joinDFSPar(seed, plan)
	}
	return ex.runDFS(seed, plan, 0)
}

// schedFilter is a filter pinned to the first DFS depth where its
// variables are all bound; depth -1 means before any pattern join.
type schedFilter struct {
	expr  Expr
	depth int
}

// dfsPlan is the static part of a short-circuit DFS join: the greedy
// pattern order and the filter schedule. A plan is immutable once
// built, so worker clones share it.
type dfsPlan struct {
	order []TriplePattern
	sched []schedFilter
}

func (p *dfsPlan) filtersAt(depth int) []Expr {
	var out []Expr
	for _, sf := range p.sched {
		if sf.depth == depth {
			out = append(out, sf.expr)
		}
	}
	return out
}

// planDFS computes the greedy pattern order (simulating bound
// variables) and schedules each filter at the first depth where it is
// evaluable.
func (ex *executor) planDFS(seed []row, patterns []TriplePattern, filters []Expr) *dfsPlan {
	bound := map[string]bool{}
	if len(seed) > 0 {
		for name, s := range ex.slots {
			if s < len(seed[0]) && seed[0][s] != 0 {
				bound[name] = true
			}
		}
	}
	order := make([]TriplePattern, 0, len(patterns))
	remaining := append([]TriplePattern(nil), patterns...)
	for len(remaining) > 0 {
		idx := 0
		if !ex.eng.DisableJoinOrdering {
			idx = ex.cheapestPattern(remaining, bound)
		}
		tp := remaining[idx]
		remaining = append(remaining[:idx], remaining[idx+1:]...)
		order = append(order, tp)
		for _, n := range []Node{tp.S, tp.P, tp.O} {
			if n.IsVar {
				bound[n.Var] = true
			}
		}
	}
	p := &dfsPlan{order: order}
	for _, f := range filters {
		if f == nil || containsAggregate(f) {
			continue
		}
		vars := exprVars(f, nil)
		depth := -1
		for i := range order {
			covered := true
			for _, v := range vars {
				if !ex.varCoveredBy(v, seed, order[:i+1]) {
					covered = false
					break
				}
			}
			if covered {
				depth = i
				break
			}
			if i == len(order)-1 {
				depth = i // evaluate at the end; unbound vars error out
			}
		}
		if len(order) == 0 {
			depth = -1
		}
		p.sched = append(p.sched, schedFilter{expr: f, depth: depth})
	}
	return p
}

// runDFS runs the depth-first join over the seed rows, honouring
// ex.limit. With fromDepth 0 the seed rows are padded and seed filters
// applied; with a positive fromDepth the rows are assumed to be
// already-filtered frontier rows from that depth (parallel workers).
func (ex *executor) runDFS(seed []row, plan *dfsPlan, fromDepth int) ([]row, error) {
	var out []row
	// The DFS explores an unbounded search space before reaching its
	// solution budget; honour cancellation inside the recursion too.
	cancelled := false
	var rec func(r row, depth int) bool
	rec = func(r row, depth int) bool {
		if ex.cancelled() {
			cancelled = true
			return false
		}
		if depth == len(plan.order) {
			out = append(out, r)
			return len(out) < ex.limit
		}
		cont := true
		for _, nr := range ex.matchOne(r, plan.order[depth]) {
			ok := true
			for _, f := range plan.filtersAt(depth) {
				keep, err := evalBool(f, rowBinding{ex: ex, r: nr})
				if err != nil || !keep {
					ok = false
					break
				}
			}
			if ok && !rec(nr, depth+1) {
				cont = false
				break
			}
		}
		return cont
	}
	seedFilters := plan.filtersAt(-1)
	for _, r := range seed {
		if fromDepth > 0 {
			if !rec(r, fromDepth) {
				break
			}
			continue
		}
		r = ex.extendOne(r)
		ok := true
		for _, f := range seedFilters {
			keep, err := evalBool(f, rowBinding{ex: ex, r: r})
			if err != nil || !keep {
				ok = false
				break
			}
		}
		if ok && !rec(r, 0) {
			break
		}
	}
	if cancelled {
		return nil, ex.ctxErr()
	}
	return out, nil
}

// varCoveredBy reports whether the variable is bound by the seed rows
// or by any of the given patterns.
func (ex *executor) varCoveredBy(name string, seed []row, patterns []TriplePattern) bool {
	if s, ok := ex.slots[name]; ok && len(seed) > 0 && s < len(seed[0]) && seed[0][s] != 0 {
		return true
	}
	for _, tp := range patterns {
		for _, n := range []Node{tp.S, tp.P, tp.O} {
			if n.IsVar && n.Var == name {
				return true
			}
		}
	}
	return false
}

// extendOne pads a single row to the current slot count.
func (ex *executor) extendOne(r row) row {
	for len(r) < len(ex.varSeq) {
		r = append(r, 0)
	}
	return r
}

// matchOne returns the extensions of one row by one pattern (the
// single-row version of joinPattern).
func (ex *executor) matchOne(r row, tp TriplePattern) []row {
	rows, _ := ex.joinPattern([]row{ex.extendOne(r)}, tp)
	return rows
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
	slots := make([]int, len(res.Vars))
	for i, v := range res.Vars {
		slots[i] = ex.slot(v)
	}
	rows = ex.extendRows(rows)
	var out []row
	for _, r := range rows {
		for _, srow := range res.Rows {
			nr := append(row(nil), r...)
			ok := true
			for i, t := range srow {
				if !Bound(t) {
					continue
				}
				id := ex.dict.Encode(t)
				if nr[slots[i]] != 0 && nr[slots[i]] != id {
					ok = false
					break
				}
				nr[slots[i]] = id
			}
			if ok {
				out = append(out, nr)
			}
		}
	}
	return out, nil
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
	sPos, oPos := -1, -1
	if cp.S.IsVar {
		sPos = ex.slot(cp.S.Var)
	}
	if cp.O.IsVar {
		oPos = ex.slot(cp.O.Var)
	}
	rows = ex.extendRows(rows)
	constID := func(n Node) store.ID {
		if n.IsVar {
			return 0
		}
		id, _ := ex.dict.Lookup(n.Term)
		return id
	}
	var out []row
	for _, r := range rows {
		// Closure expansion over a dense predicate can dominate the
		// query; honour a server-side timeout between rows too.
		if err := ex.ctxErr(); err != nil {
			return nil, err
		}
		get := func(pos int, n Node) store.ID {
			if pos >= 0 {
				return r[pos]
			}
			return constID(n)
		}
		sID, oID := get(sPos, cp.S), get(oPos, cp.O)
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
			// Both unbound: start from every distinct subject of pid.
			seen := map[store.ID]bool{}
			ex.view.Match(0, pid, 0, func(sub, _, _ store.ID) bool {
				seen[sub] = true
				return true
			})
			for sub := range seen {
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
	rows = ex.extendRows(rows)
	var out []row
	for _, r := range rows {
		var sID, oID store.ID
		if sPos >= 0 {
			sID = r[sPos]
		} else {
			sID, _ = ex.dict.Lookup(cp.S.Term)
		}
		if oPos >= 0 {
			oID = r[oPos]
		} else {
			oID, _ = ex.dict.Lookup(cp.O.Term)
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
	// Pre-register branch variables so all branches share slots.
	for _, br := range u.Branches {
		for _, el := range br {
			if tp, ok := el.(TriplePattern); ok {
				for _, n := range []Node{tp.S, tp.P, tp.O} {
					if n.IsVar {
						ex.slot(n.Var)
					}
				}
			}
		}
	}
	rows = ex.extendRows(rows)
	branch := func(w *executor, br []PatternElement) ([]row, error) {
		var patterns []TriplePattern
		var filters []Expr
		for _, el := range br {
			switch x := el.(type) {
			case TriplePattern:
				patterns = append(patterns, x)
			case FilterElement:
				filters = append(filters, x.Expr)
			}
		}
		seed := make([]row, len(rows))
		for i, r := range rows {
			seed[i] = append(row(nil), r...)
		}
		joined, err := w.joinPatterns(seed, patterns, filters)
		if err != nil {
			return nil, err
		}
		for _, f := range filters {
			if f != nil {
				joined = w.applyFilter(joined, f)
			}
		}
		return joined, nil
	}
	// Branches are independent inner joins over the same seed, so they
	// run concurrently (each on a clone); concatenating the branch
	// results in branch order reproduces the sequential output exactly.
	if ex.workers > 1 && len(u.Branches) > 1 {
		outs := make([][]row, len(u.Branches))
		err := par.Do(ex.workers, len(u.Branches), func(i int) error {
			berr := error(nil)
			outs[i], berr = branch(ex.clone(), u.Branches[i])
			if berr != nil {
				ex.dead.Store(true)
			}
			return berr
		})
		if err != nil {
			return nil, err
		}
		if err := ex.ctxErr(); err != nil {
			return nil, err
		}
		var out []row
		for _, o := range outs {
			out = append(out, o...)
		}
		return ex.extendRows(out), nil
	}
	var out []row
	for _, br := range u.Branches {
		joined, err := branch(ex, br)
		if err != nil {
			return nil, err
		}
		out = append(out, joined...)
	}
	return ex.extendRows(out), nil
}

// joinOptional left-joins an OPTIONAL block.
func (ex *executor) joinOptional(rows []row, opt OptionalElement) ([]row, error) {
	for _, tp := range opt.Patterns {
		for _, n := range []Node{tp.S, tp.P, tp.O} {
			if n.IsVar {
				ex.slot(n.Var)
			}
		}
	}
	rows = ex.extendRows(rows)
	var out []row
	for _, r := range rows {
		sub := []row{append(row(nil), r...)}
		filters := append([]Expr(nil), opt.Filters...)
		sub, err := ex.joinPatterns(sub, opt.Patterns, filters)
		if err != nil {
			return nil, err
		}
		for _, f := range filters {
			if f != nil {
				sub = ex.applyFilter(sub, f)
			}
		}
		if len(sub) == 0 {
			out = append(out, r)
		} else {
			out = append(out, sub...)
		}
	}
	return out, nil
}

// rowBinding adapts a row to the expression binding interface.
type rowBinding struct {
	ex *executor
	r  row
}

// exists evaluates an EXISTS sub-group correlated with this row: the
// inner patterns are joined seeded with the current bindings, stopping
// at the first solution.
func (b rowBinding) exists(e ExistsExpr) bool {
	ex := b.ex
	saved := ex.limit
	ex.limit = 1
	defer func() { ex.limit = saved }()
	seed := []row{append(row(nil), b.r...)}
	filters := append([]Expr(nil), e.Filters...)
	rows, err := ex.joinDFS(seed, e.Patterns, filters)
	return err == nil && len(rows) > 0
}

func (b rowBinding) value(name string) Value {
	s, ok := b.ex.slots[name]
	if !ok || s >= len(b.r) || b.r[s] == 0 {
		return Value{}
	}
	v := Value{Term: b.ex.dict.Decode(b.r[s]), Bound: true, numState: numNo}
	if n, ok := b.ex.dict.Numeric(b.r[s]); ok {
		v.num, v.numState = n, numYes
	}
	return v
}

// applyFilter keeps the rows satisfying f. Large inputs are filtered
// in parallel chunks; since chunks are contiguous and merged in order,
// the surviving rows keep their input order either way.
func (ex *executor) applyFilter(rows []row, f Expr) []row {
	if ex.parallel(len(rows)) {
		out, err := ex.runRowChunks(rows, func(w *executor, chunk []row) ([]row, error) {
			return w.applyFilterSeq(chunk, f), nil
		})
		if err != nil {
			// Only a context error can land here; drop the rows and let
			// the caller's context check surface it.
			return nil
		}
		return out
	}
	return ex.applyFilterSeq(rows, f)
}

func (ex *executor) applyFilterSeq(rows []row, f Expr) []row {
	out := rows[:0]
	for _, r := range rows {
		keep, err := evalBool(f, rowBinding{ex: ex, r: r})
		if err == nil && keep {
			out = append(out, r)
		}
	}
	return out
}

// project builds the result set for a non-aggregate query.
func (ex *executor) project(q *Query, rows []row) (*Results, error) {
	items := q.Select
	if q.Star {
		items = nil
		for _, name := range ex.varSeq {
			if !strings.HasPrefix(name, internalVarPrefix) {
				items = append(items, SelectItem{Var: name})
			}
		}
	}
	res := &Results{}
	for _, it := range items {
		res.Vars = append(res.Vars, it.Var)
	}
	// Rendering decodes one term per output cell; with many rows it
	// fans out over the workers, each writing its own index range.
	res.Rows = make([][]rdf.Term, len(rows))
	ex.runIndexed(len(rows), ex.parallel(len(rows)), func(w *executor, ri int) {
		b := rowBinding{ex: w, r: rows[ri]}
		line := make([]rdf.Term, len(items))
		for i, it := range items {
			if it.Expr == nil {
				if v := b.value(it.Var); v.Bound {
					line[i] = v.Term
				}
			} else {
				if v, err := evalExpr(it.Expr, b); err == nil && v.Bound {
					line[i] = v.Term
				}
			}
		}
		res.Rows[ri] = line
	})
	if err := ex.ctxErr(); err != nil {
		return nil, err
	}
	return res, nil
}

// construct instantiates the CONSTRUCT template once per solution,
// skipping instantiations with unbound variables or invalid triples,
// and deduplicating the output graph.
func (ex *executor) construct(q *Query, rows []row) (*Results, error) {
	res := &Results{IsConstruct: true}
	seen := map[rdf.Triple]bool{}
	emit := func(t rdf.Triple) {
		if t.Validate() != nil || seen[t] {
			return
		}
		seen[t] = true
		res.Triples = append(res.Triples, t)
	}
	resolve := func(n Node, b rowBinding) (rdf.Term, bool) {
		if !n.IsVar {
			return n.Term, true
		}
		v := b.value(n.Var)
		return v.Term, v.Bound
	}
	for _, r := range rows {
		b := rowBinding{ex: ex, r: r}
		for _, tp := range q.Construct {
			s, ok1 := resolve(tp.S, b)
			p, ok2 := resolve(tp.P, b)
			o, ok3 := resolve(tp.O, b)
			if ok1 && ok2 && ok3 {
				emit(rdf.Triple{S: s, P: p, O: o})
			}
		}
	}
	// Respect LIMIT/OFFSET on the constructed graph.
	if q.Offset > 0 {
		if q.Offset >= len(res.Triples) {
			res.Triples = nil
		} else {
			res.Triples = res.Triples[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(res.Triples) {
		res.Triples = res.Triples[:q.Limit]
	}
	return res, nil
}

// outBinding resolves variables from a projected output row, used by
// ORDER BY and DISTINCT.
type outBinding struct {
	vars []string
	row  []rdf.Term
}

func (b outBinding) value(name string) Value {
	for i, v := range b.vars {
		if v == name && Bound(b.row[i]) {
			return boundValue(b.row[i])
		}
	}
	return Value{}
}

// applyModifiers applies ORDER BY, DISTINCT, OFFSET, and LIMIT to a
// materialized result set.
func applyModifiers(q *Query, res *Results) error {
	if len(q.OrderBy) > 0 {
		type keyed struct {
			row  []rdf.Term
			keys []Value
		}
		ks := make([]keyed, len(res.Rows))
		for i, r := range res.Rows {
			b := outBinding{vars: res.Vars, row: r}
			keys := make([]Value, len(q.OrderBy))
			for j, o := range q.OrderBy {
				v, err := evalExpr(o.Expr, b)
				if err == nil {
					keys[j] = v
				}
			}
			ks[i] = keyed{row: r, keys: keys}
		}
		sort.SliceStable(ks, func(i, j int) bool {
			for k, o := range q.OrderBy {
				a, b := ks[i].keys[k], ks[j].keys[k]
				if orderLess(a, b) {
					return !o.Desc
				}
				if orderLess(b, a) {
					return o.Desc
				}
			}
			return false
		})
		for i := range ks {
			res.Rows[i] = ks[i].row
		}
	}
	if q.Distinct {
		seen := map[string]struct{}{}
		out := res.Rows[:0]
		for _, r := range res.Rows {
			var kb strings.Builder
			for _, t := range r {
				kb.WriteString(t.String())
				kb.WriteByte('\x00')
			}
			k := kb.String()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, r)
		}
		res.Rows = out
	}
	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
	return nil
}
