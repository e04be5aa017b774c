package sparql

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"re2xolap/internal/rdf"
)

// The aggregate algebra: every GROUP BY evaluation — one inline chunk,
// worker-count row chunks, or a coordinator merging shard results —
// folds into the same per-(group, aggregate) partial state and goes
// through the same add / merge / finalize / emit.
//
// Exactness: chunks are contiguous row ranges merged in chunk order, so
// group first-appearance order and within-group value order are those
// of the left-to-right fold. COUNT partials add; SUM/AVG carry (sum, n)
// pairs that add; SAMPLE keeps the earlier chunk's value; MIN/MAX keep
// the extreme, and between distinct terms orderLess cannot tell apart
// ("1" and "1.0"^^xsd:decimal) the one compareTerms puts first, so no
// row or shard order decides; GROUP_CONCAT concatenates in chunk order.
// A DISTINCT aggregate carries its distinct values in first-appearance
// order and merges by replaying the later chunk's unseen values one at
// a time, which is the sequential fold itself — float association
// included. The one caveat is non-DISTINCT floating-point SUM/AVG:
// addition is reassociated across chunks, which can differ from the
// one-chunk sum in the last bits for non-integer data (the paper's
// measures are integers, where addition is exact).

// aggKind is an aggregate function, fixed when the spec is built, so
// that the fold switches on a small integer instead of a name.
type aggKind uint8

const (
	aggNone aggKind = iota // a function the algebra does not know: always unbound
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
	aggSample
	aggConcat
)

var aggKinds = map[string]aggKind{
	"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin,
	"MAX": aggMax, "SAMPLE": aggSample, "GROUP_CONCAT": aggConcat,
}

// aggOp is one aggregate as the fold runs it.
type aggOp struct {
	kind     aggKind
	distinct bool
	sep      string // GROUP_CONCAT's separator, defaulted
	arg      int    // the aggSpec.args entry feeding it; -1 for COUNT(*)
}

// aggPartial is the partial state of one aggregate over one group.
type aggPartial struct {
	n     int64    // COUNT: values counted; SUM/AVG: values summed
	sum   float64  // SUM / AVG
	best  Value    // MIN / MAX: the extreme so far; SAMPLE: first value
	parts []string // GROUP_CONCAT
	// DISTINCT only: the values admitted so far, each with its
	// first-appearance rank.
	seen map[rdf.Term]int
}

// add folds one bound argument value into the state.
func (p *aggPartial) add(op *aggOp, v *Value) {
	if op.distinct {
		if _, dup := p.seen[v.Term]; dup {
			return
		}
		if p.seen == nil {
			p.seen = map[rdf.Term]int{}
		}
		p.seen[v.Term] = len(p.seen)
	}
	switch op.kind {
	case aggCount:
		p.n++
	case aggSum, aggAvg:
		if n, err := v.numeric(); err == nil {
			p.sum += n
			p.n++
		}
	case aggMin, aggMax:
		if !p.best.Bound {
			p.best = *v
			break
		}
		c := orderCompare(*v, p.best)
		if op.kind == aggMax {
			c = -c
		}
		if c < 0 || c == 0 && compareTerms(v.Term, p.best.Term) < 0 {
			p.best = *v
		}
	case aggSample:
		if !p.best.Bound {
			p.best = *v
		}
	case aggConcat:
		p.parts = append(p.parts, v.Term.Value)
	}
}

// merge folds src, the state of a later chunk (or shard), into p.
func (p *aggPartial) merge(op *aggOp, src *aggPartial) {
	if op.distinct {
		// Replay src's values in the order it admitted them; add skips
		// the ones p has seen.
		vals := make([]rdf.Term, len(src.seen))
		for t, rank := range src.seen {
			vals[rank] = t
		}
		for _, t := range vals {
			v := boundValue(t)
			p.add(op, &v)
		}
		return
	}
	switch op.kind {
	case aggCount:
		p.n += src.n
	case aggSum, aggAvg:
		p.sum += src.sum
		p.n += src.n
	case aggMin, aggMax, aggSample:
		if src.best.Bound {
			p.add(op, &src.best)
		}
	case aggConcat:
		p.parts = append(p.parts, src.parts...)
	}
}

// finalize turns the state into the aggregate's value. An empty group
// gives COUNT and SUM 0, AVG/MIN/MAX/SAMPLE unbound, and GROUP_CONCAT
// the empty string. A COUNT, SUM or AVG is a pending number, which
// only emit sees and renders where a term of it is read.
func (p *aggPartial) finalize(op *aggOp) Value {
	switch op.kind {
	case aggCount:
		return pendingNumber(float64(p.n))
	case aggSum:
		return pendingNumber(p.sum)
	case aggAvg:
		if p.n == 0 {
			return Value{}
		}
		return pendingNumber(p.sum / float64(p.n))
	case aggMin, aggMax, aggSample:
		return p.best
	case aggConcat:
		return boundValue(rdf.NewString(strings.Join(p.parts, op.sep)))
	}
	return Value{}
}

// loadPartial reads the partial state one shard computed for aggregate
// op over one group: val is the pushed-down aggregate's value, cnt the
// AVG count column.
func loadPartial(op *aggOp, val, cnt rdf.Term) (aggPartial, error) {
	var p aggPartial
	var err error
	switch op.kind {
	case aggCount:
		p.n, err = termInt(val)
	case aggSum:
		p.sum, err = termFloat(val)
	case aggAvg:
		// A shard whose group had no numeric value reports SUM 0,
		// COUNT 0 — merging both is the identity.
		if p.sum, err = termFloat(val); err == nil {
			p.n, err = termInt(cnt)
		}
	case aggMin, aggMax:
		if Bound(val) {
			p.best = boundValue(val)
		}
	}
	return p, err
}

func termInt(t rdf.Term) (int64, error) {
	if !Bound(t) {
		return 0, fmt.Errorf("sparql: unbound partial count")
	}
	n, err := strconv.ParseInt(t.Value, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("sparql: partial count %q: %w", t.Value, err)
	}
	return n, nil
}

func termFloat(t rdf.Term) (float64, error) {
	if !Bound(t) {
		// An unbound SUM cannot happen (SUM over nothing is 0), but an
		// endpoint is free to omit it; treat as the additive identity.
		return 0, nil
	}
	f, ok := t.Numeric()
	if !ok {
		return 0, fmt.Errorf("sparql: partial sum %q is not numeric", t.Value)
	}
	return f, nil
}

// aggGroup is one group: the terms emit resolves its variables from
// (aligned with aggSpec.vars) and one partial state per aggregate.
type aggGroup struct {
	key   []rdf.Term
	parts []aggPartial
}

// aggTable holds the groups of one chunk, or of the whole input once
// the chunks are merged, in first-appearance order.
type aggTable struct {
	order  []string
	groups map[string]*aggGroup
}

func newAggTable() *aggTable { return &aggTable{groups: map[string]*aggGroup{}} }

func (t *aggTable) add(k string, key []rdf.Term, aggs int) *aggGroup {
	g := &aggGroup{key: key, parts: make([]aggPartial, aggs)}
	t.put(k, g)
	return g
}

// put appends g to t as the group of key k.
func (t *aggTable) put(k string, g *aggGroup) {
	t.groups[k] = g
	t.order = append(t.order, k)
}

// merge folds src, the table of the next chunk, into t.
func (t *aggTable) merge(ops []aggOp, src *aggTable) {
	for _, k := range src.order {
		sg := src.groups[k]
		g, ok := t.groups[k]
		if !ok {
			t.put(k, sg)
			continue
		}
		for ai := range ops {
			g.parts[ai].merge(&ops[ai], &sg.parts[ai])
		}
	}
}

// aggSpec is what one aggregate query asks of the algebra, with the
// plan emit runs: HAVING, the projection and the ORDER BY keys compiled
// once per spec against the key columns vars (see plan).
type aggSpec struct {
	q       *Query    // GROUP BY, the projection, HAVING and the modifiers
	aggs    []AggExpr // the distinct aggregates, one partial each
	ops     []aggOp   // aggs as the fold runs them
	args    []Expr    // the distinct aggregate arguments, each evaluated once per row
	having  []Expr    // q.Having with every aggregate resolved to its aggRef
	project []Expr    // q.Select[i].Expr likewise; a VarExpr for a plain variable
	order   []Expr    // q.OrderBy in SPARQL's scope (orderScope)
	vars    []string  // variables emit reads from aggGroup.key

	tests    []condFn  // having, compiled
	testAggs []int     // the aggregates having reads
	cols     []emitCol // project, one per output column
	keys     []evalFn  // order, compiled
	keyAggs  []int     // the aggregates order reads
}

// emitCol is how emit fills one output column: a copy of a key column
// (key >= 0) or of an aggregate's value (agg >= 0), or a compiled
// expression (fn). num marks a copied COUNT, SUM or AVG, whose value
// is a pending number or unbound.
type emitCol struct {
	key, agg int
	num      bool
	fn       evalFn
}

func newAggSpec(q *Query) *aggSpec {
	aggs, idx := collectAggs(q)
	s := &aggSpec{q: q, aggs: aggs, project: make([]Expr, len(q.Select))}
	for i, it := range q.Select {
		if it.Expr == nil {
			s.vars = append(s.vars, it.Var)
			s.project[i] = VarExpr{Name: it.Var}
		} else {
			s.vars = exprVars(it.Expr, s.vars, false)
			s.project[i] = resolveAggregates(it.Expr, idx)
		}
	}
	for _, h := range q.Having {
		s.vars = exprVars(h, s.vars, false)
		s.having = append(s.having, resolveAggregates(h, idx))
	}
	s.order = orderScope(q, idx)
	for _, o := range s.order {
		s.vars = exprVars(o, s.vars, false)
	}
	argIdx := map[string]int{}
	for _, a := range aggs {
		op := aggOp{kind: aggKinds[a.Fn], distinct: a.Distinct, sep: a.Sep, arg: -1}
		if op.sep == "" {
			op.sep = " "
		}
		if a.Arg != nil {
			k := a.Arg.String()
			i, ok := argIdx[k]
			if !ok {
				i = len(s.args)
				argIdx[k] = i
				s.args = append(s.args, a.Arg)
			}
			op.arg = i
		}
		s.ops = append(s.ops, op)
	}
	s.plan()
	return s
}

// plan compiles emit's plan against the key columns s.vars and the
// aggregate kinds s.ops; whoever changes either re-plans. The closures
// hold no state, so one spec serves concurrent emits.
func (s *aggSpec) plan() {
	c := compiler{cols: s.vars, aggBase: len(s.vars)}
	s.tests = nil
	for _, h := range s.having {
		s.tests = append(s.tests, c.cond(h))
	}
	s.testAggs = aggsRead(s.having)
	s.cols = make([]emitCol, len(s.project))
	for i, e := range s.project {
		col := emitCol{key: -1, agg: -1}
		switch x := e.(type) {
		case VarExpr:
			col.key = slices.Index(s.vars, x.Name)
		case aggRef:
			k := s.ops[x].kind
			col.agg, col.num = int(x), k == aggCount || k == aggSum || k == aggAvg
		default:
			col.fn = c.value(e)
		}
		s.cols[i] = col
	}
	s.keys, s.keyAggs = c.orderKeys(s.order), aggsRead(s.order)
}

// aggsRead lists the aggregates exprs read, each once.
func aggsRead(exprs []Expr) []int {
	var out []int
	for _, e := range exprs {
		WalkExpr(e, func(x Expr) bool {
			if r, ok := x.(aggRef); ok && !slices.Contains(out, int(r)) {
				out = append(out, int(r))
			}
			return true
		})
	}
	return out
}

// aggRef stands for an aggregate inside aggSpec.having and
// aggSpec.project: the index of its partial in aggSpec.aggs. It has a
// value only where a compiler with aggBase >= 0 reads it
// (compiler.aggregate).
type aggRef int

func (aggRef) expr() {}

func (r aggRef) String() string { return fmt.Sprintf("aggregate#%d", int(r)) }

// resolveAggregates returns e with every AggExpr replaced by its
// aggRef in idx, once per query, so that emit neither clones the tree
// nor renders an aggregate per group. A nil idx (no grouping) resolves
// nothing.
func resolveAggregates(e Expr, idx map[string]int) Expr {
	if idx == nil {
		return e
	}
	return mapExpr(e, func(x Expr) (Expr, bool) {
		if a, ok := x.(AggExpr); ok {
			return aggRef(idx[a.String()]), true
		}
		return nil, false
	})
}

// collectAggs gathers every distinct aggregate expression used in the
// projection, HAVING, or ORDER BY, with an index by rendered form.
func collectAggs(q *Query) ([]AggExpr, map[string]int) {
	var aggs []AggExpr
	idx := map[string]int{}
	collect := func(e Expr) {
		WalkExpr(e, func(x Expr) bool {
			a, ok := x.(AggExpr)
			if ok {
				if _, dup := idx[a.String()]; !dup {
					idx[a.String()] = len(aggs)
					aggs = append(aggs, a)
				}
			}
			return !ok
		})
	}
	for _, it := range q.Select {
		if it.Expr != nil {
			collect(it.Expr)
		}
	}
	for _, h := range q.Having {
		collect(h)
	}
	for _, o := range q.OrderBy {
		collect(o.Expr)
	}
	return aggs, idx
}

// emit answers the groups of t: solutions, then the modifiers, ties
// broken by group order when stable (the single node's rule) and
// canonically otherwise (the coordinator's).
func (s *aggSpec) emit(t *aggTable, ctxErr func() error, stable bool) (*Results, error) {
	sol, err := s.solutions(t, ctxErr)
	if err != nil {
		return nil, err
	}
	return sol.finish(s.q, stable), nil
}

// solutions finalizes the groups of t in t.order, keeps those HAVING
// holds for and reads their ORDER BY keys. A query with aggregates but
// no GROUP BY over no input still yields one empty group (COUNT = 0).
// HAVING and the keys read each group's finalized aggregates as
// Values, a number pending (not rendered) unless an expression reads
// its term. A group's line is rendered only when the answer keeps it,
// or for all groups at once when DISTINCT or a canonical tie-break
// first reads one. ctxErr is polled between groups.
func (s *aggSpec) solutions(t *aggTable, ctxErr func() error) (*solutions, error) {
	if len(t.order) == 0 && len(s.q.GroupBy) == 0 {
		t.add("", make([]rdf.Term, len(s.vars)), len(s.aggs))
	}
	gx := &executor{group: make([]Value, len(s.ops))}
	kept := make([]*aggGroup, 0, len(t.order))
groups:
	for _, k := range t.order {
		if err := ctxErr(); err != nil {
			return nil, err
		}
		g := t.groups[k]
		for _, ai := range s.testAggs {
			gx.group[ai] = g.parts[ai].finalize(&s.ops[ai])
		}
		for _, test := range s.tests {
			if ok, err := test(gx, nil, g.key); err != nil || !ok {
				continue groups
			}
		}
		kept = append(kept, g)
	}
	keys := orderValues(s.keys, len(kept), func(i int) (*executor, row, []rdf.Term) {
		g := kept[i]
		for _, ai := range s.keyAggs {
			gx.group[ai] = g.parts[ai].finalize(&s.ops[ai])
		}
		return gx, nil, g.key
	})
	vars := make([]string, len(s.q.Select))
	for i, it := range s.q.Select {
		vars[i] = it.Var
	}
	var all [][]rdf.Term
	return &solutions{
		vars: vars, n: len(kept), keys: keys,
		line: func(i int) []rdf.Term {
			if all == nil {
				all = s.render(gx, kept)
			}
			return all[i]
		},
		lines: func(perm []int) [][]rdf.Term {
			if all != nil {
				return pick(all, perm)
			}
			return s.render(gx, pick(kept, perm))
		},
	}, nil
}

// render projects groups into lines carved from one slab. A
// key column is copied from the group's key, an aggregate's value from
// its finalized Value; a pending number is formatted into one arena
// whose string, made once all are formatted, every such cell slices.
// Only expression columns run a closure.
func (s *aggSpec) render(gx *executor, kept []*aggGroup) [][]rdf.Term {
	nc, nums := len(s.cols), 0
	for _, col := range s.cols {
		nums += b2i(col.num)
	}
	rows := make([][]rdf.Term, len(kept))
	slab := make([]rdf.Term, len(kept)*nc)
	arena := make([]byte, 0, 8*nums*len(kept))
	ends := make([]int, 0, nums*len(kept)) // where each formatted number ends
	for i, g := range kept {
		line := slab[i*nc : (i+1)*nc : (i+1)*nc]
		for ai := range s.ops {
			gx.group[ai] = g.parts[ai].finalize(&s.ops[ai])
		}
		for ci, col := range s.cols {
			switch {
			case col.fn != nil:
				if v, err := col.fn(gx, nil, g.key); err == nil {
					line[ci] = v.Term
				}
			case col.agg >= 0:
				v := gx.group[col.agg]
				if v.pending() {
					arena, v.Term.Datatype = appendNumber(arena, v.num)
					ends = append(ends, len(arena))
				}
				line[ci] = v.Term
			case col.key >= 0:
				line[ci] = g.key[col.key]
			}
		}
		rows[i] = line
	}
	text, from := string(arena), 0
	for _, line := range rows {
		for ci, col := range s.cols {
			if cell := &line[ci]; col.num && cell.Datatype != "" {
				cell.Value, from, ends = text[from:ends[0]], ends[0], ends[1:]
			}
		}
	}
	return rows
}

// aggFold is an aggSpec compiled against one query's slots: what
// foldRows reads from each input row.
type aggFold struct {
	spec     *aggSpec
	keySlots []int    // the GROUP BY variables
	varSlots []int    // aggSpec.vars; -1 for one the query never binds
	args     []evalFn // aggSpec.args
}

// compileFold resolves s against ex's slots. A GROUP BY variable the
// pattern never bound gets its slot here, so call it before padding the
// rows.
func (ex *executor) compileFold(s *aggSpec) *aggFold {
	f := &aggFold{spec: s, keySlots: make([]int, len(s.q.GroupBy)), varSlots: make([]int, len(s.vars))}
	for i, v := range s.q.GroupBy {
		f.keySlots[i] = ex.slot(v)
	}
	for i, v := range s.vars {
		f.varSlots[i] = -1
		if slot, ok := ex.vars.lookup(v); ok {
			f.varSlots[i] = slot
		}
	}
	for _, a := range s.args {
		f.args = append(f.args, ex.compile(a))
	}
	return f
}

// aggregate builds the result set for a GROUP BY / aggregate query by
// streaming the input rows into partial states: one inline chunk below
// the parallel threshold, one chunk per worker above it, merged in
// chunk order.
func (ex *executor) aggregate(q *Query, rows []row) (*solutions, error) {
	f := ex.compileFold(newAggSpec(q))
	rows = ex.extendRows(rows)
	tables := make([]*aggTable, ex.width(len(rows)))
	ex.fanOut(len(rows), len(tables), func(w *executor, c, lo, hi int) error {
		tables[c] = w.foldRows(f, rows[lo:hi])
		return nil
	})
	// A cancelled fold stops mid-chunk; do not emit rows built from
	// what it had seen.
	if err := ex.ctxErr(); err != nil {
		return nil, err
	}
	for _, t := range tables[1:] {
		if t != nil { // the split may make fewer chunks than workers
			tables[0].merge(f.spec.ops, t)
		}
	}
	return f.spec.solutions(tables[0], ex.ctxErr)
}

// foldRows folds a contiguous run of input rows into a fresh table,
// polling for cancellation on every row. Each distinct argument is
// evaluated once per row and fed to every aggregate over it; an error
// or an unbound value contributes nothing.
func (ex *executor) foldRows(f *aggFold, rows []row) *aggTable {
	s := f.spec
	t := newAggTable()
	vals := make([]Value, len(f.args))
	star := Value{Bound: true} // COUNT(*): the row itself counts
	var kb []byte              // the row's group key; a string only once per new group
	for _, r := range rows {
		if ex.cancelled() {
			break
		}
		kb = kb[:0]
		for _, slot := range f.keySlots {
			kb = binary.LittleEndian.AppendUint32(kb, uint32(r[slot]))
		}
		g, ok := t.groups[string(kb)]
		if !ok {
			key := make([]rdf.Term, len(f.varSlots))
			for i, slot := range f.varSlots {
				key[i] = ex.slotValue(r, slot).Term
			}
			g = t.add(string(kb), key, len(s.ops))
		}
		for i, arg := range f.args {
			v, err := arg(ex, r, nil)
			if err != nil {
				v = Value{}
			}
			vals[i] = v
		}
		for ai := range s.ops {
			op, v := &s.ops[ai], &star
			switch {
			case op.arg >= 0:
				if v = &vals[op.arg]; !v.Bound {
					continue
				}
			case op.distinct:
				// COUNT(DISTINCT *): the whole row is the value.
				v = &Value{Bound: true, Term: rdf.NewString(fmt.Sprint(r))}
			}
			g.parts[ai].add(op, v)
		}
	}
	return t
}
