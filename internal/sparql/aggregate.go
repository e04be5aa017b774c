package sparql

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"re2xolap/internal/par"
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
// pairs that add; MIN/MAX/SAMPLE keep the earlier chunk's value on
// ties; GROUP_CONCAT concatenates in chunk order. A DISTINCT aggregate
// carries its distinct values in first-appearance order and merges by
// replaying the later chunk's unseen values one at a time, which is the
// sequential fold itself — float association included. The one caveat
// is non-DISTINCT floating-point SUM/AVG: addition is reassociated
// across chunks, which can differ from the one-chunk sum in the last
// bits for non-integer data (the paper's measures are integers, where
// addition is exact).

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
func (p *aggPartial) add(a *AggExpr, v Value) {
	if a.Distinct {
		if _, dup := p.seen[v.Term]; dup {
			return
		}
		if p.seen == nil {
			p.seen = map[rdf.Term]int{}
		}
		p.seen[v.Term] = len(p.seen)
	}
	switch a.Fn {
	case "COUNT":
		p.n++
	case "SUM", "AVG":
		if n, err := v.numeric(); err == nil {
			p.sum += n
			p.n++
		}
	case "MIN":
		if !p.best.Bound || orderLess(v, p.best) {
			p.best = v
		}
	case "MAX":
		if !p.best.Bound || orderLess(p.best, v) {
			p.best = v
		}
	case "SAMPLE":
		if !p.best.Bound {
			p.best = v
		}
	case "GROUP_CONCAT":
		p.parts = append(p.parts, v.Term.Value)
	}
}

// merge folds src, the state of a later chunk (or shard), into p.
func (p *aggPartial) merge(a *AggExpr, src *aggPartial) {
	if a.Distinct {
		// Replay src's values in the order it admitted them; add skips
		// the ones p has seen.
		vals := make([]rdf.Term, len(src.seen))
		for t, rank := range src.seen {
			vals[rank] = t
		}
		for _, t := range vals {
			p.add(a, boundValue(t))
		}
		return
	}
	switch a.Fn {
	case "COUNT":
		p.n += src.n
	case "SUM", "AVG":
		p.sum += src.sum
		p.n += src.n
	case "MIN", "MAX", "SAMPLE":
		if src.best.Bound {
			p.add(a, src.best)
		}
	case "GROUP_CONCAT":
		p.parts = append(p.parts, src.parts...)
	}
}

// finalize turns the state into the aggregate's value. An empty group
// gives COUNT and SUM 0, AVG/MIN/MAX/SAMPLE unbound, and GROUP_CONCAT
// the empty string.
func (p *aggPartial) finalize(a *AggExpr) Value {
	switch a.Fn {
	case "COUNT":
		return numValue(float64(p.n))
	case "SUM":
		return numValue(p.sum)
	case "AVG":
		if p.n == 0 {
			return Value{}
		}
		return numValue(p.sum / float64(p.n))
	case "MIN", "MAX", "SAMPLE":
		return p.best
	case "GROUP_CONCAT":
		sep := a.Sep
		if sep == "" {
			sep = " "
		}
		return boundValue(rdf.NewString(strings.Join(p.parts, sep)))
	}
	return Value{}
}

// loadPartial reads the partial state one shard computed for aggregate
// a over one group: val is the pushed-down aggregate's value, cnt the
// AVG count column.
func loadPartial(a *AggExpr, val, cnt rdf.Term) (aggPartial, error) {
	var p aggPartial
	var err error
	switch a.Fn {
	case "COUNT":
		p.n, err = termInt(val)
	case "SUM":
		p.sum, err = termFloat(val)
	case "AVG":
		// A shard whose group had no numeric value reports SUM 0,
		// COUNT 0 — merging both is the identity.
		if p.sum, err = termFloat(val); err == nil {
			p.n, err = termInt(cnt)
		}
	case "MIN", "MAX":
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
	t.groups[k] = g
	t.order = append(t.order, k)
	return g
}

// merge folds src, the table of the next chunk, into t.
func (t *aggTable) merge(aggs []AggExpr, src *aggTable) {
	for _, k := range src.order {
		sg := src.groups[k]
		g, ok := t.groups[k]
		if !ok {
			t.groups[k] = sg
			t.order = append(t.order, k)
			continue
		}
		for ai := range aggs {
			g.parts[ai].merge(&aggs[ai], &sg.parts[ai])
		}
	}
}

// aggSpec is what one aggregate query asks of the algebra.
type aggSpec struct {
	q       *Query    // GROUP BY and the projected names
	aggs    []AggExpr // the distinct aggregates, one partial each
	having  []Expr    // q.Having with every aggregate resolved to its aggRef
	project []Expr    // q.Select[i].Expr likewise; nil for a plain variable
	vars    []string  // variables emit reads from aggGroup.key
}

func newAggSpec(q *Query) *aggSpec {
	aggs, idx := collectAggs(q)
	s := &aggSpec{q: q, aggs: aggs, project: make([]Expr, len(q.Select))}
	for i, it := range q.Select {
		if it.Expr == nil {
			s.vars = append(s.vars, it.Var)
		} else {
			s.vars = nonAggVars(it.Expr, s.vars)
			s.project[i] = resolveAggregates(it.Expr, idx)
		}
	}
	for _, h := range q.Having {
		s.vars = nonAggVars(h, s.vars)
		s.having = append(s.having, resolveAggregates(h, idx))
	}
	return s
}

// aggRef stands for an aggregate inside aggSpec.having and
// aggSpec.project: the index of its partial in aggSpec.aggs. It has a
// value only under a groupBinding.
type aggRef int

func (aggRef) expr() {}

func (r aggRef) String() string { return fmt.Sprintf("aggregate#%d", int(r)) }

// groupBinding is what emit evaluates HAVING and the projection under:
// the group's variables and its finalized aggregates. An aggregate
// without a value (AVG or MIN of nothing) reads as unbound, like a
// variable.
type groupBinding struct {
	outBinding
	vals []Value
}

// resolveAggregates returns e with every AggExpr replaced by its
// aggRef, once per query, so that emit neither clones the tree nor
// renders an aggregate per group.
func resolveAggregates(e Expr, idx map[string]int) Expr {
	switch x := e.(type) {
	case AggExpr:
		return aggRef(idx[x.String()])
	case BinaryExpr:
		return BinaryExpr{Op: x.Op, L: resolveAggregates(x.L, idx), R: resolveAggregates(x.R, idx)}
	case UnaryExpr:
		return UnaryExpr{Op: x.Op, E: resolveAggregates(x.E, idx)}
	case InExpr:
		list := make([]Expr, len(x.List))
		for i, y := range x.List {
			list[i] = resolveAggregates(y, idx)
		}
		return InExpr{E: resolveAggregates(x.E, idx), List: list, Not: x.Not}
	case FuncExpr:
		args := make([]Expr, len(x.Args))
		for i, y := range x.Args {
			args[i] = resolveAggregates(y, idx)
		}
		return FuncExpr{Name: x.Name, Args: args}
	}
	return e
}

// collectAggs gathers every distinct aggregate expression used in the
// projection, HAVING, or ORDER BY, with an index by rendered form.
func collectAggs(q *Query) ([]AggExpr, map[string]int) {
	var aggs []AggExpr
	idx := map[string]int{}
	collect := func(e Expr) {
		walkAggregates(e, func(a AggExpr) {
			if _, dup := idx[a.String()]; !dup {
				idx[a.String()] = len(aggs)
				aggs = append(aggs, a)
			}
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

func walkAggregates(e Expr, fn func(AggExpr)) {
	switch x := e.(type) {
	case AggExpr:
		fn(x)
	case BinaryExpr:
		walkAggregates(x.L, fn)
		walkAggregates(x.R, fn)
	case UnaryExpr:
		walkAggregates(x.E, fn)
	case InExpr:
		walkAggregates(x.E, fn)
		for _, y := range x.List {
			walkAggregates(y, fn)
		}
	case FuncExpr:
		for _, y := range x.Args {
			walkAggregates(y, fn)
		}
	}
}

// emit finalizes every group of t in t.order, applies HAVING and
// evaluates the projection. A query with aggregates but no GROUP BY
// over no input still yields one empty group (COUNT = 0). ctxErr is
// polled between groups.
func (s *aggSpec) emit(t *aggTable, ctxErr func() error) (*Results, error) {
	if len(t.order) == 0 && len(s.q.GroupBy) == 0 {
		t.add("", make([]rdf.Term, len(s.vars)), len(s.aggs))
	}
	res := &Results{}
	for _, it := range s.q.Select {
		res.Vars = append(res.Vars, it.Var)
	}
	b := &groupBinding{outBinding: outBinding{vars: s.vars}, vals: make([]Value, len(s.aggs))}
groups:
	for _, k := range t.order {
		if err := ctxErr(); err != nil {
			return nil, err
		}
		g := t.groups[k]
		b.row = g.key
		for ai := range s.aggs {
			b.vals[ai] = g.parts[ai].finalize(&s.aggs[ai])
		}
		for _, h := range s.having {
			ok, err := evalBool(h, b)
			if err != nil || !ok {
				continue groups
			}
		}
		line := make([]rdf.Term, len(s.q.Select))
		for i, it := range s.q.Select {
			if s.project[i] == nil {
				line[i] = b.value(it.Var).Term
			} else if v, err := evalExpr(s.project[i], b); err == nil {
				line[i] = v.Term
			}
		}
		res.Rows = append(res.Rows, line)
	}
	return res, nil
}

// aggregate builds the result set for a GROUP BY / aggregate query by
// streaming the input rows into partial states: one inline chunk below
// the parallel threshold, one chunk per worker above it, merged in
// chunk order.
func (ex *executor) aggregate(q *Query, rows []row) (*Results, error) {
	s := newAggSpec(q)
	// Resolve the key slots before padding the rows: a GROUP BY variable
	// the pattern never bound gets its slot here.
	keySlots := make([]int, len(q.GroupBy))
	for i, v := range q.GroupBy {
		keySlots[i] = ex.slot(v)
	}
	rows = ex.extendRows(rows)
	chunks := [][2]int{{0, len(rows)}}
	if ex.parallel(len(rows)) {
		chunks = par.Chunks(len(rows), ex.workers)
	}
	tables := make([]*aggTable, len(chunks))
	ex.runIndexed(len(chunks), true, func(w *executor, i int) {
		tables[i] = w.foldRows(s, keySlots, rows[chunks[i][0]:chunks[i][1]])
	})
	// A cancelled fold stops mid-chunk; do not emit rows built from
	// what it had seen.
	if err := ex.ctxErr(); err != nil {
		return nil, err
	}
	for _, t := range tables[1:] {
		tables[0].merge(s.aggs, t)
	}
	return s.emit(tables[0], ex.ctxErr)
}

// foldRows folds a contiguous run of input rows into a fresh table,
// polling for cancellation on every row.
func (ex *executor) foldRows(s *aggSpec, keySlots []int, rows []row) *aggTable {
	t := newAggTable()
	var kb []byte // the row's group key; a string only once per new group
	for _, r := range rows {
		if ex.cancelled() {
			break
		}
		kb = kb[:0]
		for _, slot := range keySlots {
			kb = binary.LittleEndian.AppendUint32(kb, uint32(r[slot]))
		}
		g, ok := t.groups[string(kb)]
		if !ok {
			key := make([]rdf.Term, len(s.vars))
			for i, v := range s.vars {
				key[i] = rowBinding{ex: ex, r: r}.value(v).Term
			}
			g = t.add(string(kb), key, len(s.aggs))
		}
		for ai := range s.aggs {
			ex.update(&g.parts[ai], &s.aggs[ai], r)
		}
	}
	return t
}

// update folds one input row into the partial state of aggregate a:
// the argument is evaluated over the row, and an error or an unbound
// value contributes nothing.
func (ex *executor) update(p *aggPartial, a *AggExpr, r row) {
	v := Value{Bound: true} // COUNT(*): the row itself counts
	if a.Arg != nil {
		var err error
		v, err = evalExpr(a.Arg, rowBinding{ex: ex, r: r})
		if err != nil || !v.Bound {
			return
		}
	} else if a.Distinct {
		// COUNT(DISTINCT *): the whole row is the value.
		v.Term = rdf.NewString(fmt.Sprint(r))
	}
	p.add(a, v)
}
