package sparql

import (
	"fmt"
	"sort"
	"strings"

	"re2xolap/internal/rdf"
)

// Distributed-execution support: the helpers internal/shard needs to
// merge per-shard partial results into one canonical result set.
//
// The coordinator's determinism contract is *topology independence*:
// for a fixed dataset, the merged result is a pure function of the
// query and the union of the shards' triples, regardless of how many
// shards the data is split across. A single store has a natural row
// order (its join emission order); a federation does not, so wherever
// the language leaves order unspecified the coordinator imposes a
// canonical one (see MergeFinalize). Everything here lives in package
// sparql because it reuses the executor's value semantics — orderLess,
// numValue, expression evaluation — which is exactly what makes the
// merged output byte-compatible with a 1-shard topology.

// CanonicalRowKey serializes a result row into a byte-comparable key.
// It is the tie-break (and, absent ORDER BY, the entire sort key) the
// coordinator uses to give merged results a deterministic order.
func CanonicalRowKey(row []rdf.Term) string {
	var b strings.Builder
	for _, t := range row {
		if Bound(t) {
			b.WriteString(t.String())
		}
		b.WriteByte('\x00')
	}
	return b.String()
}

// MergeFinalize applies the query's solution modifiers to a merged,
// cross-shard result set: rows are sorted by the ORDER BY keys with
// CanonicalRowKey as the final tie-break (or by the canonical key
// alone when the query has no ORDER BY), then DISTINCT, OFFSET, and
// LIMIT apply exactly as in the sequential engine.
//
// The canonical tie-break is what makes a scatter-gather merge
// deterministic: a stable sort (the engine's choice) would leave ties
// in arrival order, which depends on the shard topology.
func MergeFinalize(q *Query, res *Results) {
	if res.IsAsk || res.IsConstruct {
		return
	}
	type keyed struct {
		row   []rdf.Term
		keys  []Value
		canon string
	}
	ks := make([]keyed, len(res.Rows))
	for i, r := range res.Rows {
		k := keyed{row: r, canon: CanonicalRowKey(r)}
		if len(q.OrderBy) > 0 {
			b := outBinding{vars: res.Vars, row: r}
			k.keys = make([]Value, len(q.OrderBy))
			for j, o := range q.OrderBy {
				v, err := evalExpr(o.Expr, b)
				if err == nil {
					k.keys[j] = v
				}
			}
		}
		ks[i] = k
	}
	sort.Slice(ks, func(i, j int) bool {
		for k, o := range q.OrderBy {
			a, b := ks[i].keys[k], ks[j].keys[k]
			if orderLess(a, b) {
				return !o.Desc
			}
			if orderLess(b, a) {
				return o.Desc
			}
		}
		return ks[i].canon < ks[j].canon
	})
	for i := range ks {
		res.Rows[i] = ks[i].row
	}
	if q.Distinct {
		seen := map[string]struct{}{}
		out := res.Rows[:0]
		for i, r := range res.Rows {
			k := ks[i].canon
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
}

// partialCols names the shard-result columns carrying one aggregate's
// partial state (cnt is the AVG count column, empty otherwise).
type partialCols struct{ val, cnt string }

// partialColPrefix names the synthetic shard-query columns. It shares
// the engine's internal-variable namespace conventions but must not
// collide with internalVarPrefix ("_path"), which SELECT * excludes.
const partialColPrefix = "_sg"

// PartialAggPlan is a decomposed GROUP BY query: ShardQuery pushes
// partial aggregation down to each shard, Merge combines the shards'
// partial states and finalizes HAVING and the projection. The caller
// applies MergeFinalize afterwards.
type PartialAggPlan struct {
	// spec is the original query's aggregate spec with vars set to the
	// GROUP BY variables and every SAMPLE replaced by the MIN it is
	// pushed down as, so shard states merge and finalize as MIN.
	spec  *aggSpec
	shard *Query
	cols  []partialCols // per spec.aggs entry
}

// ShardQuery returns the rewritten per-shard query. Callers must not
// mutate it.
func (p *PartialAggPlan) ShardQuery() *Query { return p.shard }

// PlanPartialAggregation decomposes an aggregate query into per-shard
// partial aggregation plus a coordinator merge. It reports ok = false
// for shapes whose partial states do not merge exactly (or not
// deterministically across topologies):
//
//   - any DISTINCT aggregate (needs a global dedup set),
//   - GROUP_CONCAT (concatenation order depends on per-shard row
//     order, which varies with the topology),
//   - plain variables projected (or used in HAVING/ORDER BY
//     expressions) without appearing in GROUP BY — the engine
//     resolves them from a representative row, which is
//     topology-dependent.
//
// SAMPLE is decomposed as MIN: the language lets SAMPLE return any
// group member, and the least member is the only choice every
// topology agrees on. AVG decomposes into (SUM, COUNT) pairs whose
// count column counts exactly the values the sum column summed.
func PlanPartialAggregation(q *Query) (*PartialAggPlan, bool) {
	if q.Ask || q.Construct != nil || !q.IsAggregate() || q.Star {
		return nil, false
	}
	spec := newAggSpec(q)
	for _, a := range spec.aggs {
		if a.Distinct || a.Fn == "GROUP_CONCAT" {
			return nil, false
		}
	}
	inGroupBy := map[string]bool{}
	for _, v := range q.GroupBy {
		inGroupBy[v] = true
	}
	// Every non-aggregated variable reaching the output must be a
	// GROUP BY key, or its value would come from a topology-dependent
	// representative row.
	for _, v := range spec.vars {
		if !inGroupBy[v] {
			return nil, false
		}
	}
	for _, o := range q.OrderBy {
		// ORDER BY may also reference projection aliases, which are
		// resolved over the output row; only reject free variables.
		for _, v := range nonAggVars(o.Expr, nil) {
			if !inGroupBy[v] && !selectsVar(q, v) {
				return nil, false
			}
		}
	}
	spec.vars = q.GroupBy

	p := &PartialAggPlan{spec: spec, cols: make([]partialCols, len(spec.aggs))}
	shard := &Query{
		Where:   q.Where,
		GroupBy: q.GroupBy,
		Limit:   -1,
	}
	for _, v := range q.GroupBy {
		shard.Select = append(shard.Select, SelectItem{Var: v})
	}
	for i, a := range spec.aggs {
		push := func(suffix string, e AggExpr) string {
			col := fmt.Sprintf("%s%d_%s", partialColPrefix, i, suffix)
			shard.Select = append(shard.Select, SelectItem{Var: col, Expr: e})
			return col
		}
		c := &p.cols[i]
		switch a.Fn {
		case "COUNT":
			c.val = push("n", a)
		case "SUM":
			c.val = push("sum", a)
		case "AVG":
			c.val = push("sum", AggExpr{Fn: "SUM", Arg: a.Arg})
			// arg + 0 evaluates exactly when SUM's Value.numeric() does
			// (ISNUMERIC would also pass an ill-formed numeric literal).
			c.cnt = push("cnt", AggExpr{Fn: "COUNT", Arg: BinaryExpr{Op: "+", L: a.Arg, R: ConstExpr{Term: rdf.NewInteger(0)}}})
		case "MIN":
			c.val = push("min", a)
		case "MAX":
			c.val = push("max", a)
		case "SAMPLE":
			spec.aggs[i] = AggExpr{Fn: "MIN", Arg: a.Arg}
			c.val = push("smp", spec.aggs[i])
		default:
			return nil, false
		}
	}
	p.shard = shard
	return p, true
}

// selectsVar reports whether the query projects a column named v.
func selectsVar(q *Query, v string) bool {
	for _, it := range q.Select {
		if it.Var == v {
			return true
		}
	}
	return false
}

// nonAggVars collects the variables of e that occur outside aggregate
// arguments (aggregate-internal variables are consumed per shard).
func nonAggVars(e Expr, dst []string) []string {
	switch x := e.(type) {
	case AggExpr:
		return dst
	case VarExpr:
		return append(dst, x.Name)
	case BinaryExpr:
		return nonAggVars(x.R, nonAggVars(x.L, dst))
	case UnaryExpr:
		return nonAggVars(x.E, dst)
	case InExpr:
		dst = nonAggVars(x.E, dst)
		for _, y := range x.List {
			dst = nonAggVars(y, dst)
		}
		return dst
	case FuncExpr:
		for _, y := range x.Args {
			dst = nonAggVars(y, dst)
		}
		return dst
	case ExistsExpr:
		return exprVars(x, dst)
	}
	return dst
}

// Merge combines per-shard partial-aggregate results (one *Results
// per shard, in shard order; nil entries — failed shards in degraded
// mode — are skipped) into the final result rows: each shard row loads
// into a partial state that merges into its group, then groups
// finalize and emit as on a single node. Group order is canonical (by
// key serialization); the caller applies MergeFinalize for ORDER BY /
// DISTINCT / LIMIT.
func (p *PartialAggPlan) Merge(shardResults []*Results) (*Results, error) {
	t := newAggTable()
	for _, sr := range shardResults {
		if sr == nil {
			continue
		}
		keyCols, cols, err := p.shardColumns(sr)
		if err != nil {
			return nil, err
		}
		for _, r := range sr.Rows {
			key := make([]rdf.Term, len(keyCols))
			for i, c := range keyCols {
				key[i] = r[c]
			}
			ck := CanonicalRowKey(key)
			g, ok := t.groups[ck]
			if !ok {
				g = t.add(ck, key, len(p.spec.aggs))
			}
			for ai := range p.spec.aggs {
				a := &p.spec.aggs[ai]
				src, err := loadPartial(a, r[cols[ai][0]], r[cols[ai][1]])
				if err != nil {
					return nil, err
				}
				g.parts[ai].merge(a, &src)
			}
		}
	}
	sort.Strings(t.order)
	return p.spec.emit(t, func() error { return nil })
}

// shardColumns maps the plan's columns into one shard result's
// layout: the GROUP BY columns, and per aggregate its value and count
// columns (the value column again where there is no count column).
func (p *PartialAggPlan) shardColumns(sr *Results) (keyCols []int, cols [][2]int, err error) {
	find := func(name string) int {
		i := sr.Column(name)
		if i < 0 && err == nil {
			err = fmt.Errorf("sparql: shard result missing column ?%s", name)
		}
		return i
	}
	for _, v := range p.spec.vars {
		keyCols = append(keyCols, find(v))
	}
	for _, c := range p.cols {
		val := find(c.val)
		cnt := val
		if c.cnt != "" {
			cnt = find(c.cnt)
		}
		cols = append(cols, [2]int{val, cnt})
	}
	return keyCols, cols, err
}
