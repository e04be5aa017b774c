package sparql

import (
	"fmt"
	"slices"
	"strings"

	"re2xolap/internal/rdf"
)

// Explain renders the plan the executor would follow for a query
// without running it — the same planBGP plan evalWhere runs: the
// greedy join order with per-pattern index cardinality estimates, the
// point where each filter becomes applicable, and the post-join
// stages. Intended for debugging slow analytical queries and for
// teaching what the planner does.
func (e *Engine) Explain(q *Query) string {
	ex := e.newExecutor(nil, e.st.View(), nil)
	var b strings.Builder
	switch {
	case q.Ask:
		b.WriteString("ASK (short-circuit at first solution)\n")
	case q.Construct != nil:
		fmt.Fprintf(&b, "CONSTRUCT (%d template triples)\n", len(q.Construct))
	case q.IsAggregate():
		fmt.Fprintf(&b, "SELECT with grouping (GROUP BY %s)\n", strings.Join(q.GroupBy, ", "))
	default:
		b.WriteString("SELECT\n")
	}

	// Parallelism plan: how the executor would spread this query over
	// the worker pool.
	if ex.workers > 1 {
		fmt.Fprintf(&b, "  parallel: %d workers, stages chunk at >=%d rows", ex.workers, ex.threshold)
		if q.IsAggregate() {
			fmt.Fprintf(&b, ", %d aggregation chunks", ex.workers)
		}
		if q.Ask {
			b.WriteString(" (ASK runs sequentially: budget 1)")
		}
		b.WriteByte('\n')
	} else {
		b.WriteString("  parallel: off (1 worker)\n")
	}

	// The stages in the order evalWhere runs them. What seeds the
	// pattern join is known only when it runs; the plan shown is the one
	// for a seed binding every subquery column, every VALUES column
	// without UNDEF and every full-text variable.
	w := splitWhere(q.Where)
	ex.registerVars(w.patterns)
	var seedVars []string
	for _, sub := range w.subs {
		fmt.Fprintf(&b, "  subquery seed: %s\n", sub.Query)
		for _, it := range sub.Query.Select {
			seedVars = append(seedVars, it.Var)
		}
	}
	for _, v := range w.values {
		fmt.Fprintf(&b, "  VALUES seed: %d rows over %s\n", len(v.Rows), strings.Join(v.Vars, ", "))
		for i, name := range v.Vars {
			if !slices.ContainsFunc(v.Rows, func(r []*rdf.Term) bool { return r[i] == nil }) {
				seedVars = append(seedVars, name)
			}
		}
	}
	if !e.DisableTextIndex {
		for _, f := range w.filters {
			if v, kw, ok := textConstraint(f); ok {
				fmt.Fprintf(&b, "  full-text seed ?%s: %d candidates for %q\n", v, len(e.st.TextSearch(kw)), kw)
				seedVars = append(seedVars, v)
			}
		}
	}
	for _, name := range seedVars {
		ex.slot(name)
	}
	seed := make(row, len(ex.vars.names))
	for _, name := range seedVars {
		seed[ex.slot(name)] = 1 // any ID: the plan only asks whether it is bound
	}
	plan := ex.planSeed([]row{seed}, w.patterns, w.filters, w.open())[0].plan
	for _, f := range plan.seed {
		fmt.Fprintf(&b, "  seed filter: %s\n", f.expr)
	}
	for i, st := range plan.steps {
		kind := st.op()
		if !st.joined {
			kind = "seed scan"
		}
		fmt.Fprintf(&b, "  %d. %s  [%s, ~%d index entries]\n", i+1, st.tp, kind, st.est)
		for _, f := range st.filters {
			fmt.Fprintf(&b, "     filter: %s\n", f.expr)
		}
	}
	for _, cp := range w.closures {
		fmt.Fprintf(&b, "  transitive closure: %s\n", cp)
	}
	for _, u := range w.unions {
		fmt.Fprintf(&b, "  UNION: %d branches\n", len(u.Branches))
	}
	for _, opt := range w.optionals {
		fmt.Fprintf(&b, "  OPTIONAL left-join: %d patterns\n", len(opt.Patterns))
	}
	for _, be := range w.binds {
		fmt.Fprintf(&b, "  BIND ?%s\n", be.Var)
	}
	for _, i := range plan.residual {
		fmt.Fprintf(&b, "  post-join filter: %s\n", w.filters[i])
	}
	for i, h := range q.Having {
		if i == 0 {
			b.WriteString("  HAVING after aggregation\n")
		}
		fmt.Fprintf(&b, "     %s\n", h)
	}
	if len(q.OrderBy) > 0 {
		fmt.Fprintf(&b, "  ORDER BY (%d keys)\n", len(q.OrderBy))
	}
	if q.Distinct {
		b.WriteString("  DISTINCT\n")
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, "  LIMIT %d", q.Limit)
		if q.Offset > 0 {
			fmt.Fprintf(&b, " OFFSET %d", q.Offset)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ExplainString parses and explains a query.
func (e *Engine) ExplainString(src string) (string, error) {
	q, err := Parse(src)
	if err != nil {
		return "", err
	}
	return e.Explain(q), nil
}
