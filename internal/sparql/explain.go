package sparql

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Explain renders the plan the executor would follow for a query
// without running it: the greedy join order with per-pattern index
// cardinality estimates, the point where each filter becomes
// applicable, and the post-join stages. Intended for debugging slow
// analytical queries and for teaching what the planner does.
func (e *Engine) Explain(q *Query) string {
	ex := &executor{
		eng: e, view: e.st.View(), dict: e.st.Dict(),
		slots: map[string]int{}, dead: new(atomic.Bool),
		workers: e.Exec.workers(), threshold: e.Exec.threshold(),
	}
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

	var patterns []TriplePattern
	var filters []Expr
	var extras []string
	for _, el := range q.Where {
		switch x := el.(type) {
		case TriplePattern:
			patterns = append(patterns, x)
		case FilterElement:
			filters = append(filters, x.Expr)
		case ValuesElement:
			extras = append(extras, fmt.Sprintf("VALUES seed: %d rows over %s", len(x.Rows), strings.Join(x.Vars, ", ")))
		case OptionalElement:
			extras = append(extras, fmt.Sprintf("OPTIONAL left-join: %d patterns", len(x.Patterns)))
		case UnionElement:
			extras = append(extras, fmt.Sprintf("UNION: %d branches", len(x.Branches)))
		case ClosurePattern:
			extras = append(extras, "transitive closure: "+x.String())
		case SubSelectElement:
			extras = append(extras, "subquery seed: "+x.Query.String())
		}
	}
	for _, line := range extras {
		b.WriteString("  " + line + "\n")
	}

	// Full-text rewrites.
	if !e.DisableTextIndex {
		for _, f := range filters {
			if v, kw, ok := textConstraint(f); ok {
				n := len(e.st.TextSearch(kw))
				fmt.Fprintf(&b, "  full-text seed ?%s: %d candidates for %q\n", v, n, kw)
			}
		}
	}

	// Simulate the greedy order.
	bound := map[string]bool{}
	remaining := append([]TriplePattern(nil), patterns...)
	step := 1
	for len(remaining) > 0 {
		idx := 0
		if !e.DisableJoinOrdering {
			idx = ex.cheapestPattern(remaining, bound)
		}
		tp := remaining[idx]
		remaining = append(remaining[:idx], remaining[idx+1:]...)
		est := e.st.MatchCount(ex.constID(tp.S), ex.constID(tp.P), ex.constID(tp.O))
		connected := "seed scan"
		for _, n := range []Node{tp.S, tp.P, tp.O} {
			if n.IsVar && bound[n.Var] {
				connected = "index join"
				break
			}
		}
		fmt.Fprintf(&b, "  %d. %s  [%s, ~%d index entries]\n", step, tp, connected, est)
		step++
		for _, n := range []Node{tp.S, tp.P, tp.O} {
			if n.IsVar {
				bound[n.Var] = true
			}
		}
		for fi, f := range filters {
			if f == nil {
				continue
			}
			if _, _, isText := textConstraint(f); isText && !e.DisableTextIndex {
				filters[fi] = nil
				continue
			}
			ready := true
			for _, v := range exprVars(f, nil) {
				if !bound[v] {
					ready = false
					break
				}
			}
			if ready {
				fmt.Fprintf(&b, "     filter: %s\n", f)
				filters[fi] = nil
			}
		}
	}
	for _, f := range filters {
		if f != nil {
			fmt.Fprintf(&b, "  post-join filter: %s\n", f)
		}
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
