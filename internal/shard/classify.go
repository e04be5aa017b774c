package shard

import (
	"slices"

	"re2xolap/internal/sparql"
)

// planKind is the scatter-gather strategy chosen for a query.
type planKind int

const (
	// planColocated scatters the query (modifiers stripped) to every
	// shard and unions the rows: subject-hash partitioning guarantees
	// each solution is computed wholly on one shard.
	planColocated planKind = iota
	// planPartialAgg pushes partial aggregation down to the shards and
	// finalizes groups at the coordinator (sparql.PlanPartialAggregation).
	planPartialAgg
	// planBoundJoin decomposes a cross-shard BGP into per-shard subject
	// star groups and joins them at the coordinator bound-side-first:
	// the most selective group is fetched unconstrained, and each later
	// group's fetch ships the distinct bindings accumulated so far as a
	// VALUES constraint (sparql.PlanBoundJoin). FILTERs a group covers
	// push down with it; only the join columns cross the network instead
	// of whole relations.
	planBoundJoin
	// planGather fetches the triples matching the query's patterns from
	// every shard into a local store and executes there: the exact
	// fallback for closures, subselects, NOT EXISTS negation,
	// disconnected (cartesian) joins, and non-decomposable aggregates.
	planGather
)

// String names the plan for metrics labels.
func (k planKind) String() string {
	switch k {
	case planColocated:
		return "colocated"
	case planPartialAgg:
		return "partial_agg"
	case planBoundJoin:
		return "bound_join"
	default:
		return "gather"
	}
}

// planKinds is the metrics label vocabulary.
var planKinds = [...]planKind{planColocated, planPartialAgg, planBoundJoin, planGather}

// queryPlan is one classified query: the plan kind plus whichever
// rewrite the kind carries. It is a pure function of the query text —
// never of the topology or the data — which is both the determinism
// prerequisite (topology-independent answers) and what makes the
// coordinator's plan cache sound.
type queryPlan struct {
	query *sparql.Query
	kind  planKind
	agg   *sparql.PartialAggPlan
	bound *sparql.BoundJoinPlan
	// shardText is the text scattered to every shard by the one-round
	// plans, rendered once here so a plan-cache hit prints nothing:
	// the query without its solution modifiers for colocated SELECT
	// and CONSTRUCT, the query itself for colocated ASK, the partial
	// aggregation for partial_agg. Empty for the other plans, whose
	// shard texts depend on what earlier rounds returned.
	shardText string
}

// classify plans a parsed query.
func classify(q *sparql.Query) queryPlan {
	if colocated(q) {
		if q.IsAggregate() {
			if p, ok := sparql.PlanPartialAggregation(q); ok {
				return queryPlan{query: q, kind: planPartialAgg, agg: p, shardText: p.ShardQuery().String()}
			}
			// A colocated but non-decomposable aggregate (DISTINCT inside,
			// GROUP_CONCAT, representative-row projection) still cannot be
			// row-unioned: per-shard aggregation has already collapsed the
			// groups. Gather is the exact path.
			return queryPlan{query: q, kind: planGather}
		}
		if keysOnOutput(q) {
			text := q.String()
			if !q.Ask {
				text = stripModifiers(q).String()
			}
			return queryPlan{query: q, kind: planColocated, shardText: text}
		}
	}
	if p, ok := sparql.PlanBoundJoin(q); ok {
		return queryPlan{query: q, kind: planBoundJoin, bound: p}
	}
	return queryPlan{query: q, kind: planGather}
}

// colocated reports whether every solution of q is computed wholly on
// one shard under subject-hash partitioning: all triple patterns —
// including those inside OPTIONAL, UNION branches, and FILTER
// [NOT] EXISTS — share one identical subject node, there are no
// closures or subselects (their intermediate hops cross shards), and
// every solution of the WHERE matches a triple pattern (rows that
// depend on no data would come back once per shard).
func colocated(q *sparql.Query) bool {
	var subject *sparql.Node
	ok := true
	grounded := sparql.WalkPatterns(q, func(el sparql.PatternElement, _ bool) {
		tp, isTriple := el.(sparql.TriplePattern)
		switch {
		case !isTriple:
			ok = false
		case subject == nil:
			subject = &tp.S
		case *subject != tp.S:
			ok = false
		}
	})
	return ok && grounded
}

// keysOnOutput reports whether every variable q's ORDER BY reads is an
// output column (and no key is EXISTS), as the colocated union, which
// orders the shards' projected lines, needs; any other query falls to
// the bound join or gather, which read keys over full solutions.
// SELECT * outputs every variable; ASK and CONSTRUCT are not ordered.
func keysOnOutput(q *sparql.Query) bool {
	ok := true
	for _, o := range q.OrderBy {
		sparql.WalkExpr(o.Expr, func(x sparql.Expr) bool {
			switch x := x.(type) {
			case sparql.VarExpr:
				ok = ok && slices.ContainsFunc(q.Select, func(it sparql.SelectItem) bool { return it.Var == x.Name })
			case sparql.ExistsExpr:
				ok = false
			}
			return ok
		})
	}
	return ok || q.Star || q.Ask || q.Construct != nil
}
