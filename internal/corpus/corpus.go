// Package corpus holds the shared determinism test corpus: a fully
// deterministic dataset plus the 35-query suite covering every query
// shape and federation plan class. The shard determinism tests and the
// serve-layer cache tests both run it — the contract is that any
// serving configuration (shard count, replica failover, result cache
// on or off, cold or warm) returns byte-identical answers over this
// corpus.
package corpus

import (
	"fmt"

	"re2xolap/internal/datagen"
	"re2xolap/internal/rdf"
)

// Triples is the determinism-suite dataset: a handcrafted graph
// exercising every query shape (star BGPs, cross-subject joins, a
// transitive chain, text filters) plus a seeded datagen corpus so the
// aggregate queries run over realistically skewed data. Fully
// deterministic: the handcrafted part is literal and datagen is
// seeded.
func Triples() []rdf.Triple {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	var ts []rdf.Triple
	add := func(s, p string, o rdf.Term) {
		ts = append(ts, rdf.Triple{S: iri(s), P: iri(p), O: o})
	}
	// Regions in a two-level hierarchy (cross-subject join target).
	for i := 0; i < 4; i++ {
		r := fmt.Sprintf("r%d", i)
		c := "cA"
		if i >= 2 {
			c = "cB"
		}
		add(r, "partOf", iri(c))
		add(r, "label", rdf.NewString(fmt.Sprintf("region %d", i)))
	}
	// Observations: distinct values so ORDER BY is a total order.
	for i := 0; i < 12; i++ {
		s := fmt.Sprintf("obs%d", i)
		add(s, "region", iri(fmt.Sprintf("r%d", i%4)))
		if i != 7 { // one observation misses its value
			add(s, "value", rdf.NewInteger(int64(100+i*7)))
		}
		label := fmt.Sprintf("obs %d", i)
		if i%5 == 0 {
			label += " special"
		}
		add(s, "label", rdf.NewString(label))
	}
	// A knows-chain for the transitive-closure query.
	add("p0", "knows", iri("p1"))
	add("p1", "knows", iri("p2"))
	add("p2", "knows", iri("p3"))
	add("p1", "knows", iri("p3"))
	// Seeded synthetic corpus for scale and skew.
	datagen.EurostatLike(150).Generate(func(t rdf.Triple) { ts = append(ts, t) })
	return ts
}

// Query is one determinism-suite entry. EngineCompare selects how a
// federated answer is checked against the single-node engine: "exact"
// (same rows, same order), "set" (same rows, any order — for queries
// whose order the language leaves unspecified), "skip" (a coordinator
// legitimately picks a different representative: SAMPLE, GROUP_CONCAT,
// bare LIMIT without a total order). Plan is the coordinator plan class
// the query must classify as (colocated, partial_agg, bound_join,
// gather); classification depends on the text alone, so it holds at
// every shard count.
type Query struct {
	Name          string
	Query         string
	EngineCompare string
	Plan          string
}

// Queries is the full 35-query determinism corpus: ORDER BY+LIMIT,
// DISTINCT, HAVING, each aggregate, plus every fallback-triggering
// shape.
func Queries() []Query {
	return []Query{
		{"star-order-limit-offset",
			`SELECT ?s ?v WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } ORDER BY DESC(?v) LIMIT 5 OFFSET 2`,
			"exact", "colocated"},
		{"star-order-asc",
			`SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY ASC(?v)`,
			"exact", "colocated"},
		{"distinct",
			`SELECT DISTINCT ?r WHERE { ?s <http://t/region> ?r }`,
			"set", "colocated"},
		{"bare-limit",
			`SELECT ?s WHERE { ?s <http://t/region> ?r } LIMIT 3`,
			"skip", "colocated"}, // no total order: any 3 rows are a correct answer
		{"count-group",
			`SELECT ?r (COUNT(?v) AS ?n) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r`,
			"set", "partial_agg"},
		{"count-star-group",
			`SELECT ?r (COUNT(*) AS ?n) WHERE { ?s <http://t/region> ?r } GROUP BY ?r ORDER BY ?r`,
			"exact", "partial_agg"},
		{"sum-avg",
			`SELECT ?r (SUM(?v) AS ?t) (AVG(?v) AS ?a) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r ORDER BY ?r`,
			"exact", "partial_agg"},
		{"min-max",
			`SELECT ?r (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r ORDER BY ?r`,
			"exact", "partial_agg"},
		{"global-agg",
			`SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?t) WHERE { ?s <http://t/value> ?v }`,
			"exact", "partial_agg"},
		{"global-agg-empty",
			`SELECT (COUNT(?v) AS ?n) WHERE { ?s <http://t/nosuch> ?v }`,
			"exact", "partial_agg"},
		{"having",
			`SELECT ?r (COUNT(?v) AS ?n) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r HAVING (COUNT(?v) >= 3) ORDER BY ?r`,
			"exact", "partial_agg"},
		{"agg-expr-projection",
			`SELECT ?r ((SUM(?v) + COUNT(?v)) AS ?mix) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r ORDER BY ?r`,
			"exact", "partial_agg"},
		{"sample",
			`SELECT ?r (SAMPLE(?v) AS ?any) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r ORDER BY ?r`,
			"skip", "partial_agg"}, // coordinator's canonical sample may differ from the engine's
		{"group-concat-gather",
			`SELECT ?r (GROUP_CONCAT(?v) AS ?all) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r ORDER BY ?r`,
			// Concatenation order is implementation-defined (row order),
			// and the gather store's canonical load order differs from
			// the original store's insert order — topologies agree with
			// each other, not with the engine's element order.
			"skip", "gather"},
		{"count-distinct-gather",
			`SELECT ?r (COUNT(DISTINCT ?v) AS ?n) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r ORDER BY ?r`,
			"exact", "gather"},
		{"union",
			`SELECT ?s WHERE { { ?s <http://t/region> <http://t/r0> } UNION { ?s <http://t/region> <http://t/r1> } } ORDER BY ?s`,
			"exact", "colocated"},
		{"optional",
			`SELECT ?s ?v WHERE { ?s <http://t/region> ?r . OPTIONAL { ?s <http://t/value> ?v } } ORDER BY ?s`,
			"exact", "colocated"},
		{"filter-contains",
			`SELECT ?s WHERE { ?s <http://t/label> ?l . FILTER (CONTAINS(LCASE(STR(?l)), "special")) } ORDER BY ?s`,
			"exact", "colocated"},
		{"filter-not-exists",
			`SELECT ?s WHERE { ?s <http://t/region> ?r . FILTER NOT EXISTS { ?s <http://t/value> ?v } } ORDER BY ?s`,
			"exact", "colocated"},
		{"select-star-exists",
			// SELECT * names the WHERE clause's variables, never the
			// EXISTS-internal ?v: every shard answers the same header,
			// including the two whose rows never reach the EXISTS.
			`SELECT * WHERE { ?s <http://t/label> ?l . FILTER (CONTAINS(LCASE(STR(?l)), "special")) FILTER EXISTS { ?s <http://t/value> ?v } } ORDER BY ?s`,
			"exact", "colocated"},
		{"closure-gather",
			`SELECT ?b WHERE { <http://t/p0> <http://t/knows>+ ?b } ORDER BY ?b`,
			"exact", "gather"},
		{"closure-zero-length-gather",
			// r0 has no knows edge, so the gathered store does not hold
			// it: the zero-length path must still bind ?b to it.
			`SELECT ?b WHERE { <http://t/r0> <http://t/knows>* ?b } ORDER BY ?b`,
			"exact", "gather"},
		{"join-bound",
			`SELECT ?s ?c WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c } ORDER BY ?s`,
			"exact", "bound_join"},
		{"join-bound-chain",
			`SELECT ?a ?c ?d WHERE { ?a <http://t/knows> ?b . ?b <http://t/knows> ?c . ?c <http://t/knows> ?d } ORDER BY ?a ?c ?d`,
			"exact", "bound_join"},
		{"join-bound-pushed-filter",
			`SELECT ?s ?c WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c . FILTER(?c = <http://t/cA>) } ORDER BY ?s`,
			"exact", "bound_join"},
		{"join-bound-residual-filter",
			`SELECT ?s ?c WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c . FILTER(?s != ?c) } ORDER BY ?s`,
			"exact", "bound_join"},
		{"join-bound-distinct",
			`SELECT DISTINCT ?c WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c }`,
			"set", "bound_join"},
		{"join-bound-expr-projection",
			`SELECT ?s (STR(?c) AS ?cs) WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c } ORDER BY ?s`,
			"exact", "bound_join"},
		{"join-bound-empty",
			`SELECT ?s ?x WHERE { ?s <http://t/region> ?r . ?r <http://t/nosuch> ?x } ORDER BY ?s`,
			"exact", "bound_join"},
		{"join-bound-ask",
			`ASK { ?a <http://t/knows> ?b . ?b <http://t/knows> ?c }`,
			"exact", "bound_join"},
		{"values",
			`SELECT ?s ?v WHERE { VALUES ?r { <http://t/r0> <http://t/r2> } ?s <http://t/region> ?r . ?s <http://t/value> ?v } ORDER BY ?s`,
			"exact", "colocated"},
		{"subselect-gather",
			`SELECT ?s ?v WHERE { { SELECT ?s WHERE { ?s <http://t/region> <http://t/r1> } } ?s <http://t/value> ?v } ORDER BY ?s`,
			"exact", "gather"},
		{"ask-true",
			`ASK { ?s <http://t/region> <http://t/r2> }`,
			"exact", "colocated"},
		{"ask-false",
			`ASK { ?s <http://t/region> <http://t/r9> }`,
			"exact", "colocated"},
		{"mixed-dataset-agg",
			`SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p`,
			"exact", "partial_agg"},
	}
}
