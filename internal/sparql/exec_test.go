package sparql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// testStore builds a small statistical-KG-shaped store:
//
//	obs{i} --origin--> country --inContinent--> continent
//	obs{i} --dest----> country
//	obs{i} --value---> number
//	country --label--> "Name"
func testStore(t testing.TB) *store.Store {
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	var ts []rdf.Triple
	add := func(s, p string, o rdf.Term) {
		ts = append(ts, rdf.NewTriple(ex(s), ex(p), o))
	}
	countries := map[string]string{
		"de": "Europe", "fr": "Europe", "sy": "Asia", "cn": "Asia",
	}
	labels := map[string]string{
		"de": "Germany", "fr": "France", "sy": "Syria", "cn": "China",
		"Europe": "Europe", "Asia": "Asia",
	}
	for c, cont := range countries {
		add(c, "inContinent", ex(cont))
	}
	for n, l := range labels {
		add(n, "label", rdf.NewString(l))
	}
	type obs struct {
		origin, dest string
		value        int64
	}
	data := []obs{
		{"sy", "de", 300}, {"sy", "fr", 200}, {"cn", "de", 100},
		{"cn", "fr", 50}, {"sy", "de", 250}, {"de", "fr", 10},
	}
	for i, o := range data {
		name := fmt.Sprintf("obs%d", i)
		add(name, "origin", ex(o.origin))
		add(name, "dest", ex(o.dest))
		add(name, "value", rdf.NewInteger(o.value))
		add(name, "type", ex("Observation"))
	}
	if err := st.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	return st
}

func runQuery(t testing.TB, st *store.Store, src string) *Results {
	t.Helper()
	res, err := NewEngine(st).QueryString(src)
	if err != nil {
		t.Fatalf("query failed: %v\n%s", err, src)
	}
	return res
}

func sortedColumn(res *Results, name string) []string {
	col := res.Column(name)
	var out []string
	for _, r := range res.Rows {
		if Bound(r[col]) {
			out = append(out, r[col].Value)
		} else {
			out = append(out, "<unbound>")
		}
	}
	sort.Strings(out)
	return out
}

func TestExecSimpleBGP(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT ?c WHERE { ?c <http://ex.org/inContinent> <http://ex.org/Asia> . }`)
	got := sortedColumn(res, "c")
	want := []string{"http://ex.org/cn", "http://ex.org/sy"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestExecJoin(t *testing.T) {
	st := testStore(t)
	// observations originating from Asia
	res := runQuery(t, st, `SELECT ?obs WHERE {
		?obs <http://ex.org/origin> ?c .
		?c <http://ex.org/inContinent> <http://ex.org/Asia> .
	}`)
	if res.Len() != 5 {
		t.Errorf("got %d rows, want 5\n%s", res.Len(), res)
	}
}

func TestExecPropertyPath(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT DISTINCT ?cont WHERE {
		?obs <http://ex.org/origin>/<http://ex.org/inContinent> ?cont .
	}`)
	got := sortedColumn(res, "cont")
	want := []string{"http://ex.org/Asia", "http://ex.org/Europe"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestExecGroupBySum(t *testing.T) {
	st := testStore(t)
	// Figure 2 analogue: total per continent of origin and destination country
	res := runQuery(t, st, `SELECT ?cont ?dest (SUM(?v) AS ?total) WHERE {
		?obs <http://ex.org/origin>/<http://ex.org/inContinent> ?cont .
		?obs <http://ex.org/dest> ?dest .
		?obs <http://ex.org/value> ?v .
	} GROUP BY ?cont ?dest`)
	want := map[string]float64{
		"http://ex.org/Asia|http://ex.org/de":   650, // 300+250+100
		"http://ex.org/Asia|http://ex.org/fr":   250, // 200+50
		"http://ex.org/Europe|http://ex.org/fr": 10,
	}
	if res.Len() != len(want) {
		t.Fatalf("got %d groups, want %d\n%s", res.Len(), len(want), res)
	}
	ci, di, ti := res.Column("cont"), res.Column("dest"), res.Column("total")
	for _, r := range res.Rows {
		key := r[ci].Value + "|" + r[di].Value
		n, ok := r[ti].Numeric()
		if !ok {
			t.Fatalf("total not numeric: %v", r[ti])
		}
		if want[key] != n {
			t.Errorf("group %s = %v, want %v", key, n, want[key])
		}
	}
}

func TestExecAggregatesAll(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?a) (MIN(?v) AS ?mn) (MAX(?v) AS ?mx) (COUNT(?v) AS ?c) WHERE {
		?obs <http://ex.org/value> ?v .
	}`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	get := func(name string) float64 {
		n, ok := res.Rows[0][res.Column(name)].Numeric()
		if !ok {
			t.Fatalf("%s not numeric", name)
		}
		return n
	}
	if get("s") != 910 || get("c") != 6 || get("mn") != 10 || get("mx") != 300 {
		t.Errorf("aggregates: sum=%v count=%v min=%v max=%v", get("s"), get("c"), get("mn"), get("mx"))
	}
	if av := get("a"); av < 151 || av > 152 {
		t.Errorf("avg = %v", av)
	}
}

func TestExecCountDistinct(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?obs <http://ex.org/origin> ?c . }`)
	if n, _ := res.Rows[0][0].Numeric(); n != 3 {
		t.Errorf("count distinct = %v, want 3", n)
	}
}

func TestExecEmptyAggregate(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT (COUNT(?x) AS ?n) (SUM(?x) AS ?s) WHERE { ?x <http://ex.org/nosuch> ?y . }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	if n, _ := res.Rows[0][0].Numeric(); n != 0 {
		t.Errorf("count over empty = %v", res.Rows[0][0])
	}
}

func TestExecHaving(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT ?dest (SUM(?v) AS ?total) WHERE {
		?obs <http://ex.org/dest> ?dest .
		?obs <http://ex.org/value> ?v .
	} GROUP BY ?dest HAVING ((SUM(?v)) > 300)`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1\n%s", res.Len(), res)
	}
	if res.Rows[0][0].Value != "http://ex.org/de" {
		t.Errorf("kept group = %v", res.Rows[0][0])
	}
}

func TestExecFilterComparisons(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT ?obs WHERE {
		?obs <http://ex.org/value> ?v .
		FILTER (?v >= 100 && ?v < 300)
	}`)
	if res.Len() != 3 { // 300 excluded; 200,100,250
		t.Errorf("rows = %d, want 3\n%s", res.Len(), res)
	}
}

func TestExecFilterIn(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT ?obs WHERE {
		?obs <http://ex.org/origin> ?c .
		FILTER (?c IN (<http://ex.org/sy>, <http://ex.org/de>))
	}`)
	if res.Len() != 4 {
		t.Errorf("rows = %d, want 4", res.Len())
	}
}

func TestExecTextFilter(t *testing.T) {
	st := testStore(t)
	for _, disable := range []bool{false, true} {
		eng := NewEngine(st)
		eng.DisableTextIndex = disable
		res, err := eng.QueryString(`SELECT ?e WHERE {
			?e <http://ex.org/label> ?l .
			FILTER (CONTAINS(LCASE(STR(?l)), "germany"))
		}`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || res.Rows[0][0].Value != "http://ex.org/de" {
			t.Errorf("disable=%v: rows = %v", disable, res.Rows)
		}
	}
}

func TestExecValuesJoin(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT ?obs WHERE {
		VALUES ?c { <http://ex.org/sy> }
		?obs <http://ex.org/origin> ?c .
	}`)
	if res.Len() != 3 {
		t.Errorf("rows = %d, want 3", res.Len())
	}
}

func TestExecOptional(t *testing.T) {
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	_ = st.AddAll([]rdf.Triple{
		rdf.NewTriple(ex("a"), ex("p"), ex("x")),
		rdf.NewTriple(ex("b"), ex("p"), ex("y")),
		rdf.NewTriple(ex("a"), ex("label"), rdf.NewString("A")),
	})
	res := runQuery(t, st, `SELECT ?s ?l WHERE {
		?s <http://ex.org/p> ?o .
		OPTIONAL { ?s <http://ex.org/label> ?l . }
	}`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
	li := res.Column("l")
	boundCount := 0
	for _, r := range res.Rows {
		if Bound(r[li]) {
			boundCount++
			if r[li].Value != "A" {
				t.Errorf("label = %v", r[li])
			}
		}
	}
	if boundCount != 1 {
		t.Errorf("bound labels = %d, want 1", boundCount)
	}
}

func TestExecOrderLimitOffset(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT ?obs ?v WHERE {
		?obs <http://ex.org/value> ?v .
	} ORDER BY DESC(?v) LIMIT 2`)
	vi := res.Column("v")
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	v0, _ := res.Rows[0][vi].Numeric()
	v1, _ := res.Rows[1][vi].Numeric()
	if v0 != 300 || v1 != 250 {
		t.Errorf("top2 = %v, %v", v0, v1)
	}
	res2 := runQuery(t, st, `SELECT ?v WHERE { ?obs <http://ex.org/value> ?v . } ORDER BY ?v OFFSET 4`)
	if res2.Len() != 2 {
		t.Errorf("offset rows = %d, want 2", res2.Len())
	}
}

func TestExecDistinct(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT DISTINCT ?dest WHERE { ?obs <http://ex.org/dest> ?dest . }`)
	if res.Len() != 2 {
		t.Errorf("distinct rows = %d, want 2", res.Len())
	}
}

func TestExecAsk(t *testing.T) {
	st := testStore(t)
	yes := runQuery(t, st, `ASK { ?obs <http://ex.org/origin> <http://ex.org/sy> . }`)
	if !yes.IsAsk || !yes.Boolean {
		t.Errorf("ASK true case = %+v", yes)
	}
	no := runQuery(t, st, `ASK { ?obs <http://ex.org/origin> <http://ex.org/unknown> . }`)
	if no.Boolean {
		t.Error("ASK false case returned true")
	}
}

func TestExecVariablePredicate(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT DISTINCT ?p WHERE { <http://ex.org/obs0> ?p ?o . }`)
	if res.Len() != 4 {
		t.Errorf("predicates = %d, want 4\n%s", res.Len(), res)
	}
}

func TestExecSelectStarHidesPathVars(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT * WHERE { ?obs <http://ex.org/origin>/<http://ex.org/inContinent> ?c . }`)
	for _, v := range res.Vars {
		if v != "obs" && v != "c" {
			t.Errorf("internal var leaked: %v", res.Vars)
		}
	}
}

// TestExecSelectStarScope pins SELECT *'s header to the variables in
// scope of the WHERE clause, in slot order: an EXISTS-internal
// variable never appears, whether or not a row reaches the EXISTS, and
// a closure over a predicate the store lacks still names its ends.
func TestExecSelectStarScope(t *testing.T) {
	st := testStore(t)
	empty := store.New()
	for _, c := range []struct {
		query string
		want  string
	}{
		{`SELECT * WHERE { ?o <http://ex.org/origin> ?c . FILTER EXISTS { ?c <http://ex.org/inContinent> ?z } }`, "[o c]"},
		{`SELECT * WHERE { ?o <http://ex.org/origin> ?c . FILTER NOT EXISTS { ?c <http://ex.org/label> ?z . ?z <http://ex.org/p> ?w } }`, "[o c]"},
		{`SELECT * WHERE { ?o <http://ex.org/origin> ?c . ?c <http://ex.org/nosuch>+ ?z }`, "[o c z]"},
		{`SELECT * WHERE { ?o <http://ex.org/value> ?v . FILTER (?v > ?limit) }`, "[o v]"},
		{`SELECT * WHERE { ?o <http://ex.org/value> ?v . VALUES ?k { 1 2 } }`, "[o v k]"},
		{`SELECT * WHERE { ?o <http://ex.org/value> ?v { ?o <http://ex.org/origin> ?a } UNION { ?o <http://ex.org/dest> ?b } }`, "[o v a b]"},
		{`SELECT * WHERE { { SELECT * WHERE { ?o <http://ex.org/origin> ?c . FILTER EXISTS { ?c <http://ex.org/inContinent> ?z } } } ?o <http://ex.org/value> ?v }`, "[o v c]"},
		{`SELECT * WHERE { BIND (1 AS ?one) OPTIONAL { ?o <http://ex.org/dest> ?d } { ?o <http://ex.org/origin> ?c } UNION { ?o <http://ex.org/dest> ?c } ?o <http://ex.org/value> ?v . VALUES ?c { <http://ex.org/sy> } { SELECT ?o (1 AS ?w) WHERE { ?o <http://ex.org/type> ?t } } }`, "[o v w c d one]"},
	} {
		for name, s := range map[string]*store.Store{"data": st, "empty": empty} {
			if got := fmt.Sprint(runQuery(t, s, c.query).Vars); got != c.want {
				t.Errorf("%s store: %s\nheader %s, want %s", name, c.query, got, c.want)
			}
		}
	}
}

func TestExecUnknownConstantYieldsEmpty(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT ?s WHERE { ?s <http://ex.org/origin> <http://nowhere/z> . }`)
	if res.Len() != 0 {
		t.Errorf("rows = %d, want 0", res.Len())
	}
}

func TestExecRepeatedVariable(t *testing.T) {
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	_ = st.AddAll([]rdf.Triple{
		rdf.NewTriple(ex("a"), ex("p"), ex("a")), // self loop
		rdf.NewTriple(ex("a"), ex("p"), ex("b")),
		rdf.NewTriple(ex("p"), ex("p"), ex("b")), // subject = predicate
		rdf.NewTriple(ex("b"), ex("q"), ex("q")), // predicate = object
		rdf.NewTriple(ex("q"), ex("q"), ex("q")), // all three
	})
	for _, tt := range []struct{ pattern, want string }{
		{`?x <http://ex.org/p> ?x`, "[http://ex.org/a]"},
		{`?x ?x ?o`, "[http://ex.org/p http://ex.org/q]"},
		{`?s ?x ?x`, "[http://ex.org/q http://ex.org/q]"},
		{`?x ?x ?x`, "[http://ex.org/q]"},
		// The repeated variable arrives bound from an earlier pattern.
		{`?x <http://ex.org/p> <http://ex.org/b> . ?x ?p ?x`, "[http://ex.org/a]"},
	} {
		res := runQuery(t, st, `SELECT ?x WHERE { `+tt.pattern+` . }`)
		if got := fmt.Sprint(sortedColumn(res, "x")); got != tt.want {
			t.Errorf("{ %s }: ?x = %s, want %s", tt.pattern, got, tt.want)
		}
	}
}

func TestExecJoinOrderingAblation(t *testing.T) {
	st := testStore(t)
	for _, disable := range []bool{false, true} {
		eng := NewEngine(st)
		eng.DisableJoinOrdering = disable
		res, err := eng.QueryString(`SELECT ?cont ?dest (SUM(?v) AS ?total) WHERE {
			?obs <http://ex.org/origin>/<http://ex.org/inContinent> ?cont .
			?obs <http://ex.org/dest> ?dest .
			?obs <http://ex.org/value> ?v .
		} GROUP BY ?cont ?dest`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 3 {
			t.Errorf("disable=%v: groups = %d, want 3", disable, res.Len())
		}
	}
}

func TestExecGroupConcatAndSample(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT ?c (GROUP_CONCAT(DISTINCT ?dest; SEPARATOR=",") AS ?ds) (SAMPLE(?dest) AS ?one) WHERE {
		?obs <http://ex.org/origin> ?c .
		?obs <http://ex.org/dest> ?dest .
	} GROUP BY ?c`)
	if res.Len() != 3 {
		t.Fatalf("groups = %d\n%s", res.Len(), res)
	}
	di := res.Column("ds")
	for _, r := range res.Rows {
		if !Bound(r[di]) || r[di].Value == "" {
			t.Errorf("group_concat empty: %v", r)
		}
	}
}

// TestExecAvoidsCartesianProducts is a regression test for the join
// planner: a small disconnected pattern must not be joined before the
// chain connecting it, which would build a cross product.
func TestExecAvoidsCartesianProducts(t *testing.T) {
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	var ts []rdf.Triple
	// 500 observations → member chain a→b; only 3 c-values overall.
	for i := 0; i < 500; i++ {
		o := ex(fmt.Sprintf("o%d", i))
		a := ex(fmt.Sprintf("a%d", i%50))
		ts = append(ts,
			rdf.NewTriple(o, ex("p"), a),
			rdf.NewTriple(a, ex("q"), ex(fmt.Sprintf("b%d", i%7))),
		)
	}
	for i := 0; i < 3; i++ {
		ts = append(ts, rdf.NewTriple(ex(fmt.Sprintf("b%d", i)), ex("r"), ex(fmt.Sprintf("c%d", i))))
	}
	if err := st.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	res := runQuery(t, st, `SELECT DISTINCT ?c WHERE {
		?o <http://ex.org/p> ?a .
		?a <http://ex.org/q> ?b .
		?b <http://ex.org/r> ?c .
	}`)
	if res.Len() != 3 {
		t.Errorf("rows = %d, want 3", res.Len())
	}
}

// TestExecDisconnectedProduct checks that genuinely disconnected
// components still produce the cartesian product.
func TestExecDisconnectedProduct(t *testing.T) {
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	_ = st.AddAll([]rdf.Triple{
		rdf.NewTriple(ex("a1"), ex("p"), ex("x")),
		rdf.NewTriple(ex("a2"), ex("p"), ex("x")),
		rdf.NewTriple(ex("b1"), ex("q"), ex("y")),
		rdf.NewTriple(ex("b2"), ex("q"), ex("y")),
		rdf.NewTriple(ex("b3"), ex("q"), ex("y")),
	})
	res := runQuery(t, st, `SELECT ?a ?b WHERE {
		?a <http://ex.org/p> <http://ex.org/x> .
		?b <http://ex.org/q> <http://ex.org/y> .
	}`)
	if res.Len() != 6 {
		t.Errorf("rows = %d, want 6 (2×3 product)", res.Len())
	}
}

func TestExecUnion(t *testing.T) {
	st := testStore(t)
	// Countries that are origins OR destinations.
	res := runQuery(t, st, `SELECT DISTINCT ?c WHERE {
		{ ?o <http://ex.org/origin> ?c . } UNION { ?o <http://ex.org/dest> ?c . }
	}`)
	if res.Len() != 4 { // sy, cn, de, fr
		t.Errorf("rows = %d, want 4\n%s", res.Len(), res)
	}
}

func TestExecUnionWithJoin(t *testing.T) {
	st := testStore(t)
	// Union joined against an outer pattern: continents of countries
	// reached either as origin or destination.
	res := runQuery(t, st, `SELECT DISTINCT ?cont WHERE {
		?c <http://ex.org/inContinent> ?cont .
		{ ?o <http://ex.org/origin> ?c . FILTER (?c != <http://ex.org/de>) }
		UNION
		{ ?o <http://ex.org/dest> ?c . }
	}`)
	if res.Len() != 2 {
		t.Errorf("rows = %d, want 2\n%s", res.Len(), res)
	}
}

func TestExecNestedGroupSplice(t *testing.T) {
	st := testStore(t)
	// A plain nested group without UNION is spliced into the parent.
	res := runQuery(t, st, `SELECT ?c WHERE { { ?c <http://ex.org/inContinent> <http://ex.org/Asia> . } }`)
	if res.Len() != 2 {
		t.Errorf("rows = %d, want 2", res.Len())
	}
}

func TestExecStringBuiltins(t *testing.T) {
	st := testStore(t)
	tests := []struct {
		expr string
		want string
	}{
		{`CONCAT("a", "b", "c")`, "abc"},
		{`STRBEFORE("hello-world", "-")`, "hello"},
		{`STRAFTER("hello-world", "-")`, "world"},
		{`STRAFTER("hello", "x")`, ""},
		{`REPLACE("banana", "na", "NA")`, "baNANA"},
		{`SUBSTR("hello", 2)`, "ello"},
		{`SUBSTR("hello", 2, 3)`, "ell"},
		{`SUBSTR("hello", 1, 99)`, "hello"},
	}
	for _, tt := range tests {
		res := runQuery(t, st, `SELECT (`+tt.expr+` AS ?x) WHERE { ?s <http://ex.org/value> ?v . } LIMIT 1`)
		if res.Len() != 1 {
			t.Fatalf("%s: rows = %d", tt.expr, res.Len())
		}
		if got := res.Rows[0][0].Value; got != tt.want {
			t.Errorf("%s = %q, want %q", tt.expr, got, tt.want)
		}
	}
}

// closureStore builds a genre tree: g1→g2→g3→root, g4→g3, plus a cycle
// c1→c2→c1.
func closureStore(t testing.TB) *store.Store {
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	_ = st.AddAll([]rdf.Triple{
		rdf.NewTriple(ex("g1"), ex("parent"), ex("g2")),
		rdf.NewTriple(ex("g2"), ex("parent"), ex("g3")),
		rdf.NewTriple(ex("g3"), ex("parent"), ex("root")),
		rdf.NewTriple(ex("g4"), ex("parent"), ex("g3")),
		rdf.NewTriple(ex("c1"), ex("parent"), ex("c2")),
		rdf.NewTriple(ex("c2"), ex("parent"), ex("c1")),
	})
	return st
}

func TestExecClosurePlus(t *testing.T) {
	st := closureStore(t)
	res := runQuery(t, st, `SELECT ?a WHERE { <http://ex.org/g1> <http://ex.org/parent>+ ?a . }`)
	got := sortedColumn(res, "a")
	want := []string{"http://ex.org/g2", "http://ex.org/g3", "http://ex.org/root"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestExecClosureStar(t *testing.T) {
	st := closureStore(t)
	res := runQuery(t, st, `SELECT ?a WHERE { <http://ex.org/g1> <http://ex.org/parent>* ?a . }`)
	if res.Len() != 4 { // includes g1 itself
		t.Errorf("rows = %d, want 4\n%s", res.Len(), res)
	}
}

func TestExecClosureBackward(t *testing.T) {
	st := closureStore(t)
	// Everything that reaches root transitively.
	res := runQuery(t, st, `SELECT ?a WHERE { ?a <http://ex.org/parent>+ <http://ex.org/root> . }`)
	got := sortedColumn(res, "a")
	want := []string{"http://ex.org/g1", "http://ex.org/g2", "http://ex.org/g3", "http://ex.org/g4"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestExecClosureCycle(t *testing.T) {
	st := closureStore(t)
	// The cycle must terminate and include both nodes.
	res := runQuery(t, st, `SELECT ?a WHERE { <http://ex.org/c1> <http://ex.org/parent>+ ?a . }`)
	if res.Len() != 2 {
		t.Errorf("rows = %d, want 2 (c2, c1)\n%s", res.Len(), res)
	}
}

func TestExecClosureBothBound(t *testing.T) {
	st := closureStore(t)
	yes := runQuery(t, st, `ASK { <http://ex.org/g1> <http://ex.org/parent>+ <http://ex.org/root> . }`)
	if !yes.Boolean {
		t.Error("g1 →+ root should hold")
	}
	no := runQuery(t, st, `ASK { <http://ex.org/root> <http://ex.org/parent>+ <http://ex.org/g1> . }`)
	if no.Boolean {
		t.Error("root →+ g1 should not hold")
	}
}

func TestExecClosureInSequence(t *testing.T) {
	st := testStore(t)
	// Mixing a plain step with a closure: origin then inContinent+ (one
	// level here, so same as inContinent).
	res := runQuery(t, st, `SELECT DISTINCT ?c WHERE { ?o <http://ex.org/origin>/<http://ex.org/inContinent>+ ?c . }`)
	if res.Len() != 2 {
		t.Errorf("rows = %d, want 2\n%s", res.Len(), res)
	}
}

func TestExecClosureJoinWithBoundVar(t *testing.T) {
	st := closureStore(t)
	// ?a is bound by a preceding pattern, then closed over.
	res := runQuery(t, st, `SELECT ?a ?b WHERE {
		?a <http://ex.org/parent> <http://ex.org/g3> .
		?a <http://ex.org/parent>+ ?b .
	}`)
	// a ∈ {g2, g4}; closures: g2→{g3,root}, g4→{g3,root} → 4 rows.
	if res.Len() != 4 {
		t.Errorf("rows = %d, want 4\n%s", res.Len(), res)
	}
}

func TestExecClosureUnknownPredicate(t *testing.T) {
	st := closureStore(t)
	res := runQuery(t, st, `SELECT ?a WHERE { <http://ex.org/g1> <http://ex.org/nosuch>+ ?a . }`)
	if res.Len() != 0 {
		t.Errorf("rows = %d, want 0", res.Len())
	}
	star := runQuery(t, st, `SELECT ?a WHERE { <http://ex.org/g1> <http://ex.org/nosuch>* ?a . }`)
	if star.Len() != 1 { // zero-length path: a = g1
		t.Errorf("star rows = %d, want 1\n%s", star.Len(), star)
	}
}

// TestExecClosureUnknownConstant: a constant endpoint the store does
// not hold has no edges, so SPARQL's zero-or-more path still gives it
// the zero-length solution and the one-or-more path gives nothing —
// with the predicate present or absent, and without indexing a
// missing slot.
func TestExecClosureUnknownConstant(t *testing.T) {
	st := closureStore(t)
	const zzz = "http://x/zzz"
	for _, tt := range []struct {
		query string
		want  string // sorted column ?o, or the ASK answer
	}{
		{`SELECT ?o WHERE { <http://x/zzz> <http://ex.org/parent>* ?o }`, "[" + zzz + "]"},
		{`SELECT ?o WHERE { <http://x/zzz> <http://ex.org/parent>+ ?o }`, "[]"},
		{`SELECT ?o WHERE { ?o <http://ex.org/parent>* <http://x/zzz> }`, "[" + zzz + "]"},
		{`SELECT ?o WHERE { ?o <http://ex.org/parent>+ <http://x/zzz> }`, "[]"},
		{`SELECT ?o WHERE { <http://x/zzz> <http://ex.org/nosuch>* ?o }`, "[" + zzz + "]"},
		{`SELECT ?o WHERE { ?o <http://ex.org/nosuch>* <http://x/zzz> }`, "[" + zzz + "]"},
		{`SELECT ?o WHERE { <http://ex.org/g1> <http://ex.org/parent>* <http://x/zzz> . <http://ex.org/g1> <http://ex.org/parent> ?o }`, "[]"},
		{`SELECT ?o WHERE { <http://ex.org/g1> <http://ex.org/parent> ?o . ?o <http://ex.org/parent>* <http://x/zzz> }`, "[]"},
		{`ASK { <http://x/zzz> <http://ex.org/parent>* <http://x/zzz> }`, "true"},
		{`ASK { <http://x/zzz> <http://ex.org/parent>+ <http://x/zzz> }`, "false"},
		{`ASK { <http://x/zzz> <http://ex.org/parent>* <http://ex.org/g1> }`, "false"},
		{`ASK { <http://ex.org/g1> <http://ex.org/parent>+ <http://x/zzz> }`, "false"},
	} {
		res := runQuery(t, st, tt.query)
		got := fmt.Sprint(res.Boolean)
		if !res.IsAsk {
			got = fmt.Sprint(sortedColumn(res, "o"))
		}
		if got != tt.want {
			t.Errorf("%s = %s, want %s", tt.query, got, tt.want)
		}
	}
}

func TestExecConstruct(t *testing.T) {
	st := testStore(t)
	// Materialize a flattened view: observation → continent of origin.
	res := runQuery(t, st, `CONSTRUCT {
		?o <http://view/origin_continent> ?cont .
	} WHERE {
		?o <http://ex.org/origin>/<http://ex.org/inContinent> ?cont .
	}`)
	if !res.IsConstruct {
		t.Fatal("not a construct result")
	}
	if len(res.Triples) != 6 {
		t.Fatalf("triples = %d, want 6\n%s", len(res.Triples), res)
	}
	for _, tr := range res.Triples {
		if tr.P.Value != "http://view/origin_continent" {
			t.Errorf("predicate = %v", tr.P)
		}
	}
	// The view is loadable into a fresh store.
	st2 := store.New()
	if err := st2.AddAll(res.Triples); err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 6 {
		t.Errorf("materialized store = %d triples", st2.Len())
	}
}

func TestExecConstructDedupAndUnbound(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `CONSTRUCT {
		?c <http://view/usedAsOrigin> <http://view/yes> .
		?c <http://view/label> ?l .
	} WHERE {
		?o <http://ex.org/origin> ?c .
		OPTIONAL { ?c <http://ex.org/missing> ?l . }
	}`)
	// ?l is never bound: only the first template triple instantiates,
	// deduplicated across the 3 distinct origins.
	if len(res.Triples) != 3 {
		t.Fatalf("triples = %d, want 3\n%s", len(res.Triples), res)
	}
}

func TestExecConstructLimit(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `CONSTRUCT { ?o <http://v/p> ?c . } WHERE { ?o <http://ex.org/origin> ?c . } LIMIT 2`)
	if len(res.Triples) != 2 {
		t.Errorf("triples = %d, want 2", len(res.Triples))
	}
}

func TestExecFilterExists(t *testing.T) {
	st := testStore(t)
	// Origin countries that have a continent link (all of them do).
	res := runQuery(t, st, `SELECT DISTINCT ?c WHERE {
		?o <http://ex.org/origin> ?c .
		FILTER EXISTS { ?c <http://ex.org/inContinent> ?x . }
	}`)
	if res.Len() != 3 {
		t.Errorf("rows = %d, want 3\n%s", res.Len(), res)
	}
}

func TestExecFilterNotExistsCorrelated(t *testing.T) {
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	_ = st.AddAll([]rdf.Triple{
		rdf.NewTriple(ex("o1"), ex("dim"), ex("a")),
		rdf.NewTriple(ex("o2"), ex("dim"), ex("b")),
		rdf.NewTriple(ex("a"), ex("up"), ex("top")), // only a has a parent
	})
	// Members without a parent — the correlation on ?c is essential:
	// uncorrelated evaluation would drop both or keep both.
	res := runQuery(t, st, `SELECT ?c WHERE {
		?o <http://ex.org/dim> ?c .
		FILTER NOT EXISTS { ?c <http://ex.org/up> ?p . }
	}`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://ex.org/b" {
		t.Errorf("rows = %v", res.Rows)
	}
	// And the positive case.
	res2 := runQuery(t, st, `SELECT ?c WHERE {
		?o <http://ex.org/dim> ?c .
		FILTER EXISTS { ?c <http://ex.org/up> ?p . }
	}`)
	if res2.Len() != 1 || res2.Rows[0][0].Value != "http://ex.org/a" {
		t.Errorf("exists rows = %v", res2.Rows)
	}
}

func TestExecExistsWithInnerFilter(t *testing.T) {
	st := testStore(t)
	// Destinations that received at least one large shipment.
	res := runQuery(t, st, `SELECT DISTINCT ?d WHERE {
		?o <http://ex.org/dest> ?d .
		FILTER EXISTS { ?o2 <http://ex.org/dest> ?d . ?o2 <http://ex.org/value> ?v . FILTER (?v >= 250) }
	}`)
	// values: de gets 300,100,250 (≥250 twice); fr gets 200,50,10 → only de.
	if res.Len() != 1 || res.Rows[0][0].Value != "http://ex.org/de" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestParseExistsRoundTrip(t *testing.T) {
	q := mustParse(t, `SELECT ?c WHERE { ?o <http://p> ?c . FILTER NOT EXISTS { ?c <http://up> ?x . FILTER (?x != <http://y>) } }`)
	ser := q.String()
	if _, err := Parse(ser); err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, ser)
	}
}

func TestExecSubSelect(t *testing.T) {
	st := testStore(t)
	// Average of per-destination sums: classic nested aggregation.
	res := runQuery(t, st, `SELECT (AVG(?total) AS ?avgTotal) WHERE {
		{ SELECT ?d (SUM(?v) AS ?total) WHERE {
			?o <http://ex.org/dest> ?d .
			?o <http://ex.org/value> ?v .
		} GROUP BY ?d }
	}`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
	// sums: de=650, fr=260 → avg 455
	if n, _ := res.Rows[0][0].Numeric(); n != 455 {
		t.Errorf("avg of sums = %v, want 455", n)
	}
}

func TestExecSubSelectJoinsOuter(t *testing.T) {
	st := testStore(t)
	// Join the subquery's destination totals back to continents.
	res := runQuery(t, st, `SELECT ?d ?total WHERE {
		{ SELECT ?d (SUM(?v) AS ?total) WHERE {
			?o <http://ex.org/dest> ?d .
			?o <http://ex.org/value> ?v .
		} GROUP BY ?d }
		?d <http://ex.org/inContinent> <http://ex.org/Europe> .
	}`)
	if res.Len() != 2 { // de and fr are both European
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
	totals := map[string]float64{}
	for _, r := range res.Rows {
		n, _ := r[1].Numeric()
		totals[r[0].Value] = n
	}
	if totals["http://ex.org/de"] != 650 || totals["http://ex.org/fr"] != 260 {
		t.Errorf("totals = %v", totals)
	}
}

func TestExecSubSelectWithLimit(t *testing.T) {
	st := testStore(t)
	// Top-1 destination by total, joined to its continent.
	res := runQuery(t, st, `SELECT ?d ?cont WHERE {
		{ SELECT ?d (SUM(?v) AS ?total) WHERE {
			?o <http://ex.org/dest> ?d . ?o <http://ex.org/value> ?v .
		} GROUP BY ?d ORDER BY DESC(?total) LIMIT 1 }
		?d <http://ex.org/inContinent> ?cont .
	}`)
	if res.Len() != 1 || res.Rows[0][0].Value != "http://ex.org/de" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestExplain(t *testing.T) {
	st := testStore(t)
	eng := NewEngine(st)
	out, err := eng.ExplainString(`SELECT ?cont (SUM(?v) AS ?s) WHERE {
		?o a <http://ex.org/Observation> .
		?o <http://ex.org/origin>/<http://ex.org/inContinent> ?cont .
		?o <http://ex.org/value> ?v .
		FILTER (?v > 10)
	} GROUP BY ?cont ORDER BY DESC(?s) LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"SELECT with grouping",
		"1. ", "index join", "~6 index entries",
		"filter: ", "ORDER BY", "LIMIT 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	// The first joined pattern must be a seed scan; the rest joins.
	if strings.Index(out, "seed scan") > strings.Index(out, "index join") {
		t.Errorf("ordering wrong:\n%s", out)
	}
	// A syntax error propagates.
	if _, err := eng.ExplainString("NOT SPARQL"); err == nil {
		t.Error("bad query explained")
	}
}

func TestExplainAskAndConstruct(t *testing.T) {
	st := testStore(t)
	eng := NewEngine(st)
	out, _ := eng.ExplainString(`ASK { ?s <http://ex.org/origin> ?c . }`)
	if !strings.Contains(out, "short-circuit") {
		t.Errorf("ask explain:\n%s", out)
	}
	out, _ = eng.ExplainString(`CONSTRUCT { ?s <http://v/p> ?c . } WHERE { ?s <http://ex.org/origin> ?c . }`)
	if !strings.Contains(out, "CONSTRUCT (1 template triples)") {
		t.Errorf("construct explain:\n%s", out)
	}
}

func TestExecBind(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT ?o ?double WHERE {
		?o <http://ex.org/value> ?v .
		BIND (?v * 2 AS ?double)
		FILTER (?double >= 400)
	}`)
	if res.Len() != 2 { // 300*2=600, 250*2=500, 200*2=400 → 3? values: 300,200,100,50,250,10 → ≥400: 600,500,400 = 3
		t.Logf("rows:\n%s", res)
	}
	di := res.Column("double")
	for _, r := range res.Rows {
		n, ok := r[di].Numeric()
		if !ok || n < 400 {
			t.Errorf("double = %v", r[di])
		}
	}
}

func TestExecBindString(t *testing.T) {
	st := testStore(t)
	res := runQuery(t, st, `SELECT ?c ?tag WHERE {
		?c <http://ex.org/inContinent> <http://ex.org/Asia> .
		BIND (CONCAT("country:", STR(?c)) AS ?tag)
	}`)
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	ti := res.Column("tag")
	for _, r := range res.Rows {
		if !strings.HasPrefix(r[ti].Value, "country:http://ex.org/") {
			t.Errorf("tag = %v", r[ti])
		}
	}
}

func TestExecAggregateArithmetic(t *testing.T) {
	st := testStore(t)
	// Ratio of two aggregates in one projection expression.
	res := runQuery(t, st, `SELECT ?d (SUM(?v) / COUNT(?v) AS ?mean) WHERE {
		?o <http://ex.org/dest> ?d .
		?o <http://ex.org/value> ?v .
	} GROUP BY ?d`)
	if res.Len() != 2 {
		t.Fatalf("groups = %d", res.Len())
	}
	means := map[string]float64{}
	for _, r := range res.Rows {
		n, _ := r[1].Numeric()
		means[r[0].Value] = n
	}
	// de: (300+100+250)/3 = 216.66..; fr: (200+50+10)/3 = 86.66..
	if m := means["http://ex.org/de"]; m < 216 || m > 217 {
		t.Errorf("de mean = %v", m)
	}
	if m := means["http://ex.org/fr"]; m < 86 || m > 87 {
		t.Errorf("fr mean = %v", m)
	}
}

func TestExecContextCancellation(t *testing.T) {
	// A store large enough that the cross-product query does real work.
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	var ts []rdf.Triple
	for i := 0; i < 700; i++ {
		ts = append(ts,
			rdf.NewTriple(ex(fmt.Sprintf("a%d", i)), ex("p"), ex(fmt.Sprintf("x%d", i%50))),
			rdf.NewTriple(ex(fmt.Sprintf("b%d", i)), ex("q"), ex(fmt.Sprintf("y%d", i%50))),
		)
	}
	if err := st.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)
	// Already-cancelled context: the heavy product query must abort.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := eng.QueryStringTimed(ctx, `SELECT (COUNT(*) AS ?n) WHERE {
		?a <http://ex.org/p> ?x .
		?b <http://ex.org/q> ?y .
	}`)
	if err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The same query succeeds with a live context.
	res, _, err := eng.QueryStringTimed(context.Background(), `SELECT (COUNT(*) AS ?n) WHERE {
		?a <http://ex.org/p> ?x .
		?b <http://ex.org/q> ?y .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].Numeric(); n != 490000 {
		t.Errorf("count = %v, want 490000", n)
	}
}

func TestExecDeadline(t *testing.T) {
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	var ts []rdf.Triple
	for i := 0; i < 2000; i++ {
		ts = append(ts, rdf.NewTriple(ex(fmt.Sprintf("a%d", i)), ex("p"), ex(fmt.Sprintf("x%d", i%10))))
	}
	if err := st.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, _, err := eng.QueryStringTimed(ctx, `SELECT (COUNT(*) AS ?n) WHERE {
		?a <http://ex.org/p> ?x . ?b <http://ex.org/p> ?y . ?c <http://ex.org/p> ?z .
	}`); err == nil {
		t.Fatal("deadline-expired query succeeded")
	}
}
