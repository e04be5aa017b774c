package sparql

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"re2xolap/internal/corpus"
	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func patterns(q *Query) []TriplePattern {
	var out []TriplePattern
	for _, el := range q.Where {
		if tp, ok := el.(TriplePattern); ok {
			out = append(out, tp)
		}
	}
	return out
}

func TestParseBasicSelect(t *testing.T) {
	q := mustParse(t, `SELECT ?s ?o WHERE { ?s <http://ex.org/p> ?o . }`)
	if q.Ask || q.Distinct || q.Star {
		t.Error("unexpected flags")
	}
	if len(q.Select) != 2 || q.Select[0].Var != "s" || q.Select[1].Var != "o" {
		t.Errorf("Select = %v", q.Select)
	}
	ps := patterns(q)
	if len(ps) != 1 {
		t.Fatalf("patterns = %v", ps)
	}
	if !ps[0].S.IsVar || ps[0].P.Term.Value != "http://ex.org/p" || !ps[0].O.IsVar {
		t.Errorf("pattern = %v", ps[0])
	}
}

func TestParsePrefixes(t *testing.T) {
	q := mustParse(t, `PREFIX ex: <http://ex.org/>
SELECT ?s WHERE { ?s ex:p ex:o . ?s a ex:Class . }`)
	ps := patterns(q)
	if ps[0].P.Term.Value != "http://ex.org/p" {
		t.Errorf("prefixed predicate = %v", ps[0].P)
	}
	if ps[1].P.Term.Value != rdf.RDFType {
		t.Errorf("'a' predicate = %v", ps[1].P)
	}
	if ps[1].O.Term.Value != "http://ex.org/Class" {
		t.Errorf("class = %v", ps[1].O)
	}
}

func TestParsePropertyPath(t *testing.T) {
	q := mustParse(t, `SELECT ?x WHERE { ?obs <http://a>/<http://b>/<http://c> ?x . }`)
	ps := patterns(q)
	if len(ps) != 3 {
		t.Fatalf("path expanded to %d patterns, want 3", len(ps))
	}
	if !strings.HasPrefix(ps[0].O.Var, internalVarPrefix) {
		t.Errorf("intermediate var = %q", ps[0].O.Var)
	}
	if ps[0].O.Var != ps[1].S.Var || ps[1].O.Var != ps[2].S.Var {
		t.Error("path chain broken")
	}
	if ps[2].O.Var != "x" {
		t.Errorf("final object = %v", ps[2].O)
	}
}

func TestParseInversePath(t *testing.T) {
	q := mustParse(t, `SELECT ?x WHERE { ?m ^<http://p> ?x . }`)
	ps := patterns(q)
	if len(ps) != 1 {
		t.Fatalf("patterns = %v", ps)
	}
	// inverse: ?x <http://p> ?m
	if ps[0].S.Var != "x" || ps[0].O.Var != "m" {
		t.Errorf("inverse not swapped: %v", ps[0])
	}
}

func TestParseSemicolonComma(t *testing.T) {
	q := mustParse(t, `SELECT * WHERE { ?s <http://p> ?a , ?b ; <http://q> ?c . }`)
	ps := patterns(q)
	if len(ps) != 3 {
		t.Fatalf("got %d patterns, want 3: %v", len(ps), ps)
	}
	for _, tp := range ps {
		if tp.S.Var != "s" {
			t.Errorf("subject not shared: %v", tp)
		}
	}
}

func TestParseAggregates(t *testing.T) {
	q := mustParse(t, `SELECT ?d (SUM(?v) AS ?total) (COUNT(*) AS ?n) WHERE { ?o <http://dim> ?d . ?o <http://m> ?v . } GROUP BY ?d HAVING ((SUM(?v)) > 10) ORDER BY DESC(?total) LIMIT 5 OFFSET 2`)
	if !q.IsAggregate() {
		t.Fatal("IsAggregate = false")
	}
	if len(q.Select) != 3 || q.Select[1].Var != "total" {
		t.Errorf("Select = %v", q.Select)
	}
	agg, ok := q.Select[1].Expr.(AggExpr)
	if !ok || agg.Fn != "SUM" {
		t.Errorf("agg = %v", q.Select[1].Expr)
	}
	if _, ok := q.Select[2].Expr.(AggExpr); !ok {
		t.Errorf("count = %v", q.Select[2].Expr)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != "d" {
		t.Errorf("GroupBy = %v", q.GroupBy)
	}
	if len(q.Having) != 1 {
		t.Errorf("Having = %v", q.Having)
	}
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc {
		t.Errorf("OrderBy = %v", q.OrderBy)
	}
	if q.Limit != 5 || q.Offset != 2 {
		t.Errorf("Limit/Offset = %d/%d", q.Limit, q.Offset)
	}
}

func TestParseBareAggregate(t *testing.T) {
	// Paper Figure 2 style: SELECT ?origin ?dest SUM(?obsValue)
	q := mustParse(t, `SELECT ?origin ?dest SUM(?obsValue) WHERE {
		?obs <http://co>/<http://ic> ?origin .
		?obs <http://cd> ?dest .
		?obs <http://num> ?obsValue .
	} GROUP BY ?origin ?dest`)
	if len(q.Select) != 3 {
		t.Fatalf("Select = %v", q.Select)
	}
	if q.Select[2].Var != "sum_obsValue" {
		t.Errorf("auto agg name = %q", q.Select[2].Var)
	}
	if len(patterns(q)) != 4 { // path expands to 2
		t.Errorf("patterns = %v", patterns(q))
	}
}

func TestParseFilters(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE {
		?s <http://p> ?v .
		FILTER (?v > 10 && ?v <= 20 || ?v = 99)
		FILTER (CONTAINS(LCASE(STR(?s)), "abc"))
		FILTER (?v IN (1, 2, 3))
		FILTER (?v NOT IN (4, 5))
	}`)
	var filters []Expr
	for _, el := range q.Where {
		if f, ok := el.(FilterElement); ok {
			filters = append(filters, f.Expr)
		}
	}
	if len(filters) != 4 {
		t.Fatalf("filters = %v", filters)
	}
	v, kw, ok := textConstraint(filters[1])
	if !ok || v != "s" || kw != "abc" {
		t.Errorf("textConstraint = %q %q %v", v, kw, ok)
	}
	in, ok := filters[2].(InExpr)
	if !ok || in.Not || len(in.List) != 3 {
		t.Errorf("in = %v", filters[2])
	}
	notIn, ok := filters[3].(InExpr)
	if !ok || !notIn.Not {
		t.Errorf("not in = %v", filters[3])
	}
}

func TestParseValues(t *testing.T) {
	q := mustParse(t, `SELECT ?x WHERE {
		VALUES ?x { <http://a> <http://b> }
		VALUES (?y ?z) { (<http://c> "lit") (UNDEF 5) }
		?x <http://p> ?y .
	}`)
	var vals []ValuesElement
	for _, el := range q.Where {
		if v, ok := el.(ValuesElement); ok {
			vals = append(vals, v)
		}
	}
	if len(vals) != 2 {
		t.Fatalf("values = %v", vals)
	}
	if len(vals[0].Rows) != 2 || vals[0].Rows[0][0].Value != "http://a" {
		t.Errorf("values[0] = %+v", vals[0])
	}
	if vals[1].Rows[1][0] != nil {
		t.Error("UNDEF not nil")
	}
	if vals[1].Rows[1][1].Value != "5" {
		t.Errorf("numeric value = %v", vals[1].Rows[1][1])
	}
}

func TestParseOptional(t *testing.T) {
	q := mustParse(t, `SELECT ?s ?l WHERE {
		?s <http://p> ?o .
		OPTIONAL { ?s <http://label> ?l . FILTER (STRLEN(?l) > 0) }
	}`)
	var opts []OptionalElement
	for _, el := range q.Where {
		if o, ok := el.(OptionalElement); ok {
			opts = append(opts, o)
		}
	}
	if len(opts) != 1 || len(opts[0].Patterns) != 1 || len(opts[0].Filters) != 1 {
		t.Fatalf("optional = %+v", opts)
	}
}

func TestParseAsk(t *testing.T) {
	q := mustParse(t, `ASK { ?s <http://p> <http://o> . }`)
	if !q.Ask {
		t.Error("Ask = false")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT WHERE { ?s ?p ?o }`,
		`SELECT ?s { ?s ?p }`,
		`SELECT ?s WHERE { ?s ?p ?o`,
		`SELECT ?s WHERE { ?s ?p ?o . } GROUP BY`,
		`SELECT ?s WHERE { ?s ex:p ?o . }`,     // unknown prefix
		`SELECT ?s WHERE { ?s ?p ?o . } UNION`, // trailing junk
		`SELECT ?s WHERE { { ?s ?p ?o } UNION { OPTIONAL { ?s ?p ?o } } }`,
		`SELECT (SUM(?v) AS) WHERE { ?s ?p ?v }`,
		`INSERT DATA { <http://a> <http://b> <http://c> }`,
		`SELECT (AVG(*) AS ?x) WHERE { ?s ?p ?o }`,
	}
	for _, src := range bad {
		if q, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted: %v", src, q)
		}
	}
}

// TestParseOrderConditions: ORDER BY takes every SPARQL 1.1
// OrderCondition — a bracketed expression and a built-in call bare,
// not only a variable, ASC/DESC(…) or a bare aggregate — and the key
// round-trips through Query.String.
func TestParseOrderConditions(t *testing.T) {
	for src, want := range map[string]string{
		`SELECT ?s WHERE { ?s ?p ?o } ORDER BY (?o + ?o)`:                                 "ASC((?o + ?o))",
		`SELECT ?s WHERE { ?s ?p ?o } ORDER BY STR(?o)`:                                   "ASC(STR(?o))",
		`SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY (COUNT(?o))`: "ASC(COUNT(?o))",
		`SELECT ?s WHERE { ?s ?p ?o } ORDER BY NOT EXISTS { ?s ?q ?z }`:                   "ASC(NOT EXISTS { ?s ?q ?z . })",
		`SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s DESC(?o) LCASE(STR(?o)) LIMIT 2`:        "ASC(?s) DESC(?o) ASC(LCASE(STR(?o)))",
	} {
		q := mustParse(t, src)
		got := q.String()
		i := strings.Index(got, " ORDER BY ")
		if i < 0 {
			t.Errorf("%s: no ORDER BY in %s", src, got)
			continue
		}
		if got = strings.TrimSuffix(got[i+len(" ORDER BY "):], " LIMIT 2"); got != want {
			t.Errorf("%s: ORDER BY %s, want %s", src, got, want)
		}
		if _, err := Parse(q.String()); err != nil {
			t.Errorf("%s: re-parse: %v", src, err)
		}
	}
	for _, src := range []string{
		`SELECT ?s WHERE { ?s ?p ?o } ORDER BY`,
		`SELECT ?s WHERE { ?s ?p ?o } ORDER BY ASC ?o`,
		`SELECT ?s WHERE { ?s ?p ?o } ORDER BY <http://t/f>(?o)`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

// TestParseAggregatePlacement: SPARQL 1.1 (§19.8) admits aggregates in
// SELECT, HAVING and ORDER BY only, never one inside another. Each
// misplaced aggregate is a syntax error at the offset of the
// expression that holds it.
func TestParseAggregatePlacement(t *testing.T) {
	for _, c := range []struct{ src, at string }{
		{`SELECT ?s WHERE { ?s ?p ?o FILTER (COUNT(?o) > 0) }`, `(COUNT`},
		{`SELECT ?s ?c WHERE { ?s ?p ?o BIND (COUNT(?o) AS ?c) }`, `COUNT(?o) AS`},
		{`SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s HAVING (EXISTS { ?s ?p ?x FILTER (COUNT(?x) > 0) })`, `(COUNT(?x)`},
		{`SELECT (SUM(COUNT(?o)) AS ?n) WHERE { ?s ?p ?o }`, `SUM(`},
		{`SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s ORDER BY MAX(COUNT(?o))`, `MAX(`},
		{`SELECT ?s WHERE { ?s ?p ?o OPTIONAL { ?s ?q ?v FILTER (SUM(?v) > 1) } }`, `(SUM`},
	} {
		_, err := Parse(c.src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("Parse(%q) = %v, want a syntax error", c.src, err)
			continue
		}
		if want := strings.Index(c.src, c.at); se.Pos != want {
			t.Errorf("Parse(%q): error at offset %d, want %d (%s)", c.src, se.Pos, want, se.Msg)
		}
	}
	for _, src := range []string{
		`SELECT (SUM(?o) + COUNT(?o) AS ?n) WHERE { ?s ?p ?o }`,
		`SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s HAVING (COUNT(?o) > 1) ORDER BY DESC(SUM(?o))`,
		`SELECT ?s WHERE { ?s ?p ?o { SELECT (COUNT(?x) AS ?n) WHERE { ?x ?p ?y } } }`,
	} {
		mustParse(t, src)
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	srcs := []string{
		`SELECT ?origin ?dest (SUM(?v) AS ?sum_v) WHERE { ?obs <http://co> ?origin . ?obs <http://cd> ?dest . ?obs <http://m> ?v . } GROUP BY ?origin ?dest`,
		`SELECT DISTINCT ?s WHERE { ?s <http://p> "x"@en . FILTER (?s != <http://a>) } LIMIT 3`,
		`ASK { <http://s> <http://p> ?o . }`,
		`SELECT ?s WHERE { ?s <http://p> ?v . } ORDER BY DESC(?v) LIMIT 10 OFFSET 5`,
		`SELECT ?s ?l WHERE { ?s <http://p> ?o . OPTIONAL { ?s <http://l> ?l . } }`,
		`SELECT ?x WHERE { VALUES (?x) { (<http://a>) (UNDEF) } }`,
	}
	for _, src := range srcs {
		q1 := mustParse(t, src)
		ser := q1.String()
		q2, err := Parse(ser)
		if err != nil {
			t.Errorf("re-parse of %q failed: %v\nserialized: %s", src, err, ser)
			continue
		}
		if q2.String() != ser {
			t.Errorf("serialization not stable:\n1st: %s\n2nd: %s", ser, q2.String())
		}
	}
}

func TestParseTypedAndLangLiterals(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE {
		?s <http://p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .
		?s <http://q> "hi"@en .
		?s <http://r> 3.5 .
		?s <http://t> true .
	}`)
	ps := patterns(q)
	if ps[0].O.Term != rdf.NewTyped("5", rdf.XSDInteger) {
		t.Errorf("typed = %v", ps[0].O.Term)
	}
	if ps[1].O.Term != rdf.NewLangString("hi", "en") {
		t.Errorf("lang = %v", ps[1].O.Term)
	}
	if ps[2].O.Term != rdf.NewTyped("3.5", rdf.XSDDouble) {
		t.Errorf("double = %v", ps[2].O.Term)
	}
	if ps[3].O.Term != rdf.NewBoolean(true) {
		t.Errorf("bool = %v", ps[3].O.Term)
	}
}

// TestParseNeverPanics feeds mangled fragments of valid queries to the
// parser; any outcome except a panic is acceptable.
func TestParseNeverPanics(t *testing.T) {
	base := `PREFIX ex: <http://ex.org/> SELECT ?a (SUM(?v) AS ?s) WHERE { ?a ex:p/ex:q ?b . FILTER (?v > 10 && CONTAINS(STR(?b), "x")) VALUES ?a { ex:m } OPTIONAL { ?a ex:l ?l . } { ?a ex:r ?c } UNION { ?a ex:t ?c } } GROUP BY ?a HAVING ((SUM(?v)) < 5) ORDER BY DESC(?s) LIMIT 3 OFFSET 1`
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("parser panicked: %v", r)
		}
	}()
	for cut := 0; cut <= len(base); cut += 3 {
		_, _ = Parse(base[:cut])
		_, _ = Parse(base[cut:])
	}
	mangled := []string{
		strings.ReplaceAll(base, "{", "}"),
		strings.ReplaceAll(base, "?", "$"),
		strings.ReplaceAll(base, "(", ""),
		strings.ReplaceAll(base, "<", ""),
		strings.Repeat("(", 500),
		strings.Repeat("{ ?a ?b ?c . ", 100),
		"\x00\x01\x02",
		`SELECT ?x WHERE { ?x <http://p> "unterminated`,
	}
	for _, src := range mangled {
		_, _ = Parse(src)
	}
}

func TestParseConstruct(t *testing.T) {
	q := mustParse(t, `PREFIX v: <http://v/>
CONSTRUCT { ?e a v:Obs . ?e v:dim ?d . } WHERE { ?e <http://p> ?d . }`)
	if q.Construct == nil || len(q.Construct) != 2 {
		t.Fatalf("template = %v", q.Construct)
	}
	if q.Construct[0].P.Term.Value != rdf.RDFType {
		t.Errorf("template 'a' not expanded: %v", q.Construct[0].P)
	}
	// Serialization round trip.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, q.String())
	}
	if len(q2.Construct) != 2 {
		t.Errorf("round trip template = %v", q2.Construct)
	}
}

func TestParseConstructErrors(t *testing.T) {
	bad := []string{
		`CONSTRUCT { ?e <http://a>/<http://b> ?d } WHERE { ?e ?p ?d }`, // path in template
		`CONSTRUCT { ?e <http://a> ?d WHERE { ?e ?p ?d }`,              // unterminated
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

// FuzzParse: the lexer and parser never panic, and every expression of
// a query they accept that the executor evaluates per row — FILTERs
// (OPTIONAL and UNION ones too), BINDs, projected expressions, HAVING
// and ORDER BY keys — evaluates, compiled, over rows of a small datagen
// store exactly as the reference evaluator does. Seeds: the 35-query
// corpus and queries built around the differential test's generated
// expressions.
func FuzzParse(f *testing.F) {
	for _, c := range corpus.Queries() {
		f.Add(c.Query)
	}
	g := &exprGen{rng: rand.New(rand.NewSource(1)), seen: map[string]bool{}}
	for i := 0; i < 64; i++ {
		e := g.expr(3)
		f.Add(fmt.Sprintf("SELECT ?a (%s AS ?x) WHERE { ?a ?p ?b . BIND (%s AS ?y) FILTER (%s) } ORDER BY DESC(%s)", e, e, e, e))
	}
	triples := bgpCube()
	st := store.New()
	if err := st.AddAll(triples); err != nil {
		f.Fatal(err)
	}
	var pool []rdf.Term
	for _, tr := range triples {
		pool = append(pool, tr.S, tr.O)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		exprs := queryExprs(q.Where, nil)
		for _, it := range q.Select {
			if it.Expr != nil {
				exprs = append(exprs, it.Expr)
			}
		}
		exprs = append(exprs, q.Having...)
		for _, o := range q.OrderBy {
			exprs = append(exprs, o.Expr)
		}
		var vars []string
		for _, e := range exprs {
			for _, v := range exprVars(e, nil, true) {
				if !slices.Contains(vars, v) {
					vars = append(vars, v)
				}
			}
		}
		d := newDiffRows(rand.New(rand.NewSource(int64(len(src)))), st, triples, pool, vars, 4)
		for _, e := range exprs {
			// An EXISTS group of many patterns can be a cartesian product
			// the reference walks for too long.
			costly := false
			WalkExpr(e, func(x Expr) bool {
				ex, ok := x.(ExistsExpr)
				costly = costly || ok && len(ex.Patterns) > 2
				return !ok
			})
			if costly {
				continue
			}
			if msg := d.check(e); msg != "" {
				t.Fatalf("%s\n%s\n%s", src, e, msg)
			}
		}
	})
}

// queryExprs appends the filter and BIND expressions of a group
// pattern, nested groups included, to dst.
func queryExprs(elems []PatternElement, dst []Expr) []Expr {
	for _, el := range elems {
		switch x := el.(type) {
		case FilterElement:
			dst = append(dst, x.Expr)
		case BindElement:
			dst = append(dst, x.Expr)
		case OptionalElement:
			dst = append(dst, x.Filters...)
		case UnionElement:
			for _, br := range x.Branches {
				dst = queryExprs(br, dst)
			}
		}
	}
	return dst
}
