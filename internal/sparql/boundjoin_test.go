package sparql

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"re2xolap/internal/rdf"
)

func mustPlanBound(t *testing.T, text string) *BoundJoinPlan {
	t.Helper()
	q, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := PlanBoundJoin(q)
	if !ok {
		t.Fatalf("PlanBoundJoin rejected %s", text)
	}
	return p
}

// TestPlanBoundJoinRejections pins the class boundary: every shape
// the bound join cannot execute exactly must be rejected (the caller
// falls back to gather, which is always exact).
func TestPlanBoundJoinRejections(t *testing.T) {
	for _, c := range []struct{ name, query string }{
		{"single-group", `SELECT ?s WHERE { ?s <http://t/a> ?x . ?s <http://t/b> ?y }`},
		{"disconnected", `SELECT ?a ?b WHERE { ?a <http://t/p> ?x . ?b <http://t/q> ?y }`},
		{"optional", `SELECT ?s WHERE { ?s <http://t/a> ?r . ?r <http://t/b> ?c . OPTIONAL { ?s <http://t/v> ?v } }`},
		{"union", `SELECT ?s WHERE { { ?s <http://t/a> ?r . ?r <http://t/b> ?c } UNION { ?s <http://t/d> ?e } }`},
		{"values", `SELECT ?s WHERE { VALUES ?r { <http://t/x> } ?s <http://t/a> ?r . ?r <http://t/b> ?c }`},
		{"bind", `SELECT ?s WHERE { ?s <http://t/a> ?r . ?r <http://t/b> ?c . BIND(STR(?c) AS ?cs) }`},
		{"closure", `SELECT ?s WHERE { ?s <http://t/a> ?r . ?r <http://t/b>+ ?c }`},
		{"subselect", `SELECT ?s WHERE { { SELECT ?r WHERE { ?r <http://t/b> ?c } } ?s <http://t/a> ?r }`},
		{"exists-filter", `SELECT ?s WHERE { ?s <http://t/a> ?r . ?r <http://t/b> ?c . FILTER EXISTS { ?s <http://t/v> ?v } }`},
		{"aggregate", `SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <http://t/a> ?r . ?r <http://t/b> ?c } GROUP BY ?c`},
		{"construct", `CONSTRUCT { ?s <http://t/p> ?c } WHERE { ?s <http://t/a> ?r . ?r <http://t/b> ?c }`},
		{"select-star", `SELECT * WHERE { ?s <http://t/a> ?r . ?r <http://t/b> ?c }`},
	} {
		t.Run(c.name, func(t *testing.T) {
			q, err := Parse(c.query)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := PlanBoundJoin(q); ok {
				t.Fatalf("PlanBoundJoin accepted out-of-class query %s", c.query)
			}
		})
	}
}

// TestPlanBoundJoinOrdering checks the bound side runs first: the
// statically more selective group is fetched unconstrained and its
// bindings constrain the other side, regardless of pattern order in
// the text.
func TestPlanBoundJoinOrdering(t *testing.T) {
	// Group ?a: constant predicate (hint 32). Group <c>: constant
	// subject (hint 2) — must be step 0 even though it appears second.
	p := mustPlanBound(t, `SELECT ?r WHERE { ?a <http://t/p> ?r . <http://t/c> <http://t/q> ?a }`)
	if p.Steps() != 2 {
		t.Fatalf("steps = %d, want 2", p.Steps())
	}
	if g := p.Groups()[0]; g.Patterns[0].S.IsVar {
		t.Fatalf("step 0 fetches the variable-subject group; want the constant-subject one")
	}
	if jv := p.JoinVars(1); len(jv) != 1 || jv[0] != "a" {
		t.Fatalf("step 1 join vars = %v, want [a]", jv)
	}

	// Pushed filters count as extra constraints and win ties: the
	// filtered group goes first.
	p = mustPlanBound(t, `SELECT ?s ?c WHERE { ?s <http://t/p> ?r . ?r <http://t/q> ?c . FILTER(?c = <http://t/x>) }`)
	if g := p.Groups()[0]; g.Patterns[0].S.Var != "r" {
		t.Fatalf("filtered group should fetch first, got subject %v", g.Patterns[0].S)
	}
	if len(p.Groups()[0].Filters) != 1 || len(p.Residual()) != 0 {
		t.Fatalf("filter not pushed into its covering group")
	}

	// A filter spanning groups stays residual.
	p = mustPlanBound(t, `SELECT ?s ?c WHERE { ?s <http://t/p> ?r . ?r <http://t/q> ?c . FILTER(?s != ?c) }`)
	if len(p.Residual()) != 1 {
		t.Fatalf("cross-group filter should be residual, got %d residuals", len(p.Residual()))
	}
}

// TestBoundJoinStepQueryDeterminism checks the generated fetch texts
// are a function of the accumulated solution set alone: arrival
// order, duplication, and shard split must not change a byte, and
// chunking partitions the sorted distinct bindings.
func TestBoundJoinStepQueryDeterminism(t *testing.T) {
	text := `SELECT ?s ?c WHERE { ?s <http://t/p> ?r . ?r <http://t/q> ?c }`
	term := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	row := func(names ...string) []rdf.Term {
		out := make([]rdf.Term, len(names))
		for i, n := range names {
			out[i] = term(n)
		}
		return out
	}
	step0 := func(rows ...[]rdf.Term) *Results {
		return &Results{Vars: []string{"s", "r"}, Rows: rows}
	}

	run := func(batches []*Results, chunk int) []string {
		p := mustPlanBound(t, text)
		e := p.NewExec()
		if got := e.StepQueries(chunk); len(got) != 1 || strings.Contains(got[0], "VALUES") {
			t.Fatalf("step 0 queries = %v, want one unconstrained query", got)
		}
		for _, b := range batches {
			if err := e.Feed(b); err != nil {
				t.Fatal(err)
			}
		}
		e.EndStep()
		return e.StepQueries(chunk)
	}

	// Same solution set, three arrival shapes: one batch in order, one
	// batch shuffled with a duplicate binding, split across "shards".
	a := run([]*Results{step0(row("s1", "r1"), row("s2", "r2"), row("s3", "r1"))}, 0)
	b := run([]*Results{step0(row("s3", "r1"), row("s1", "r1"), row("s2", "r2"))}, 0)
	c := run([]*Results{step0(row("s2", "r2")), step0(row("s1", "r1"), row("s3", "r1"))}, 0)
	if len(a) != 1 {
		t.Fatalf("unchunked step 1 produced %d queries, want 1", len(a))
	}
	for i, other := range [][]string{b, c} {
		if a[0] != other[0] {
			t.Fatalf("arrival shape %d changed the fetch text:\n%s\nvs\n%s", i, other[0], a[0])
		}
	}
	// 2 distinct ?r bindings at chunk=1: two texts, each with a VALUES
	// block, in sorted order.
	chunked := run([]*Results{step0(row("s1", "r1"), row("s2", "r2"), row("s3", "r1"))}, 1)
	if len(chunked) != 2 {
		t.Fatalf("chunk=1 over 2 distinct bindings produced %d queries, want 2", len(chunked))
	}
	for _, q := range chunked {
		if !strings.Contains(q, "VALUES") {
			t.Fatalf("chunked fetch lacks VALUES block: %s", q)
		}
	}
	if !strings.Contains(chunked[0], "r1") || !strings.Contains(chunked[1], "r2") {
		t.Fatalf("chunks not in canonical binding order: %v", chunked)
	}
}

// TestBoundJoinExecBagSemantics checks the streamed hash join keeps
// exact bag multiplicities: duplicate accumulated rows each join with
// every matching probe row.
func TestBoundJoinExecBagSemantics(t *testing.T) {
	p := mustPlanBound(t, `SELECT ?s ?c WHERE { ?s <http://t/p> ?r . ?r <http://t/q> ?c } ORDER BY ?s ?c`)
	e := p.NewExec()
	term := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }

	e.StepQueries(0)
	// Two different subjects bound to the same ?r: the r1 binding ships
	// once but both rows must multiply with its probe matches.
	if err := e.Feed(&Results{Vars: []string{"s", "r"}, Rows: [][]rdf.Term{
		{term("s1"), term("r1")},
		{term("s2"), term("r1")},
	}}); err != nil {
		t.Fatal(err)
	}
	e.EndStep()

	if got := e.StepQueries(0); len(got) != 1 {
		t.Fatalf("step 1: %d queries, want 1", len(got))
	}
	if e.BindingsShipped() != 1 {
		t.Fatalf("shipped %d bindings, want 1 distinct", e.BindingsShipped())
	}
	// The probe side answers two ?c values for r1.
	if err := e.Feed(&Results{Vars: []string{"r", "c"}, Rows: [][]rdf.Term{
		{term("r1"), term("c1")},
		{term("r1"), term("c2")},
	}}); err != nil {
		t.Fatal(err)
	}
	e.EndStep()

	res, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("join produced %d rows, want 2x2 = 4", res.Len())
	}
	want := [][2]string{
		{"http://t/s1", "http://t/c1"}, {"http://t/s1", "http://t/c2"},
		{"http://t/s2", "http://t/c1"}, {"http://t/s2", "http://t/c2"},
	}
	for i, w := range want {
		if res.Rows[i][0].Value != w[0] || res.Rows[i][1].Value != w[1] {
			t.Fatalf("row %d = %v, want %v", i, res.Rows[i], w)
		}
	}

	// Empty() short-circuits once a committed step leaves no rows.
	p2 := mustPlanBound(t, `SELECT ?s ?c WHERE { ?s <http://t/p> ?r . ?r <http://t/q> ?c }`)
	e2 := p2.NewExec()
	e2.StepQueries(0)
	e2.EndStep()
	if !e2.Empty() {
		t.Fatal("empty step 0 relation not reported")
	}
	if qs := e2.StepQueries(0); qs != nil {
		t.Fatalf("empty relation still produced %d step queries", len(qs))
	}
}

// TestBoundJoinFinalizeCut holds the bound join's ordered-LIMIT
// finalize — ORDER BY keys read off the joined rows, lines projected
// only when a tie or the answer needs them — to the full path: the same
// join finalized without LIMIT and OFFSET, then cut. The queries cover
// the cut with plain and expression projections and the shapes that
// keep the full path (an ORDER BY over an unprojected or computed
// column, DISTINCT); the data has order-key ties, xsd:string twins and
// repeated rows.
func TestBoundJoinFinalizeCut(t *testing.T) {
	const body = `WHERE { ?s <http://t/p> ?r . ?r <http://t/q> ?c }`
	selects := []string{
		`SELECT ?s ?c ` + body + ` ORDER BY ?c`,
		`SELECT ?c ?s ` + body + ` ORDER BY DESC(?c) ?s`,
		`SELECT ?s (STR(?c) AS ?cs) ` + body + ` ORDER BY ?s`,
		`SELECT ?s (STR(?c) AS ?cs) ` + body + ` ORDER BY ?cs`,
		`SELECT ?s ?r ` + body + ` ORDER BY ?c`,
		`SELECT ?s ?cs ` + body + ` ORDER BY ?cs`,
		`SELECT ?s ?c ` + body,
		`SELECT DISTINCT ?c ` + body + ` ORDER BY ?c`,
	}
	objects := []rdf.Term{
		rdf.NewString("x"), rdf.NewTyped("x", rdf.XSDString), rdf.NewInteger(3),
		rdf.NewTyped("3.0", rdf.XSDDecimal), rdf.NewIRI("http://t/c"), rdf.NewLangString("x", "en"),
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		var left, right [][]rdf.Term // (s, r) and (r, c) rows
		for n := rng.Intn(60); n > 0; n-- {
			left = append(left, []rdf.Term{rdf.NewIRI(fmt.Sprintf("http://t/s%d", rng.Intn(20))), rdf.NewIRI(fmt.Sprintf("http://t/r%d", rng.Intn(6)))})
		}
		for n := rng.Intn(15); n > 0; n-- {
			right = append(right, []rdf.Term{rdf.NewIRI(fmt.Sprintf("http://t/r%d", rng.Intn(6))), objects[rng.Intn(len(objects))]})
		}
		run := func(text string) *Results {
			p := mustPlanBound(t, text)
			e := p.NewExec()
			for step, rows := range [][][]rdf.Term{left, right} {
				e.StepQueries(0)
				// The shard answer's columns are the group's variables.
				cols := [][]string{{"s", "r"}, {"r", "c"}}[step]
				res := &Results{Vars: p.Groups()[step].Vars}
				for _, r := range rows {
					line := make([]rdf.Term, len(res.Vars))
					for i, v := range res.Vars {
						line[i] = r[slices.Index(cols, v)]
					}
					res.Rows = append(res.Rows, line)
				}
				if err := e.Feed(res); err != nil {
					t.Fatal(err)
				}
				e.EndStep()
			}
			res, err := e.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		for _, text := range selects {
			full := run(text)
			q, err := Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			q.Limit, q.Offset = rng.Intn(len(full.Rows)+2), rng.Intn(3)
			cut := fmt.Sprintf("%s OFFSET %d LIMIT %d", text, q.Offset, q.Limit)
			want := window(q, full.Rows)
			got := run(cut)
			if !slices.Equal(got.Vars, full.Vars) {
				t.Fatalf("%s: header %v, want %v", cut, got.Vars, full.Vars)
			}
			if g, w := rowStrings(got), rowStrings(&Results{Rows: want}); !slices.Equal(g, w) {
				t.Fatalf("trial %d: %s\n got %q\nwant %q", trial, cut, g, w)
			}
		}
	}
}
