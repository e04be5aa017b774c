package sparql

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// This file checks the compiled expressions against the reference evaluator
// (reference_test.go): the same value, and the same error-or-not, for
// every expression, on ID rows, on term rows and under HAVING.

// exprPool holds the constants and row values of the generated
// expressions: numbers of every numeric datatype (an ill-formed one
// too), strings that are empty, numeric-looking, regex patterns good
// and bad, language-tagged and typed literals, booleans, IRIs and a
// blank node.
var exprPool = []rdf.Term{
	rdf.NewInteger(0), rdf.NewInteger(1), rdf.NewInteger(-3), rdf.NewInteger(10),
	rdf.NewTyped("1.0", rdf.XSDDecimal), rdf.NewTyped("2.5", rdf.XSDDecimal),
	rdf.NewDouble(0), rdf.NewDouble(1.5), rdf.NewTyped("abc", rdf.XSDInteger),
	rdf.NewString(""), rdf.NewString("0"), rdf.NewString("abc"), rdf.NewString("Hello World"),
	rdf.NewString("héllo"), rdf.NewString("^a"), rdf.NewString("l+"), rdf.NewString("["),
	rdf.NewString("i"), rdf.NewLangString("ciao", "it"), rdf.NewLangString("abc", "en"),
	rdf.NewBoolean(true), rdf.NewBoolean(false), rdf.NewTyped("1", rdf.XSDBoolean),
	rdf.NewTyped("2020", rdf.XSDGYear), rdf.NewIRI("http://e/a"), rdf.NewIRI("http://e/b"),
	rdf.NewBlank("b0"),
}

// exprGraph links the pool's IRIs and blank node to pool values over
// two predicates, for EXISTS to find something.
func exprGraph() []rdf.Triple {
	subjects := []rdf.Term{rdf.NewIRI("http://e/a"), rdf.NewIRI("http://e/b"), rdf.NewBlank("b0")}
	var ts []rdf.Triple
	for i, o := range exprPool {
		ts = append(ts, rdf.NewTriple(subjects[i%3], rdf.NewIRI(fmt.Sprintf("http://e/p%d", i%2)), o))
	}
	return ts
}

// exprGen draws random expressions over every operator and builtin.
type exprGen struct {
	rng  *rand.Rand
	aggs int // > 0: leaves may be one of that many aggregates (HAVING)
	seen map[string]bool
}

var (
	genVars   = []string{"a", "b", "c", "d", "u", "zz"} // u: a slot newer than the rows; zz: no slot
	exprOps   = []string{"||", "&&", "=", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/"}
	exprFuncs = func() []string {
		var names []string
		for name := range builtinFuncs {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}()
)

func (g *exprGen) leaf() Expr {
	switch n := g.rng.Intn(10); {
	case n < 4:
		return VarExpr{Name: genVars[g.rng.Intn(len(genVars))]}
	case n < 9 || g.aggs == 0:
		return ConstExpr{Term: exprPool[g.rng.Intn(len(exprPool))]}
	default:
		return aggRef(g.rng.Intn(g.aggs))
	}
}

func (g *exprGen) expr(depth int) Expr {
	if depth <= 0 || g.rng.Intn(5) == 0 {
		return g.leaf()
	}
	switch g.rng.Intn(10) {
	case 0:
		op := "!"
		if g.rng.Intn(2) == 0 {
			op = "-"
		}
		return UnaryExpr{Op: op, E: g.expr(depth - 1)}
	case 1, 2:
		op := exprOps[g.rng.Intn(len(exprOps))]
		g.seen[op] = true
		return BinaryExpr{Op: op, L: g.expr(depth - 1), R: g.expr(depth - 1)}
	case 3:
		list := make([]Expr, g.rng.Intn(4))
		for i := range list {
			list[i] = g.expr(depth - 1)
		}
		return InExpr{E: g.expr(depth - 1), List: list, Not: g.rng.Intn(2) == 0}
	case 4:
		e := ExistsExpr{Not: g.rng.Intn(2) == 0, Patterns: []TriplePattern{{
			S: NewVarNode([]string{"a", "b", "s"}[g.rng.Intn(3)]),
			P: NewTermNode(rdf.NewIRI(fmt.Sprintf("http://e/p%d", g.rng.Intn(2)))),
			O: NewVarNode("z"),
		}}}
		if g.rng.Intn(2) == 0 {
			e.Filters = []Expr{BinaryExpr{Op: "!=", L: VarExpr{Name: "z"}, R: g.leaf()}}
		}
		g.seen["EXISTS"] = true
		return e
	case 5:
		if g.aggs == 0 {
			return AggExpr{Fn: "SUM", Arg: VarExpr{Name: "a"}}
		}
		return aggRef(g.rng.Intn(g.aggs))
	default:
		return g.call(depth)
	}
}

// call draws a builtin call: the parser's arity where it fixes one,
// else any of zero to four arguments; REGEX and REPLACE mostly with a
// constant pattern, BOUND mostly over a variable.
func (g *exprGen) call(depth int) Expr {
	name := exprFuncs[g.rng.Intn(len(exprFuncs))]
	g.seen[name] = true
	n := builtinFuncs[name]
	if n < 0 {
		n = g.rng.Intn(5)
	}
	args := make([]Expr, n)
	for i := range args {
		args[i] = g.expr(depth - 1)
	}
	switch {
	case name == "BOUND" && g.rng.Intn(5) > 0:
		args[0] = VarExpr{Name: genVars[g.rng.Intn(len(genVars))]}
	case (name == "REGEX" || name == "REPLACE") && n >= 2 && g.rng.Intn(3) > 0:
		args[1] = ConstExpr{Term: exprPool[14+g.rng.Intn(4)]}
		if n == 3 && name == "REGEX" && g.rng.Intn(2) == 0 {
			args[2] = ConstExpr{Term: rdf.NewString("i")}
		}
	}
	return FuncExpr{Name: name, Args: args}
}

// diffRows is a set of rows the compiled closures and the reference
// evaluator see alike: ID rows of an executor over a store, the term
// rows they decode to, and the reference solutions.
type diffRows struct {
	ex   *executor
	g    *refGraph
	vars []string
	rows []row
}

// newDiffRows registers vars on an executor over st, which holds
// triples, and draws n rows binding each variable to a term of pool or
// leaving it unbound.
func newDiffRows(rng *rand.Rand, st *store.Store, triples []rdf.Triple, pool []rdf.Term, vars []string, n int) *diffRows {
	d := &diffRows{ex: NewEngine(st).newExecutor(nil, st.View(), nil), g: &refGraph{tail: triples, work: 1 << 40}, vars: vars}
	for _, v := range vars {
		d.ex.slot(v)
	}
	for ; n > 0; n-- {
		r := make(row, len(vars))
		for i := range r {
			if rng.Intn(4) > 0 {
				r[i] = st.Dict().Encode(pool[rng.Intn(len(pool))])
			}
		}
		d.rows = append(d.rows, r)
	}
	return d
}

// terms is r decoded, column per variable.
func (d *diffRows) terms(r row) []rdf.Term {
	t := make([]rdf.Term, len(d.vars))
	for i := range t {
		t[i] = d.ex.slotValue(r, i).Term
	}
	return t
}

func (d *diffRows) solution(r row) mapBinding {
	b := mapBinding{}
	for i, v := range d.vars {
		if t := d.ex.slotValue(r, i).Term; Bound(t) {
			b[v] = t
		}
	}
	return b
}

// sameResult reports "" when the compiled result matches the
// reference's, or the difference.
func sameResult(got Value, gerr error, want Value, werr error) string {
	switch {
	case (gerr != nil) != (werr != nil):
		return fmt.Sprintf("error %v, reference error %v", gerr, werr)
	case werr == nil && (got.Bound != want.Bound || got.Term != want.Term):
		return fmt.Sprintf("%v (bound %v), reference %v (bound %v)", got.Term, got.Bound, want.Term, want.Bound)
	}
	return ""
}

// check evaluates e, compiled for its value and for a filter, on every
// ID row and every term row, against the reference; it reports the
// first difference. When the reference walks more of the graph than
// its budget allows for an EXISTS, the expression is skipped.
func (d *diffRows) check(e Expr) string {
	value, cond := d.ex.compile(e), d.ex.compileCond(e)
	tc := termCompiler(d.vars)
	tvalue, tcond := tc.value(e), tc.cond(e)
	for _, r := range d.rows {
		b := d.solution(r)
		d.g.work, d.g.overflow = 1<<20, false
		want, werr := evalExpr(e, refEnv{d.g, refBinding(b)})
		wok, wcerr := evalBool(e, refEnv{d.g, refBinding(b)})
		if d.g.overflow {
			return ""
		}
		got, gerr := value(d.ex, r, nil)
		if msg := sameResult(got, gerr, want, werr); msg != "" {
			return fmt.Sprintf("ID row %v: %s", b, msg)
		}
		gok, gcerr := cond(d.ex, r, nil)
		if msg := sameResult(boolValue(gok), gcerr, boolValue(wok), wcerr); msg != "" {
			return fmt.Sprintf("ID row %v, as a filter: %s", b, msg)
		}
		t := d.terms(r)
		want, werr = evalExpr(e, b)
		got, gerr = tvalue(nil, nil, t)
		if msg := sameResult(got, gerr, want, werr); msg != "" {
			return fmt.Sprintf("term row %v: %s", b, msg)
		}
		wok, wcerr = evalBool(e, b)
		gok, gcerr = tcond(nil, nil, t)
		if msg := sameResult(boolValue(gok), gcerr, boolValue(wok), wcerr); msg != "" {
			return fmt.Sprintf("term row %v, as a filter: %s", b, msg)
		}
	}
	return ""
}

// checkHaving evaluates e as emit does — over a group's key columns
// then its aggregates' values — against the reference over a refGroup.
func (d *diffRows) checkHaving(e Expr, aggs []Value) string {
	c := compiler{cols: d.vars, aggBase: len(d.vars)}
	value, cond := c.value(e), c.cond(e)
	for _, r := range d.rows {
		b := d.solution(r)
		in := d.terms(r)
		for _, v := range aggs {
			in = append(in, v.Term)
		}
		g := refGroup{b, aggs}
		want, werr := evalExpr(e, g)
		got, gerr := value(nil, nil, in)
		if msg := sameResult(got, gerr, want, werr); msg != "" {
			return fmt.Sprintf("group %v %v: %s", b, aggs, msg)
		}
		wok, wcerr := evalBool(e, g)
		gok, gcerr := cond(nil, nil, in)
		if msg := sameResult(boolValue(gok), gcerr, boolValue(wok), wcerr); msg != "" {
			return fmt.Sprintf("group %v %v, as HAVING: %s", b, aggs, msg)
		}
	}
	return ""
}

func TestCompiledExprMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	triples := exprGraph()
	st := store.New()
	if err := st.AddAll(triples); err != nil {
		t.Fatal(err)
	}
	d := newDiffRows(rng, st, triples, exprPool, genVars[:4], 6)
	d.ex.slot("u")
	g := &exprGen{rng: rng, seen: map[string]bool{}}
	for trial := 0; trial < 10000; trial++ {
		e := g.expr(1 + rng.Intn(4))
		if msg := d.check(e); msg != "" {
			t.Fatalf("trial %d: %s\n%s", trial, e, msg)
		}
	}
	// HAVING: the same, with aggregates among the leaves, each bound to
	// a pool value or unbound (AVG or MIN of nothing).
	h := &exprGen{rng: rng, aggs: 3, seen: map[string]bool{}}
	for trial := 0; trial < 2000; trial++ {
		aggs := make([]Value, h.aggs)
		for i := range aggs {
			if rng.Intn(4) > 0 {
				aggs[i] = boundValue(exprPool[rng.Intn(len(exprPool))])
			}
		}
		e := h.expr(1 + rng.Intn(3))
		if msg := d.checkHaving(e, aggs); msg != "" {
			t.Fatalf("HAVING trial %d: %s\n%s", trial, e, msg)
		}
	}
	for _, name := range append(append(slices.Clone(exprOps), exprFuncs...), "EXISTS") {
		if !g.seen[name] {
			t.Errorf("the generator never drew %s", name)
		}
	}
}

// aggFoldSetup returns an executor over n observations in one group,
// the rows of the WHERE clause of ToSPARQL's five aggregates over them,
// and the compiled fold.
func aggFoldSetup(tb testing.TB, n int) (*executor, []row, *aggFold) {
	tb.Helper()
	st := store.New()
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		o := rdf.NewIRI(fmt.Sprintf("http://e/o%d", i))
		ts = append(ts,
			rdf.NewTriple(o, rdf.NewIRI("http://e/g"), rdf.NewIRI("http://e/g0")),
			rdf.NewTriple(o, rdf.NewIRI("http://e/v"), rdf.NewInteger(int64(i%97))))
	}
	if err := st.AddAll(ts); err != nil {
		tb.Fatal(err)
	}
	q, err := Parse(`SELECT ?g (COUNT(?v) AS ?n) (SUM(?v) AS ?s) (AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi)
		WHERE { ?o <http://e/g> ?g . ?o <http://e/v> ?v } GROUP BY ?g`)
	if err != nil {
		tb.Fatal(err)
	}
	eng := NewEngine(st)
	eng.Exec.Workers = 1
	ex := eng.newExecutor(nil, st.View(), nil)
	rows, err := ex.evalWhere(q.Where, 0)
	if err != nil || len(rows) != n {
		tb.Fatalf("%d rows, %v", len(rows), err)
	}
	f := ex.compileFold(newAggSpec(q))
	return ex, ex.extendRows(rows), f
}

// TestAggregateFoldAllocations: folding rows into a group allocates
// nothing per row, so ten times the rows cost the same allocations.
func TestAggregateFoldAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	ex, rows, f := aggFoldSetup(t, 10000)
	fold := func(n int) float64 {
		return testing.AllocsPerRun(5, func() { ex.foldRows(f, rows[:n]) })
	}
	if small, large := fold(1000), fold(10000); small != large {
		t.Fatalf("folding 1 000 rows allocates %v objects, 10 000 rows %v", small, large)
	}
}

func BenchmarkAggregateFold(b *testing.B) {
	ex, rows, f := aggFoldSetup(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.foldRows(f, rows)
	}
}

// BenchmarkFilter evaluates a compiled range-and-membership filter over
// the rows of a measure pattern.
func BenchmarkFilter(b *testing.B) {
	ex, rows, _ := aggFoldSetup(b, 10000)
	q, err := Parse(`ASK { ?o ?p ?v FILTER(?v > 20 && ?v < 80 && ?g IN (<http://e/g0>, <http://e/g1>)) }`)
	if err != nil {
		b.Fatal(err)
	}
	test := ex.compileCond(q.Where[1].(FilterElement).Expr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept := 0
		for _, r := range rows {
			if ok, err := test(ex, r, nil); err == nil && ok {
				kept++
			}
		}
		if kept == 0 {
			b.Fatal("the filter kept no row")
		}
	}
}
