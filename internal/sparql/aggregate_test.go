package sparql

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// emitSetup folds n observations, one group each, under ToSPARQL's
// five aggregates and one HAVING, and returns the spec and, for each
// size in sizes, the table of the first size groups.
func emitSetup(tb testing.TB, n int, sizes ...int) (*aggSpec, []*aggTable) {
	tb.Helper()
	st := store.New()
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		o := rdf.NewIRI(fmt.Sprintf("http://e/o%d", i))
		v := rdf.NewInteger(int64(1000 + i))
		if i%2 == 1 {
			v = rdf.NewDouble(float64(i) + 0.5)
		}
		ts = append(ts,
			rdf.NewTriple(o, rdf.NewIRI("http://e/g"), rdf.NewIRI(fmt.Sprintf("http://e/g%d", i))),
			rdf.NewTriple(o, rdf.NewIRI("http://e/v"), v))
	}
	if err := st.AddAll(ts); err != nil {
		tb.Fatal(err)
	}
	q, err := Parse(`SELECT ?g (SUM(?v) AS ?s) (AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (COUNT(?v) AS ?n)
		WHERE { ?o <http://e/g> ?g . ?o <http://e/v> ?v } GROUP BY ?g HAVING (SUM(?v) > 3)`)
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
	rows = ex.extendRows(rows)
	var tabs []*aggTable
	for _, size := range sizes {
		tabs = append(tabs, ex.foldRows(f, rows[:size]))
	}
	return f.spec, tabs
}

// TestAggregateEmitAllocations: emitting a group allocates nothing of
// its own — its line comes from the answer's slab, its numbers from
// the answer's arena — so ten times the groups cost the same
// allocations, up to the growth of those two.
func TestAggregateEmitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	spec, tabs := emitSetup(t, 10000, 1000, 10000)
	noErr := func() error { return nil }
	emits := make([]float64, len(tabs))
	for i, tab := range tabs {
		res, err := spec.emit(tab, noErr, true)
		if err != nil || len(res.Rows) < len(tab.order)*9/10 {
			t.Fatalf("%d groups: %v rows kept, %v", len(tab.order), res, err)
		}
		emits[i] = testing.AllocsPerRun(5, func() { spec.emit(tab, noErr, true) })
	}
	groups := float64(len(tabs[1].order) - len(tabs[0].order))
	if perGroup := (emits[1] - emits[0]) / groups; perGroup >= 0.01 {
		t.Fatalf("emitting 1 000 groups allocates %v objects, 10 000 groups %v: %.3f per group",
			emits[0], emits[1], perGroup)
	}
}

func BenchmarkAggregateEmit(b *testing.B) {
	spec, tabs := emitSetup(b, 1000, 1000)
	noErr := func() error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.emit(tabs[0], noErr, true)
	}
}

// refNumber is the reference rendering of a computed number.
func refNumber(f float64) rdf.Term {
	if f == float64(int64(f)) && f >= -1e15 && f <= 1e15 {
		return rdf.NewInteger(int64(f))
	}
	return rdf.NewDouble(f)
}

// refGroupAggregate computes aggregate a over one group's solutions
// independently of the fold: COUNT, SUM, AVG, MIN and MAX (over a pool
// in which orderLess ties no two distinct terms).
func refGroupAggregate(a AggExpr, sols []refBinding) Value {
	var vals []rdf.Term
	for _, s := range sols {
		if a.Arg == nil {
			vals = append(vals, rdf.NewString("row"))
		} else if t, ok := s[a.Arg.(VarExpr).Name]; ok {
			vals = append(vals, t)
		}
	}
	sum, n := 0.0, 0
	for _, t := range vals {
		if f, ok := t.Numeric(); ok {
			sum, n = sum+f, n+1
		}
	}
	switch a.Fn {
	case "COUNT":
		return boundValue(refNumber(float64(len(vals))))
	case "SUM":
		return boundValue(refNumber(sum))
	case "AVG":
		if n > 0 {
			return boundValue(refNumber(sum / float64(n)))
		}
	case "MIN", "MAX":
		if len(vals) > 0 {
			best := vals[0]
			for _, t := range vals[1:] {
				if c := orderCompare(boundValue(t), boundValue(best)); a.Fn == "MIN" && c < 0 || a.Fn == "MAX" && c > 0 {
					best = t
				}
			}
			return boundValue(best)
		}
	}
	return Value{}
}

// refGroupRows answers q — GROUP BY ?g, HAVING and a projection of ?g,
// aggregates and expressions over them — by evaluating its resolved
// expressions with the reference evaluator over each group's reference
// aggregates. An expression that errors leaves its cell unbound; a
// HAVING that errors drops the group. The rows come sorted.
func refGroupRows(q *Query, sols []refBinding) []string {
	aggs, idx := collectAggs(q)
	groups := map[rdf.Term][]refBinding{}
	for _, s := range sols {
		groups[s["g"]] = append(groups[s["g"]], s)
	}
	var out []string
groups:
	for g, members := range groups {
		vals := make([]Value, len(aggs))
		for i, a := range aggs {
			vals[i] = refGroupAggregate(a, members)
		}
		b := refGroup{mapBinding{}, vals}
		if Bound(g) {
			b.binding = mapBinding{"g": g}
		}
		for _, h := range q.Having {
			if ok, err := evalBool(resolveAggregates(h, idx), b); err != nil || !ok {
				continue groups
			}
		}
		line := make([]rdf.Term, len(q.Select))
		for i, it := range q.Select {
			e := Expr(VarExpr{Name: it.Var})
			if it.Expr != nil {
				e = resolveAggregates(it.Expr, idx)
			}
			if v, err := evalExpr(e, b); err == nil {
				line[i] = v.Term
			}
		}
		out = append(out, rowStrings(&Results{Rows: [][]rdf.Term{line}})...)
	}
	slices.Sort(out)
	return out
}

// havingGen draws expressions over a group's aggregates and key that
// read an aggregate as a number (arithmetic, comparisons with numbers)
// and as a term (STR, DATATYPE, CONCAT, IF, COALESCE, IN, BOUND,
// comparisons with strings and with each other).
type havingGen struct{ rng *rand.Rand }

var (
	havingAggs   = []string{"COUNT(?v)", "SUM(?v)", "AVG(?v)", "MIN(?v)", "MAX(?v)", "COUNT(*)"}
	havingConsts = []string{"0", "1", "2.5", "-3", "1e300", `"5"`, `"abc"`, `""`, `"2"^^<http://www.w3.org/2001/XMLSchema#integer>`}
	havingCmps   = []string{"=", "!=", "<", ">", "<=", ">="}
)

func (g havingGen) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

func (g havingGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(6) {
		case 0:
			return "?g"
		case 1:
			return g.pick(havingConsts)
		}
		return g.pick(havingAggs)
	}
	d := depth - 1
	switch g.rng.Intn(10) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", g.expr(d), g.pick([]string{"+", "-", "*", "/"}), g.expr(d))
	case 1:
		return fmt.Sprintf("STR(%s)", g.expr(d))
	case 2:
		return fmt.Sprintf("DATATYPE(%s)", g.expr(d))
	case 3:
		return fmt.Sprintf("CONCAT(STR(%s), %s)", g.expr(d), g.pick([]string{`"|"`, "STR(?g)"}))
	case 4:
		return fmt.Sprintf("IF(%s, %s, %s)", g.cond(d), g.expr(d), g.expr(d))
	case 5:
		return fmt.Sprintf("COALESCE(%s, %s)", g.expr(d), g.expr(d))
	case 6:
		return fmt.Sprintf("(-%s)", g.expr(d))
	}
	return g.cond(d)
}

func (g havingGen) cond(depth int) string {
	d := depth - 1
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("BOUND(%s)", g.pick(havingAggs))
	case 1:
		return fmt.Sprintf("!BOUND(%s)", g.pick(havingAggs))
	case 2:
		return fmt.Sprintf("(%s IN (%s, %s))", g.expr(d), g.pick(havingConsts), g.expr(d))
	case 3:
		if depth > 0 {
			return fmt.Sprintf("(%s %s %s)", g.cond(d), g.pick([]string{"&&", "||"}), g.cond(d))
		}
	case 4:
		return fmt.Sprintf("!(%s)", g.cond(d))
	}
	// A comparison, mostly of an aggregate with a number or a string.
	l := g.pick(havingAggs)
	if g.rng.Intn(3) == 0 {
		l = g.expr(d)
	}
	return fmt.Sprintf("(%s %s %s)", l, g.pick(havingCmps), g.expr(d))
}

// TestHavingAndProjectionOverAggregatesMatchReference runs generated
// HAVING conditions and projected expressions over aggregates through
// the engine at 1 and 4 workers and through the partial-aggregate
// merge over 1, 2 and 3 shards, against the reference evaluator over
// independently computed aggregates. The groups include ones with no
// numeric value and ones with no value at all. Ordered, limited
// variants check emit's cut against ordering the whole answer.
func TestHavingAndProjectionOverAggregatesMatchReference(t *testing.T) {
	const where = `WHERE { ?s <http://r/group> ?g . OPTIONAL { ?s <http://r/val> ?v } }`
	// What HAVING sees for an AVG over no numeric value: an unbound
	// value. A comparison with it errors and drops the group; BOUND of
	// it is false.
	pinned := map[string][]string{
		`SELECT ?g (AVG(?v) AS ?a) ` + where + ` GROUP BY ?g HAVING (AVG(?v) > -100)`: {
			`<http://r/g0> | "1"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		`SELECT ?g (AVG(?v) AS ?a) ` + where + ` GROUP BY ?g HAVING (!BOUND(AVG(?v)))`: {
			"<http://r/none> | ", "<http://r/strings> | "},
		`SELECT ?g (STR(SUM(?v)) AS ?s) (DATATYPE(AVG(?v)) AS ?t) ` + where + ` GROUP BY ?g HAVING (SUM(?v) >= 0)`: {
			`<http://r/g0> | "2" | <http://www.w3.org/2001/XMLSchema#integer>`,
			`<http://r/none> | "0" | `, `<http://r/strings> | "0" | `},
	}
	fixed := []rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("http://r/a"), rdf.NewIRI("http://r/group"), rdf.NewIRI("http://r/g0")),
		rdf.NewTriple(rdf.NewIRI("http://r/a"), rdf.NewIRI("http://r/val"), rdf.NewInteger(2)),
		rdf.NewTriple(rdf.NewIRI("http://r/a"), rdf.NewIRI("http://r/val"), rdf.NewInteger(0)),
		rdf.NewTriple(rdf.NewIRI("http://r/b"), rdf.NewIRI("http://r/group"), rdf.NewIRI("http://r/strings")),
		rdf.NewTriple(rdf.NewIRI("http://r/b"), rdf.NewIRI("http://r/val"), rdf.NewString("x")),
		rdf.NewTriple(rdf.NewIRI("http://r/c"), rdf.NewIRI("http://r/group"), rdf.NewIRI("http://r/none")),
	}
	for src, want := range pinned {
		for _, n := range []int{1, 2, 3} {
			if got := shardedRows(t, src, fixed, n, rand.New(rand.NewSource(int64(n)))); !slices.Equal(got, want) {
				t.Errorf("%d shards: %s\n got %q\nwant %q", n, src, got, want)
			}
		}
		if got := engineRows(t, src, fixed, 1); !slices.Equal(got, want) {
			t.Errorf("%s\n got %q\nwant %q", src, got, want)
		}
	}

	base := []TriplePattern{{S: NewVarNode("s"), P: NewTermNode(rdf.NewIRI("http://r/group")), O: NewVarNode("g")}}
	opt := []TriplePattern{{S: NewVarNode("s"), P: NewTermNode(rdf.NewIRI("http://r/val")), O: NewVarNode("v")}}
	rng := rand.New(rand.NewSource(37))
	g := havingGen{rng}
	kept, dropped := 0, 0
	for trial := 0; trial < 150; trial++ {
		triples := append(aggGraph(rng, 4+rng.Intn(30), aggPool(false, false)), fixed[3:]...)
		var sel strings.Builder
		sel.WriteString("SELECT ?g")
		for i := 0; i < 3; i++ {
			fmt.Fprintf(&sel, " (%s AS ?x%d)", g.expr(2), i)
		}
		fmt.Fprintf(&sel, " (%s AS ?a)", g.pick(havingAggs))
		src := sel.String() + " " + where + " GROUP BY ?g"
		if rng.Intn(4) > 0 {
			src += fmt.Sprintf(" HAVING (%s)", g.cond(2))
		}
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		sols := refSolveOptional(triples, refSolve(triples, base), opt)
		want := refGroupRows(q, sols)
		groups := len(refGroupRows(&Query{Select: []SelectItem{{Var: "g"}}}, sols))
		kept, dropped = kept+len(want), dropped+groups-len(want)
		for _, workers := range []int{1, 4} {
			if got := engineRows(t, src, triples, workers); !slices.Equal(got, want) {
				t.Fatalf("trial %d, %d workers:\n%s\n got %q\nwant %q", trial, workers, src, got, want)
			}
		}
		for _, n := range []int{1, 2, 3} {
			if got := shardedRows(t, src, triples, n, rng); !slices.Equal(got, want) {
				t.Fatalf("trial %d, %d shards:\n%s\n got %q\nwant %q", trial, n, src, got, want)
			}
		}
		// The cut: ORDER BY a copied aggregate (ties abound) and the key,
		// or the aggregate alone, then LIMIT and OFFSET, against ordering
		// the whole answer and windowing it.
		order := []string{" ORDER BY DESC(?a) ?g", " ORDER BY ?a", " ORDER BY ?g"}[rng.Intn(3)]
		limit, offset := rng.Intn(4), rng.Intn(3)
		checkCut(t, src+order, triples, limit, offset)
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("HAVING kept %d and dropped %d groups: the generator never split them", kept, dropped)
	}
}

// engineRows runs src on one node at the given worker count and
// returns its rows sorted.
func engineRows(t *testing.T, src string, triples []rdf.Triple, workers int) []string {
	t.Helper()
	st := store.New()
	if err := st.AddAll(triples); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)
	eng.Exec = ExecOptions{Workers: workers, ParallelThreshold: 1}
	res, err := eng.QueryString(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	rows := rowStrings(res)
	slices.Sort(rows)
	return rows
}

// shardedRows runs src through the partial-aggregate plan over n
// shards, each subject on a random one, and returns the merged rows
// sorted.
func shardedRows(t *testing.T, src string, triples []rdf.Triple, n int, rng *rand.Rand) []string {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := PlanPartialAggregation(q)
	if !ok {
		t.Fatalf("not decomposable: %s", src)
	}
	shards := make([]*store.Store, n)
	for i := range shards {
		shards[i] = store.New()
	}
	home := map[rdf.Term]int{}
	for _, tr := range triples {
		i, ok := home[tr.S]
		if !ok {
			i = rng.Intn(n)
			home[tr.S] = i
		}
		if err := shards[i].Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	partials := make([]*Results, n)
	for i, st := range shards {
		if partials[i], err = NewEngine(st).Query(p.ShardQuery()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Merge(partials)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	MergeFinalize(q, res)
	rows := rowStrings(res)
	slices.Sort(rows)
	return rows
}

// checkCut runs the ordered query src with LIMIT and OFFSET, which
// emit cuts before projecting, against src unlimited — ordered whole
// by the one finish — windowed the same way.
func checkCut(t *testing.T, src string, triples []rdf.Triple, limit, offset int) {
	t.Helper()
	st := store.New()
	if err := st.AddAll(triples); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		eng := NewEngine(st)
		eng.Exec = ExecOptions{Workers: workers, ParallelThreshold: 1}
		whole, err := eng.QueryString(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		cut, err := eng.QueryString(fmt.Sprintf("%s LIMIT %d OFFSET %d", src, limit, offset))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want := rowStrings(&Results{Rows: window(&Query{Limit: limit, Offset: offset}, whole.Rows)})
		if got := rowStrings(cut); !slices.Equal(got, want) {
			t.Fatalf("%d workers: %s LIMIT %d OFFSET %d\n got %q\nwant %q", workers, src, limit, offset, got, want)
		}
	}
}

// TestAggregateSpecialValues: SUM, AVG and arithmetic over INF, -INF
// and NaN give the xsd:double special forms, on one node and through
// the shard merge, which reads them back from the shards' partials.
func TestAggregateSpecialValues(t *testing.T) {
	double := func(s string) rdf.Term { return rdf.NewTyped(s, rdf.XSDDouble) }
	val := func(s, g string, v rdf.Term) []rdf.Triple {
		return []rdf.Triple{
			rdf.NewTriple(rdf.NewIRI("http://r/"+s), rdf.NewIRI("http://r/group"), rdf.NewIRI("http://r/"+g)),
			rdf.NewTriple(rdf.NewIRI("http://r/"+s), rdf.NewIRI("http://r/val"), v),
		}
	}
	var triples []rdf.Triple
	for _, ts := range [][]rdf.Triple{
		val("a", "pos", double("INF")), val("b", "pos", rdf.NewInteger(1)),
		val("c", "neg", double("-INF")), val("d", "neg", rdf.NewInteger(2)),
		val("e", "both", double("INF")), val("f", "both", double("-INF")),
		val("h", "nan", double("NaN")), val("i", "big", double("1e300")), val("j", "big", double("1e300")),
		val("k", "over", double("1e308")), val("l", "over", double("1e308")),
	} {
		triples = append(triples, ts...)
	}
	const d = "^^<http://www.w3.org/2001/XMLSchema#double>"
	src := `SELECT ?g (SUM(?v) AS ?t) (AVG(?v) AS ?a) ((SUM(?v) * 2) AS ?x) ((-SUM(?v)) AS ?n)
		WHERE { ?s <http://r/group> ?g . ?s <http://r/val> ?v } GROUP BY ?g HAVING (SUM(?v) > 1e300 || SUM(?v) < 0 || SUM(?v) != SUM(?v))`
	want := []string{
		`<http://r/big> | "2e+300"` + d + ` | "1e+300"` + d + ` | "4e+300"` + d + ` | "-2e+300"` + d,
		`<http://r/both> | "NaN"` + d + ` | "NaN"` + d + ` | "NaN"` + d + ` | "NaN"` + d,
		`<http://r/nan> | "NaN"` + d + ` | "NaN"` + d + ` | "NaN"` + d + ` | "NaN"` + d,
		`<http://r/neg> | "-INF"` + d + ` | "-INF"` + d + ` | "-INF"` + d + ` | "INF"` + d,
		`<http://r/over> | "INF"` + d + ` | "INF"` + d + ` | "INF"` + d + ` | "-INF"` + d,
		`<http://r/pos> | "INF"` + d + ` | "INF"` + d + ` | "INF"` + d + ` | "-INF"` + d,
	}
	for _, workers := range []int{1, 4} {
		if got := engineRows(t, src, triples, workers); !slices.Equal(got, want) {
			t.Errorf("%d workers:\n got %q\nwant %q", workers, got, want)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3} {
		if got := shardedRows(t, src, triples, n, rng); !slices.Equal(got, want) {
			t.Errorf("%d shards:\n got %q\nwant %q", n, got, want)
		}
	}
}
