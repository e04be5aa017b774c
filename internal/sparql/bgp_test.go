package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// refWhere evaluates a parsed WHERE clause of VALUES, patterns, UNION,
// OPTIONAL and filters with the naive evaluator, in the order the
// engine defines for rows: seed-major through the patterns, branch by
// branch through a UNION, row by row through an OPTIONAL, the group's
// filters on complete solutions.
func refWhere(g *refGraph, w whereParts, order func(refBinding) []TriplePattern) []refBinding {
	sols := refBGP(g, refValues(w.values), w.patterns, order, nil)
	for _, u := range w.unions {
		var next []refBinding
		for _, br := range u.Branches {
			b := splitWhere(br)
			next = append(next, refBGP(g, sols, b.patterns, nil, b.filters)...)
		}
		sols = next
	}
	for _, opt := range w.optionals {
		sols = refLeftJoin(g, sols, opt.Patterns, opt.Filters)
	}
	return slices.DeleteFunc(sols, func(b refBinding) bool {
		for _, f := range w.filters {
			if keep, err := evalBool(f, refEnv{g, b}); err != nil || !keep {
				return true
			}
		}
		return false
	})
}

// planOrder is the order in which the engine's plan joins the patterns
// for a seed binding the variables b binds.
func planOrder(eng *Engine, st *store.Store, w whereParts, b refBinding) []TriplePattern {
	ex := eng.newExecutor(nil, st.View(), nil)
	ex.registerVars(w.patterns)
	for name := range b {
		ex.slot(name)
	}
	seed := make(row, len(ex.vars.names))
	for name := range b {
		seed[ex.slot(name)] = 1
	}
	segs := ex.planSeed([]row{seed}, w.patterns, w.filters, w.open())
	var order []TriplePattern
	for _, st := range segs[0].plan.steps {
		order = append(order, *st.tp)
	}
	return order
}

// refKeys renders reference solutions over vars like resultKeys renders
// engine rows.
func refKeys(vars []string, sols []refBinding) []string {
	out := make([]string, len(sols))
	for i, b := range sols {
		r := make([]rdf.Term, len(vars))
		for j, v := range vars {
			r[j] = b[v]
		}
		out[i] = CanonicalRowKey(r)
	}
	return out
}

func resultKeys(res *Results) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = CanonicalRowKey(r)
	}
	return out
}

// profileShape renders a profile tree without what legitimately varies
// between runs: wall times and worker counts; and, unless counts is
// set, the observed cardinalities.
func profileShape(n *ProfileNode, counts bool) string {
	var b strings.Builder
	var walk func(n *ProfileNode, depth int)
	walk = func(n *ProfileNode, depth int) {
		fmt.Fprintf(&b, "%*s%s %s est=%d", 2*depth, "", n.Op, n.Detail, n.Est)
		if counts {
			fmt.Fprintf(&b, " in=%d out=%d", n.RowsIn, n.RowsOut)
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// bgpStore is a store with its raw triple list in store order.
type bgpStore struct {
	st *store.Store
	g  *refGraph
}

// bgpStores loads triples into two stores — tail triples added one by
// one after the bulk load — and compacts the second.
func bgpStores(t *testing.T, loaded, tail []rdf.Triple) map[string]bgpStore {
	t.Helper()
	out := map[string]bgpStore{}
	for _, name := range []string{"pending", "compacted"} {
		st := store.New()
		if err := st.AddAll(loaded); err != nil {
			t.Fatal(err)
		}
		for _, tr := range tail {
			if err := st.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
		if n := st.Stats().DeltaSize; n != len(tail) {
			t.Fatalf("test setup: %d triples pending, want %d", n, len(tail))
		}
		g := newRefGraph(st.Dict(), loaded, tail)
		if name == "compacted" {
			st.Compact()
			g = newRefGraph(st.Dict(), slices.Concat(loaded, tail), nil)
		}
		out[name] = bgpStore{st, g}
	}
	return out
}

// bgpConfigs is every way the one operator runs: sequential, and on
// the pool with the frontier split at once, after one row, or only
// when wide.
var bgpConfigs = []ExecOptions{
	{Workers: 1},
	{Workers: 4, ParallelThreshold: 1},
	{Workers: 4, ParallelThreshold: 2},
	{Workers: 4, ParallelThreshold: 64},
}

// TestBGPMatchesReference runs seeded random BGPs — constants,
// repeated variables, absent constants, cartesian components, filters,
// VALUES seeds with UNDEF — through the engine under every budget
// regime (LIMIT 1, LIMIT k OFFSET j, none, ASK), worker count, fan-out
// threshold, planner setting and store state, and demands the naive
// evaluator's rows in the naive evaluator's order; EXPLAIN ANALYZE must
// draw the same tree at every worker count.
func TestBGPMatchesReference(t *testing.T) {
	all := bgpCube()
	rng := rand.New(rand.NewSource(16))
	var loaded, tail []rdf.Triple
	for i, k := range rng.Perm(len(all)) {
		if i < 40 {
			tail = append(tail, all[k])
		} else {
			loaded = append(loaded, all[k])
		}
	}
	stores := bgpStores(t, loaded, tail)
	gen := &bgpGen{rng: rng, triples: all}
	vars := bgpVars
	ctx := context.Background()
	ran, nonEmpty, wide, mixedSeeds := 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		where := gen.where()
		k, off := 2+rng.Intn(9), rng.Intn(3)
		src := "SELECT ?a ?b ?c ?d ?e WHERE {\n  " + where + "\n}"
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		w := splitWhere(q.Where)
		skipped := false
		for name, s := range stores {
			for _, syntactic := range []bool{false, true} {
				eng := NewEngine(s.st)
				eng.DisableJoinOrdering = syntactic
				var order func(refBinding) []TriplePattern
				if !syntactic {
					order = func(b refBinding) []TriplePattern { return planOrder(eng, s.st, w, b) }
				}
				s.g.work, s.g.overflow = 2_000_000, false
				want := refKeys(vars, refWhere(s.g, w, order))
				if s.g.overflow {
					skipped = true
					continue
				}
				at := func(lo, hi int) []string { return want[min(lo, len(want)):min(hi, len(want))] }
				var shapes [3]string
				for _, cfg := range bgpConfigs {
					eng.Exec = cfg
					for i, c := range []struct {
						suffix string
						want   []string
					}{
						{"", want},
						{" LIMIT 1", at(0, 1)},
						{fmt.Sprintf(" LIMIT %d OFFSET %d", k, off), at(off, off+k)},
					} {
						res, prof, err := eng.Profile(ctx, src+c.suffix)
						if err != nil {
							t.Fatalf("trial %d: %v\n%s", trial, err, src+c.suffix)
						}
						if got := resultKeys(res); !slices.Equal(got, c.want) {
							t.Fatalf("trial %d, %s store, syntactic order %v, %+v:\n%s\n got %d rows %q\nwant %d rows %q",
								trial, name, syntactic, cfg, src+c.suffix, len(got), got, len(c.want), c.want)
						}
						// A budget above one lets every worker search its chunk to the
						// budget, so the counts may exceed the sequential run's; the
						// operators and estimates may not differ.
						shape := profileShape(prof.Root, i < 2)
						if shapes[i] == "" {
							shapes[i] = shape
						}
						if shape != shapes[i] {
							t.Fatalf("trial %d, %s store, %+v: profile tree differs from Workers 1\n%s\n--- Workers 1 ---\n%s--- here ---\n%s",
								trial, name, cfg, src+c.suffix, shapes[i], shape)
						}
					}
				}
				ask, err := eng.QueryString("ASK {\n  " + where + "\n}")
				if err != nil || ask.Boolean != (len(want) > 0) {
					t.Fatalf("trial %d: ASK = %v, %v with %d reference rows\n%s", trial, ask, err, len(want), where)
				}
			}
		}
		if skipped {
			continue
		}
		ran++
		if res, _ := NewEngine(stores["compacted"].st).QueryString(src); res.Len() > 0 {
			nonEmpty++
			if res.Len() >= DefaultParallelThreshold {
				wide++
			}
		}
		if seeds := refValues(w.values); len(seeds) > 1 && slices.ContainsFunc(seeds, func(b refBinding) bool { return len(b) != len(seeds[0]) }) {
			mixedSeeds++
		}
	}
	t.Logf("%d trials ran: %d with solutions, %d with at least %d, %d with seed rows binding different variables",
		ran, nonEmpty, wide, DefaultParallelThreshold, mixedSeeds)
	if ran < 200 || nonEmpty < 100 || wide < 20 || mixedSeeds < 20 {
		t.Error("the generator drifted: too few trials of one of the kinds above")
	}
}

// TestBGPSeedBinding pins the answer where seed rows bind different
// variables: a variable counts as bound for the rows that bind it and
// not for the others, whatever the row order, the budget or the worker
// count. (The level-by-level join read it off the first row; the
// budgeted search agreed only by accident of that order.)
func TestBGPSeedBinding(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	one := []rdf.Triple{rdf.NewTriple(iri("s"), iri("p"), iri("x"))}
	fork := []rdf.Triple{
		rdf.NewTriple(iri("n1"), iri("p"), iri("a1")),
		rdf.NewTriple(iri("n2"), iri("p"), iri("a2")),
		rdf.NewTriple(iri("n2"), iri("q"), iri("b2")),
		rdf.NewTriple(iri("n3"), iri("q"), iri("b3")),
		rdf.NewTriple(iri("n1"), iri("r"), iri("a1")),
		rdf.NewTriple(iri("n1"), iri("r"), iri("c1")),
		rdf.NewTriple(iri("n2"), iri("r"), iri("c2")),
		rdf.NewTriple(iri("n3"), iri("r"), iri("c3")),
	}
	const prefix = "PREFIX ex: <http://ex.org/> "
	for _, tc := range []struct {
		name    string
		triples []rdf.Triple
		where   string
		rows    int
	}{
		{"values-bound-first", one, `VALUES (?a) { (ex:x) (UNDEF) } ?s ex:p ?a . FILTER(?a = ex:x)`, 2},
		{"values-undef-first", one, `VALUES (?a) { (UNDEF) (ex:x) } ?s ex:p ?a . FILTER(?a = ex:x)`, 2},
		{"not-bound-bound-first", one, `VALUES (?a) { (ex:x) (UNDEF) } ?s ex:p ?a . FILTER(!BOUND(?a))`, 0},
		{"not-bound-undef-first", one, `VALUES (?a) { (UNDEF) (ex:x) } ?s ex:p ?a . FILTER(!BOUND(?a))`, 0},
		{"union-optional-filter", fork, `{ ?x ex:p ?a } UNION { ?x ex:q ?b } OPTIONAL { ?x ex:r ?c . FILTER(?c != ?a) }`, 4},
		{"union-optional-bound", fork, `{ ?x ex:p ?a } UNION { ?x ex:q ?b } OPTIONAL { ?x ex:r ?c . FILTER(BOUND(?b)) }`, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := store.New()
			if err := st.AddAll(tc.triples); err != nil {
				t.Fatal(err)
			}
			g := newRefGraph(st.Dict(), tc.triples, nil)
			src := prefix + "SELECT ?s ?x ?a ?b ?c WHERE { " + tc.where + " }"
			q, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			w := splitWhere(q.Where)
			for _, cfg := range bgpConfigs {
				eng := NewEngine(st)
				eng.Exec = cfg
				order := func(b refBinding) []TriplePattern { return planOrder(eng, st, w, b) }
				want := refKeys([]string{"s", "x", "a", "b", "c"}, refWhere(g, w, order))
				if len(want) != tc.rows {
					t.Fatalf("reference has %d rows, the test expects %d", len(want), tc.rows)
				}
				for _, limit := range []string{"", " LIMIT 5", " LIMIT 1"} {
					res, err := eng.QueryString(src + limit)
					if err != nil {
						t.Fatal(err)
					}
					wantHere := want
					if limit == " LIMIT 1" {
						wantHere = want[:min(1, len(want))]
					}
					if got := resultKeys(res); !slices.Equal(got, wantHere) {
						t.Errorf("%+v%s: got %q, want %q", cfg, limit, got, wantHere)
					}
				}
				ask, err := eng.QueryString(prefix + "ASK { " + tc.where + " }")
				if err != nil || ask.Boolean != (tc.rows > 0) {
					t.Errorf("%+v: ASK = %v, %v; the SELECT has %d rows", cfg, ask, err, tc.rows)
				}
			}
		})
	}
}

// TestClosureOrder: a closure with both endpoints unbound walks its
// start nodes in the order Match first delivers them, so a bare LIMIT
// over it has one answer — run after run, at any worker count, and on
// a store whose pending writes have since been compacted.
func TestClosureOrder(t *testing.T) {
	var triples []rdf.Triple
	for i := 0; i < 40; i++ {
		triples = append(triples, rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://ex.org/n%d", (i*7)%40)),
			rdf.NewIRI("http://ex.org/p"),
			rdf.NewIRI(fmt.Sprintf("http://ex.org/n%d", (i*7)%40+1))))
	}
	pending := store.New()
	for _, tr := range triples {
		if err := pending.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	pending.Compact()
	loaded := store.New()
	if err := loaded.AddAll(triples); err != nil {
		t.Fatal(err)
	}
	const query = `SELECT ?x ?y WHERE { ?x <http://ex.org/p>+ ?y } LIMIT 3`
	var want string
	for run := 0; run < 20; run++ {
		for _, st := range []*store.Store{loaded, pending} {
			for _, workers := range []int{1, 4} {
				eng := NewEngine(st)
				eng.Exec = ExecOptions{Workers: workers, ParallelThreshold: 1}
				res, err := eng.QueryString(query)
				if err != nil {
					t.Fatal(err)
				}
				got := res.String()
				if want == "" {
					want = got
				}
				if res.Len() != 3 || got != want {
					t.Fatalf("run %d, Workers %d: answer changed\n%s\nfirst answer\n%s", run, workers, got, want)
				}
			}
		}
	}
	// The first start node is the first subject in SPO order: n0 was
	// interned first, and its chain is followed breadth first.
	if first := "http://ex.org/n0"; !strings.Contains(want, first) {
		t.Errorf("closure does not start at %s:\n%s", first, want)
	}
}

// TestProfileBGPSteps: a budgeted query shows its plan step by step —
// the counts stop where the early exit did — and an unbudgeted one
// reports each step's estimate against what it produced.
func TestProfileBGPSteps(t *testing.T) {
	eng := NewEngine(testStore(t))
	eng.Exec.Workers = 1
	steps := func(src string) (bgp *ProfileNode, ops []*ProfileNode) {
		t.Helper()
		_, p, err := eng.Profile(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range p.Root.Children {
			if c.Op == "bgp" {
				bgp = c
			}
		}
		if bgp == nil {
			t.Fatalf("no bgp node:\n%s", p)
		}
		for _, c := range bgp.Children {
			if c.Op == "scan" || c.Op == "index join" {
				ops = append(ops, c)
			}
		}
		return bgp, ops
	}
	const body = `{ ?o <http://ex.org/origin> ?c . ?o <http://ex.org/dest> ?d . ?o <http://ex.org/value> ?v }`
	bgp, ops := steps("ASK " + body)
	if len(ops) != 3 || bgp.RowsOut != 1 || bgp.Wall <= 0 {
		t.Fatalf("ASK over three patterns: %d step nodes, bgp out=%d wall=%s", len(ops), bgp.RowsOut, bgp.Wall)
	}
	for i, n := range ops {
		// One path to the first solution: every step saw one row and
		// stopped after its first match; a full join produces six.
		if n.RowsIn != 1 || n.RowsOut != 1 || n.Est != 6 {
			t.Errorf("ASK step %d %s: est=%d in=%d out=%d, want est=6 in=1 out=1", i, n.Detail, n.Est, n.RowsIn, n.RowsOut)
		}
	}
	if ops[0].Op != "scan" || ops[1].Op != "index join" || ops[2].Op != "index join" {
		t.Errorf("ops = %s, %s, %s; want scan, index join, index join", ops[0].Op, ops[1].Op, ops[2].Op)
	}
	_, ops = steps("SELECT ?o " + body + " ORDER BY ?o")
	for i, n := range ops {
		if wantIn := []int{1, 6, 6}[i]; n.RowsIn != wantIn || n.RowsOut != 6 {
			t.Errorf("full join step %d: in=%d out=%d, want in=%d out=6", i, n.RowsIn, n.RowsOut, wantIn)
		}
	}
}
