package sparql

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// localTermQueries are read queries that bind terms the bgpCube store
// lacks, one per way a query can make a term: a BIND value, a VALUES
// cell, a subquery's computed aggregate and the constant a zero-length
// closure path binds (over a predicate with edges and one without).
var localTermQueries = []struct{ name, src string }{
	{"bind", `SELECT ?s ?y WHERE { ?s <http://c/amount> ?v . BIND (CONCAT(STR(?v), "-unseen") AS ?y) FILTER (?y != "1-unseen") }`},
	{"values", `SELECT ?x ?s WHERE { VALUES ?x { <http://unseen/a> "unseen" 4.5 <http://c/kind> } ?s <http://c/kind> ?k }`},
	{"subselect", `SELECT ?r ?avg WHERE { { SELECT ?r (AVG(?a) AS ?avg) WHERE { ?o <http://c/origin> ?m . ?m <http://c/inRegion> ?r . ?o <http://c/amount> ?a } GROUP BY ?r } ?x <http://c/inRegion> ?r }`},
	{"closure", `SELECT ?b WHERE { <http://unseen/start> <http://c/next>* ?b }`},
	{"closure-no-edges", `SELECT ?a WHERE { ?a <http://unseen/p>* <http://unseen/end> }`},
}

// localTermReference answers the localTermQueries over triples: the
// patterns by refBGP, BIND and FILTER through the reference evaluator,
// the subquery by ModifiersReference, a zero-length path by hand.
func localTermReference(t *testing.T, name string, q *Query, triples []rdf.Triple) [][]rdf.Term {
	g := &refGraph{tail: triples, work: 1 << 40}
	w := splitWhere(q.Where)
	var sols []refBinding
	switch name {
	case "bind":
		for _, b := range refBGP(g, []refBinding{{}}, w.patterns, nil, nil) {
			if v, err := evalExpr(w.binds[0].Expr, mapBinding(b)); err == nil && v.Bound {
				b[w.binds[0].Var] = v.Term
			}
			if keep, err := evalBool(w.filters[0], refEnv{g, b}); err == nil && keep {
				sols = append(sols, b)
			}
		}
	case "values":
		sols = refBGP(g, refValues(w.values), w.patterns, nil, nil)
	case "subselect":
		_, rows := ModifiersReference(q, triples)
		return rows
	case "closure", "closure-no-edges":
		cp := w.closures[0]
		end := cp.O
		if !cp.S.IsVar {
			end = cp.S
		}
		return [][]rdf.Term{{end.Term}}
	default:
		t.Fatalf("no reference for %s", name)
	}
	rows := make([][]rdf.Term, len(sols))
	for i, b := range sols {
		for _, it := range q.Select {
			rows[i] = append(rows[i], b[it.Var])
		}
	}
	return rows
}

// TestReadQueriesLeaveDictionary: a read query that binds terms the
// store lacks gives them IDs of its own, so the store's dictionary does
// not grow, and decodes them wherever a row is read — projection,
// FILTER, aggregation — at one worker and on clones, answering as the
// reference does.
func TestReadQueriesLeaveDictionary(t *testing.T) {
	triples := bgpCube()
	st := store.New()
	if err := st.AddAll(triples); err != nil {
		t.Fatal(err)
	}
	terms := st.Dict().Len()
	for _, workers := range []int{1, 4} {
		eng := NewEngine(st)
		eng.Exec = ExecOptions{Workers: workers, ParallelThreshold: 2}
		for _, c := range localTermQueries {
			q, err := Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Query(q)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", c.name, workers, err)
			}
			got, want := rowKeys(res.Rows), rowKeys(localTermReference(t, c.name, q, triples))
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("%s at %d workers: %d rows\n%v\nwant %d\n%v", c.name, workers, len(got), got, len(want), want)
			}
			if n := st.Dict().Len(); n != terms {
				t.Errorf("%s at %d workers: the dictionary grew from %d to %d terms", c.name, workers, terms, n)
			}
		}
	}
}

// rowKeys renders rows as sorted canonical keys.
func rowKeys(rows [][]rdf.Term) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = CanonicalRowKey(r)
	}
	slices.Sort(keys)
	return keys
}

// TestLocalIDsMissWriterTerms: a query's local IDs never meet the IDs a
// writer mints while the query runs. Here VALUES has already given "u"
// a local ID when a writer adds a literal the keyword matches: the
// view's keyword seed leaves it out (it postdates the view), and the
// local ID and the writer's both decode to their own terms.
func TestLocalIDsMissWriterTerms(t *testing.T) {
	st := store.New()
	if err := st.AddAll(bgpCube()); err != nil {
		t.Fatal(err)
	}
	ex := NewEngine(st).newExecutor(nil, st.View(), nil)
	x := ex.slot("x")
	lit := ex.slot("lit")
	u := rdf.NewString("u")
	uid := ex.encode(u)
	fresh := rdf.NewString("kw fresh")
	if err := st.Add(rdf.NewTriple(rdf.NewIRI("http://w/s"), rdf.NewIRI("http://w/label"), fresh)); err != nil {
		t.Fatal(err)
	}
	freshID, ok := st.Dict().Lookup(fresh)
	if !ok {
		t.Fatal("the writer's literal is not in the dictionary")
	}
	if ids := ex.view.TextSearch("kw"); len(ids) != 0 {
		t.Fatalf("keyword seed found %v, literals added after the view", ids)
	}
	r := make(row, 2)
	r[x], r[lit] = uid, freshID
	if got := ex.slotValue(r, x); got.Term != u {
		t.Errorf("?x decodes to %v, want %v", got.Term, u)
	}
	if got := ex.slotValue(r, lit); got.Term != fresh {
		t.Errorf("?lit decodes to %v, want %v", got.Term, fresh)
	}
}

// TestLocalTermsBesideWriter runs a VALUES join and a keyword seed
// while a writer adds literals the keyword matches: every row keeps
// its VALUES term and a literal holding the keyword.
func TestLocalTermsBesideWriter(t *testing.T) {
	st := store.New()
	if err := st.AddAll(bgpCube()); err != nil {
		t.Fatal(err)
	}
	q, err := Parse(`SELECT ?x ?lit WHERE { VALUES ?x { "u" } FILTER (CONTAINS(STR(?lit), "kw")) }`)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 300 {
			lit := rdf.NewString("kw " + strconv.Itoa(i))
			if err := st.Add(rdf.NewTriple(rdf.NewIRI("http://w/s"), rdf.NewIRI("http://w/label"), lit)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			if r[0] != rdf.NewString("u") || !strings.HasPrefix(r[1].Value, "kw ") {
				t.Fatalf("row %v, want \"u\" beside a \"kw …\" literal", r)
			}
		}
	}
}
