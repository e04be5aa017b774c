package sparql_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"slices"
	"testing"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/rdf"
	"re2xolap/internal/shard"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// modifierGraph draws the data TestModifiersMatchReference orders:
// subjects with a distinct name and a distinct power-of-two age (so
// every age, and every sum of ages over disjoint groups, is distinct
// and ORDER BY on them is total), a group and a region each, and a
// label per group.
func modifierGraph(rng *rand.Rand) []rdf.Triple {
	iri := func(f string, a ...any) rdf.Term { return rdf.NewIRI("http://m/" + fmt.Sprintf(f, a...)) }
	n, groups := 6+rng.Intn(9), 2+rng.Intn(4)
	var ts []rdf.Triple
	for i, bit := range rng.Perm(n) {
		s := iri("s%d", i)
		ts = append(ts,
			rdf.NewTriple(s, iri("name"), rdf.NewString(fmt.Sprintf("n%02d", rng.Intn(100)*100+i))),
			rdf.NewTriple(s, iri("age"), rdf.NewInteger(int64(1)<<bit)),
			rdf.NewTriple(s, iri("grp"), iri("g%d", rng.Intn(groups))),
			rdf.NewTriple(s, iri("reg"), iri("r%d", rng.Intn(2))))
	}
	for j, k := range rng.Perm(groups) {
		ts = append(ts, rdf.NewTriple(iri("g%d", j), iri("label"), rdf.NewString(fmt.Sprintf("G%d", k))))
	}
	return ts
}

// modifierQueries draws the queries of one trial: ORDER BY keys that
// read projected variables, unprojected variables, SELECT aliases,
// aggregate expressions and unprojected GROUP BY keys, with DISTINCT,
// OFFSET/LIMIT and subselects, every order total over modifierGraph.
func modifierQueries(rng *rand.Rand) []string {
	const star = `?s <http://m/name> ?n . ?s <http://m/age> ?a . ?s <http://m/grp> ?g .`
	const join = star + ` ?g <http://m/label> ?l .`
	const grouped = star + ` ?s <http://m/reg> ?r .`
	dir := func() string { return []string{"", "DESC"}[rng.Intn(2)] }
	cut := func() string {
		s := ""
		if rng.Intn(3) > 0 {
			s += fmt.Sprintf(" LIMIT %d", rng.Intn(6))
		}
		if rng.Intn(3) == 0 {
			s += fmt.Sprintf(" OFFSET %d", rng.Intn(4))
		}
		return s
	}
	return []string{
		// Non-aggregate keys: unprojected, projected, an alias, an
		// expression over an unprojected variable.
		fmt.Sprintf(`SELECT ?n WHERE { %s } ORDER BY %s(?a)%s`, star, dir(), cut()),
		fmt.Sprintf(`SELECT ?n ?a WHERE { %s } ORDER BY %s(?a)%s`, star, dir(), cut()),
		fmt.Sprintf(`SELECT ?n ((?a * 3) AS ?x) WHERE { %s } ORDER BY %s(?x)%s`, star, dir(), cut()),
		fmt.Sprintf(`SELECT ?s WHERE { %s } ORDER BY %s((0 - ?a)) ?n%s`, star, dir(), cut()),
		// DISTINCT over rows ordered by a key it does not keep.
		fmt.Sprintf(`SELECT DISTINCT ?g WHERE { %s } ORDER BY %s(?a)%s`, star, dir(), cut()),
		// Two subject stars: the coordinator's bound join.
		fmt.Sprintf(`SELECT ?n ?l WHERE { %s } ORDER BY %s(?a)%s`, join, dir(), cut()),
		fmt.Sprintf(`SELECT ?s (STR(?l) AS ?x) WHERE { %s } ORDER BY %s(?n)%s`, join, dir(), cut()),
		// Grouped keys: an alias of an aggregate, an unprojected
		// aggregate, an expression over aggregates, unprojected keys.
		fmt.Sprintf(`SELECT ?g (SUM(?a) AS ?t) WHERE { %s } GROUP BY ?g ORDER BY %s(?t)%s`, star, dir(), cut()),
		fmt.Sprintf(`SELECT ?g WHERE { %s } GROUP BY ?g ORDER BY %s(SUM(?a))%s`, star, dir(), cut()),
		fmt.Sprintf(`SELECT ?g (COUNT(*) AS ?c) WHERE { %s } GROUP BY ?g ORDER BY %s(((MAX(?a) * 2) + MIN(?a)))%s`, star, dir(), cut()),
		fmt.Sprintf(`SELECT (SUM(?a) AS ?t) WHERE { %s } GROUP BY ?g ?r ORDER BY %s(?r) %s(?g)%s`, grouped, dir(), dir(), cut()),
		fmt.Sprintf(`SELECT DISTINCT ?r WHERE { %s } GROUP BY ?g ?r ORDER BY %s(MAX(?a))%s`, grouped, dir(), cut()),
		// Subselects: the inner order and cut decide which rows join.
		fmt.Sprintf(`SELECT ?n WHERE { { SELECT ?n WHERE { %s } ORDER BY %s(?a) LIMIT %d } } ORDER BY ?n`, star, dir(), 1+rng.Intn(4)),
		fmt.Sprintf(`SELECT ?g ?t WHERE { { SELECT ?g (SUM(?a) AS ?t) WHERE { %s } GROUP BY ?g ORDER BY %s(SUM(?a)) LIMIT %d } } ORDER BY ?t`, star, dir(), 1+rng.Intn(3)),
	}
}

// modifierTie is the tie case: groups of equal COUNT, which a single
// node breaks by group order and a coordinator by the projected line,
// so only the sequence of counts is one answer.
const modifierTie = `SELECT ?g (COUNT(*) AS ?c) WHERE { ?s <http://m/grp> ?g } GROUP BY ?g ORDER BY DESC(?c) LIMIT 3`

// querier answers one query text in one configuration.
type querier func(text string) (*sparql.Results, error)

// modifierConfigs lists every configuration that must return the
// reference answer: one node at 1 and 4 workers, coordinators over 1,
// 2, 3 and 5 in-process shards and, with http set, the one node and a
// 3-shard coordinator over HTTP. The returned function releases them.
func modifierConfigs(t *testing.T, ts []rdf.Triple, http bool) (map[string]querier, func()) {
	t.Helper()
	ctx := context.Background()
	newStore := func(ts []rdf.Triple) *store.Store {
		st := store.New()
		if err := st.AddAll(ts); err != nil {
			t.Fatal(err)
		}
		return st
	}
	single := newStore(ts)
	configs := map[string]querier{}
	for _, w := range []int{1, 4} {
		eng := sparql.NewEngine(single)
		eng.Exec = sparql.ExecOptions{Workers: w, ParallelThreshold: 1}
		configs[fmt.Sprintf("workers=%d", w)] = eng.QueryString
	}
	var closers []func()
	coordinator := func(name string, backends []endpoint.Client) {
		c, err := shard.New(backends)
		if err != nil {
			t.Fatal(err)
		}
		closers = append(closers, c.Close)
		configs[name] = func(text string) (*sparql.Results, error) { return c.Query(ctx, text) }
	}
	for _, n := range []int{1, 2, 3, 5} {
		parts := shard.Partitioner{N: n}.Split(ts)
		backends := make([]endpoint.Client, n)
		for i := range backends {
			backends[i] = endpoint.NewInProcess(newStore(parts[i]))
		}
		coordinator(fmt.Sprintf("%d shards", n), backends)
	}
	if http {
		remote := func(st *store.Store) endpoint.Client {
			srv := httptest.NewServer(endpoint.NewServer(st))
			closers = append(closers, srv.Close)
			return endpoint.NewHTTPClient(srv.URL)
		}
		node := remote(single)
		configs["http"] = func(text string) (*sparql.Results, error) { return node.Query(ctx, text) }
		parts := shard.Partitioner{N: 3}.Split(ts)
		backends := make([]endpoint.Client, 3)
		for i := range backends {
			backends[i] = remote(newStore(parts[i]))
		}
		coordinator("3 shards over http", backends)
	}
	return configs, func() {
		for _, c := range closers {
			c()
		}
	}
}

// TestModifiersMatchReference holds ORDER BY, DISTINCT, OFFSET and
// LIMIT to a reference that reads SPARQL §18.2.5 literally
// (ModifiersReference): ordering sees the solutions before projection,
// with the SELECT aliases and, in a grouped query, the GROUP BY keys and
// the aggregates in scope. Over seeded graphs every configuration —
// one node at 1 and 4 workers, coordinators over 1/2/3/5 shards, and
// over HTTP — must return the reference's rows in the reference's
// order, and on the tie case the reference's sequence of keys.
func TestModifiersMatchReference(t *testing.T) {
	keys := func(rows [][]rdf.Term) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = sparql.CanonicalRowKey(r)
		}
		return out
	}
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 12; trial++ {
		ts := modifierGraph(rng)
		configs, release := modifierConfigs(t, ts, trial < 2)
		for _, text := range append(modifierQueries(rng), modifierTie) {
			q, err := sparql.Parse(text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			vars, rows := sparql.ModifiersReference(q, ts)
			want := keys(rows)
			if text == modifierTie {
				want = keys(column(rows, 1))
			}
			for name, query := range configs {
				res, err := query(text)
				if err != nil {
					t.Fatalf("trial %d, %s: %s: %v", trial, name, text, err)
				}
				got := res.Rows
				if text == modifierTie {
					got = column(got, 1)
				}
				if !slices.Equal(res.Vars, vars) || !slices.Equal(keys(got), want) {
					t.Fatalf("trial %d, %s: %s\n got %v %q\nwant %v %q", trial, name, text, res.Vars, keys(got), vars, want)
				}
			}
		}
		release()
	}
}

// column returns column i of rows, one cell per row.
func column(rows [][]rdf.Term, i int) [][]rdf.Term {
	out := make([][]rdf.Term, len(rows))
	for r, row := range rows {
		out[r] = row[i : i+1]
	}
	return out
}
