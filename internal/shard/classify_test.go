package shard

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"re2xolap/internal/corpus"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
)

// TestClassifyTaxonomy pins the full plan taxonomy: which query
// shapes take which plan class. Classification is a pure function of
// the query text — the plan cache depends on that.
func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		name  string
		query string
		want  planKind
	}{
		// Colocated: single-subject stars, modifiers included.
		{"single-pattern", `SELECT ?s ?v WHERE { ?s <http://t/value> ?v }`, planColocated},
		{"star", `SELECT ?s WHERE { ?s <http://t/a> ?x . ?s <http://t/b> ?y } ORDER BY ?s`, planColocated},
		{"star-union", `SELECT ?s WHERE { { ?s <http://t/a> <http://t/x> } UNION { ?s <http://t/b> <http://t/y> } }`, planColocated},
		{"star-optional", `SELECT ?s ?v WHERE { ?s <http://t/a> ?x . OPTIONAL { ?s <http://t/b> ?v } }`, planColocated},
		{"star-exists-same-subject", `SELECT ?s WHERE { ?s <http://t/a> ?x . FILTER EXISTS { ?s <http://t/b> ?y } }`, planColocated},

		// Partial aggregation: decomposable aggregates over one star.
		{"count-group", `SELECT ?r (COUNT(?v) AS ?n) WHERE { ?s <http://t/r> ?r . ?s <http://t/v> ?v } GROUP BY ?r`, planPartialAgg},
		{"global-sum", `SELECT (SUM(?v) AS ?t) WHERE { ?s <http://t/v> ?v }`, planPartialAgg},

		// Bound join: multi-star BGPs connected by shared variables,
		// optionally with filters, as SELECT or ASK.
		{"two-star-join", `SELECT ?s ?c WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c }`, planBoundJoin},
		{"three-star-chain", `SELECT ?a ?d WHERE { ?a <http://t/k> ?b . ?b <http://t/k> ?c . ?c <http://t/k> ?d }`, planBoundJoin},
		{"join-with-filter", `SELECT ?s WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c . FILTER(?c != ?s) }`, planBoundJoin},
		{"join-ask", `ASK { ?a <http://t/k> ?b . ?b <http://t/k> ?c }`, planBoundJoin},
		{"join-const-subject", `SELECT ?c WHERE { <http://t/s1> <http://t/region> ?r . ?r <http://t/partOf> ?c }`, planBoundJoin},

		// Gather: everything the bound join cannot prove decomposable.
		{"closure", `SELECT ?b WHERE { <http://t/p0> <http://t/knows>+ ?b }`, planGather},
		{"join-plus-closure", `SELECT ?s ?b WHERE { ?s <http://t/region> ?r . ?r <http://t/knows>+ ?b }`, planGather},
		{"subselect", `SELECT ?s ?v WHERE { { SELECT ?s WHERE { ?s <http://t/a> <http://t/x> } } ?s <http://t/v> ?v }`, planGather},
		{"not-exists-cross-subject", `SELECT ?s WHERE { ?s <http://t/a> ?r . FILTER NOT EXISTS { ?r <http://t/b> ?x } }`, planGather},
		{"exists-in-join", `SELECT ?s WHERE { ?s <http://t/a> ?r . ?r <http://t/b> ?c . FILTER EXISTS { ?s <http://t/c> ?x } }`, planGather},
		{"cross-subject-agg", `SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c } GROUP BY ?c`, planGather},
		{"cartesian", `SELECT ?a ?b WHERE { ?a <http://t/p> ?x . ?b <http://t/q> ?y }`, planGather},
		{"join-union", `SELECT ?s WHERE { { ?s <http://t/a> ?r . ?r <http://t/b> ?c } UNION { ?s <http://t/d> ?e } }`, planGather},
		{"join-optional", `SELECT ?s ?v WHERE { ?s <http://t/a> ?r . ?r <http://t/b> ?c . OPTIONAL { ?s <http://t/v> ?v } }`, planGather},
		{"values-only", `SELECT ?x WHERE { VALUES ?x { <http://t/a> <http://t/b> } }`, planGather},
		// CONSTRUCT never takes the bound join (graph merge, not rows):
		// a star stays colocated, a cross-subject join falls to gather.
		{"construct-star", `CONSTRUCT { ?s <http://t/p> ?o } WHERE { ?s <http://t/p> ?o }`, planColocated},
		{"construct-join", `CONSTRUCT { ?s <http://t/p> ?c } WHERE { ?s <http://t/p> ?r . ?r <http://t/q> ?c }`, planGather},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := sparql.Parse(c.query)
			if err != nil {
				t.Fatal(err)
			}
			p := classify(q)
			if p.kind != c.want {
				t.Fatalf("classify(%s) = %s, want %s", c.query, p.kind, c.want)
			}
			switch p.kind {
			case planBoundJoin:
				if p.bound == nil {
					t.Fatal("bound_join plan missing BoundJoinPlan")
				}
			case planPartialAgg:
				if p.agg == nil {
					t.Fatal("partial_agg plan missing PartialAggPlan")
				}
			}
		})
	}
}

// TestPlanCacheLRU pins the cache mechanics: hits, misses, and
// least-recently-used eviction at capacity, with and without a
// registry; with one, the eviction is counted.
func TestPlanCacheLRU(t *testing.T) {
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		testPlanCacheLRU(t, reg)
		if n := reg.Counter("re2xolap_shard_plan_cache_evictions_total", "").Value(); reg != nil && n != 1 {
			t.Errorf("evictions counted %d, want 1", n)
		}
	}
}

func testPlanCacheLRU(t *testing.T, reg *obs.Registry) {
	zero := func() float64 { return 0 }
	pc := newPlanCache(2, newMetrics(reg, zero, zero))
	mk := func(text string) queryPlan {
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return classify(q)
	}
	a := `SELECT ?s WHERE { ?s <http://t/a> ?x }`
	b := `SELECT ?s WHERE { ?s <http://t/b> ?x }`
	c := `SELECT ?s WHERE { ?s <http://t/c> ?x }`

	if _, ok := pc.get(a); ok {
		t.Fatal("empty cache reported a hit")
	}
	pc.put(a, mk(a))
	pc.put(b, mk(b))
	if _, ok := pc.get(a); !ok {
		t.Fatal("miss on cached entry")
	}
	// a was just touched, so inserting c at capacity evicts b.
	pc.put(c, mk(c))
	if pc.len() != 2 {
		t.Fatalf("cache has %d entries, want 2", pc.len())
	}
	if _, ok := pc.get(b); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := pc.get(a); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if _, ok := pc.get(c); !ok {
		t.Fatal("newest entry c missing")
	}
	// Re-putting an existing key must not grow the cache.
	pc.put(a, mk(a))
	if pc.len() != 2 {
		t.Fatalf("cache grew to %d on re-put", pc.len())
	}
}

// TestPlanCacheParseErrors checks malformed queries are not cached:
// they would occupy capacity without ever hitting.
func TestPlanCacheParseErrors(t *testing.T) {
	ts := determinismTriples()
	parts := Partitioner{N: 2}.Split(ts)
	backends := make([]endpoint.Client, 2)
	for i := range backends {
		backends[i] = endpoint.NewInProcess(storeFromTriples(t, parts[i]))
	}
	c, err := New(backends, WithoutResilience())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.QueryX(context.Background(), endpoint.Request{Query: `SELECT WHERE {`}); err == nil {
		t.Fatal("malformed query did not error")
	}
	if c.cache.len() != 0 {
		t.Fatalf("parse failure was cached (%d entries)", c.cache.len())
	}
}

// TestGatherFetchDedupe pins the fetch-spec subsumption fix: a
// closure pattern fetches its predicate's full relation, so a plain
// pattern on the same predicate must not trigger a second
// (subset) fetch.
func TestGatherFetchDedupe(t *testing.T) {
	// Every predicate but <b> and <m> has at most one object per
	// subject here.
	functional := map[rdf.Term]bool{}
	for _, p := range []string{"a", "c", "dim", "v", "label", "knows", "hidden"} {
		functional[rdf.NewIRI("http://t/"+p)] = true
	}
	specsWith := func(text string, functional map[rdf.Term]bool) []fetchSpec {
		q, err := sparql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		return collectFetchSpecs(q, functional)
	}
	specsOf := func(text string) []fetchSpec { return specsWith(text, functional) }
	countPred := func(specs []fetchSpec, pred string) int {
		n := 0
		for _, s := range specs {
			if strings.Contains(s.query, pred) {
				n++
			}
		}
		return n
	}

	// Closure + narrower plain pattern on the same predicate: one fetch.
	specs := specsOf(`SELECT ?a ?b WHERE { ?a <http://t/knows>+ ?b . <http://t/p0> <http://t/knows> ?x }`)
	if got := countPred(specs, "http://t/knows"); got != 1 {
		t.Fatalf("closure + constant-subject pattern produced %d knows fetches, want 1", got)
	}
	// Closure + full-relation plain pattern: structural dedup already
	// collapses them (identical normalized query text).
	specs = specsOf(`SELECT ?a ?b WHERE { ?a <http://t/knows>+ ?b . ?x <http://t/knows> ?y }`)
	if got := countPred(specs, "http://t/knows"); got != 1 {
		t.Fatalf("closure + full-relation pattern produced %d knows fetches, want 1", got)
	}
	// Repeated-variable pattern is a subset of the relation too.
	specs = specsOf(`SELECT ?a ?b WHERE { ?a <http://t/knows>+ ?b . ?x <http://t/knows> ?x }`)
	if got := countPred(specs, "http://t/knows"); got != 1 {
		t.Fatalf("closure + self-loop pattern produced %d knows fetches, want 1", got)
	}
	// Different predicates keep their own fetches.
	specs = specsOf(`SELECT ?a ?b WHERE { ?a <http://t/knows>+ ?b . ?a <http://t/label> ?l }`)
	if len(specs) != 2 {
		t.Fatalf("distinct predicates produced %d fetches, want 2", len(specs))
	}
	// An unrestricted ?s ?p ?o fetch subsumes everything else, a star
	// on its subject included.
	for _, text := range []string{
		`SELECT ?s WHERE { ?s ?p ?o . ?s <http://t/label> ?l . FILTER NOT EXISTS { ?s <http://t/hidden> ?h } }`,
		`SELECT ?s WHERE { ?s ?p ?o . ?s <http://t/a> ?x . ?s <http://t/b> ?y . OPTIONAL { ?x <http://t/c> ?z } ?x <http://t/knows>* ?w }`,
	} {
		if specs = specsOf(text); len(specs) != 1 {
			t.Fatalf("%s: all-variable pattern left %d fetches, want 1", text, len(specs))
		}
	}

	// Top-level patterns on one subject become one star fetch; a
	// sequence path's hop off the subject keeps its own.
	rollUp := `SELECT ?x (SUM(?v) AS ?n) WHERE { ?o a <http://t/Obs> . ?o <http://t/dim>/<http://t/broader> ?x . ?o <http://t/v> ?v } GROUP BY ?x`
	specs = specsOf(rollUp)
	if len(specs) != 2 || len(specs[0].pats) != 3 || len(specs[1].pats) != 1 {
		t.Fatalf("roll-up shape: %d fetches, want a 3-pattern star and one pattern", len(specs))
	}
	// Unless <dim> and <v> are known to be functional: then only the
	// constant-object pattern could join a star, and it stays alone.
	if specs = specsWith(rollUp, nil); len(specs) != 4 {
		t.Fatalf("roll-up shape without facts: %d fetches, want 4", len(specs))
	}
	// Patterns no solution requires, and patterns that may match several
	// triples per subject, keep one fetch per pattern.
	for text, want := range map[string][2]int{ // fetches, patterns fetched
		`SELECT * WHERE { ?s <http://t/a> ?x . OPTIONAL { ?s <http://t/b> ?y . ?s <http://t/c> ?z } }`:                           {3, 3},
		`SELECT * WHERE { { ?s <http://t/a> ?x . ?s <http://t/c> ?y } UNION { ?s <http://t/c> ?z } }`:                            {2, 2},
		`SELECT * WHERE { ?s <http://t/a> ?x . FILTER EXISTS { ?s <http://t/b> ?y . ?s <http://t/c> ?z } }`:                      {3, 3},
		`SELECT * WHERE { { SELECT ?s WHERE { ?s <http://t/a> ?x . ?s <http://t/c> ?y } } ?s <http://t/b> ?z }`:                  {3, 3},
		`SELECT * WHERE { ?s <http://t/a> ?x . ?s <http://t/c> ?y . ?s <http://t/knows>+ ?z . OPTIONAL { ?s <http://t/a> ?w } }`: {3, 4},
		`SELECT * WHERE { ?s <http://t/a> ?x . ?s <http://t/b> ?y }`:                                                             {2, 2},
		`SELECT * WHERE { ?s <http://t/b> ?x . ?s <http://t/m> ?y }`:                                                             {2, 2},
		`SELECT * WHERE { ?s <http://t/b> <http://t/x> . ?s <http://t/m> <http://t/y> . ?s <http://t/m> ?y }`:                    {2, 3},
		`SELECT * WHERE { ?s <http://t/a> ?x . ?s <http://t/c> ?y . ?s <http://t/b> ?z . ?s ?p <http://t/x> }`:                   {3, 4},
	} {
		specs = specsOf(text)
		pats := 0
		for _, s := range specs {
			pats += len(s.pats)
		}
		if got := [2]int{len(specs), pats}; got != want {
			t.Errorf("%s: %d fetches over %d patterns, want %d over %d", text, got[0], got[1], want[0], want[1])
		}
	}

	// Correctness backstop: dedup must not change answers. The closure
	// and the constant-subject pattern share <knows>.
	ts := determinismTriples()
	q := `SELECT ?a ?b ?x WHERE { ?a <http://t/knows>+ ?b . <http://t/p1> <http://t/knows> ?x } ORDER BY ?a ?b ?x`
	coord := newTopology(t, ts, 3)
	defer coord.Close()
	res, meta, err := coord.QueryX(context.Background(), endpoint.Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Plan != "gather" {
		t.Fatalf("plan = %q, want gather", meta.Plan)
	}
	single := endpoint.NewInProcess(storeFromTriples(t, ts))
	want, err := single.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := canonRowsOrdered(res), canonRowsOrdered(want); len(g) != len(w) {
		t.Fatalf("deduped gather returned %d rows, single node %d", len(g), len(w))
	} else {
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("row %d diverges: %q vs %q", i, g[i], w[i])
			}
		}
	}
}

// FuzzClassify: for every text the parser accepts, classification and
// the gather plan's fetch specs — with no predicate known functional,
// and with every star candidate functional — never panic, and every
// fetch query re-parses.
func FuzzClassify(f *testing.F) {
	for _, c := range corpus.Queries() {
		f.Add(c.Query)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		f.Add(randomStarQuery(rng))
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sparql.Parse(src)
		if err != nil {
			return
		}
		classify(q)
		all := map[rdf.Term]bool{}
		for _, p := range starPredicates(q.Where) {
			all[p] = true
		}
		for _, functional := range []map[rdf.Term]bool{nil, all} {
			for _, spec := range collectFetchSpecs(q, functional) {
				if _, err := sparql.Parse(spec.query); err != nil {
					t.Fatalf("%s: fetch query %s does not parse: %v", src, spec.query, err)
				}
			}
		}
	})
}

// recordingClient records every query text that reaches a backend.
type recordingClient struct {
	inner endpoint.Client
	mu    *sync.Mutex
	sent  *[]string
}

func (c recordingClient) Query(ctx context.Context, query string) (*sparql.Results, error) {
	c.mu.Lock()
	*c.sent = append(*c.sent, query)
	c.mu.Unlock()
	return c.inner.Query(ctx, query)
}

// TestCachedShardTexts: a plan-cache hit sends the shards exactly the
// texts a miss does, for every plan class, and the texts the one-round
// plans render once at classification are byte-identical to rendering
// them from a fresh parse per query: the query without its solution
// modifiers (colocated), the query itself (colocated ASK), the partial
// aggregation (partial_agg).
func TestCachedShardTexts(t *testing.T) {
	parts := Partitioner{N: 2}.Split(determinismTriples())
	var mu sync.Mutex
	var sent []string
	backends := make([]endpoint.Client, len(parts))
	for i, ts := range parts {
		backends[i] = recordingClient{inner: endpoint.NewInProcess(storeFromTriples(t, ts)), mu: &mu, sent: &sent}
	}
	c, err := New(backends, WithoutResilience())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run := func(query string) []string {
		t.Helper()
		sent = nil
		if _, _, err := c.QueryX(context.Background(), endpoint.Request{Query: query}); err != nil {
			t.Fatal(err)
		}
		out := slices.Clone(sent)
		slices.Sort(out)
		return out
	}
	classes := map[string]bool{}
	for _, cq := range determinismCorpus() {
		run(cq.query) // warms the plan cache and the gather plan's predicate facts
		hit := run(cq.query)
		c.cache = newPlanCache(planCacheSize, c.m)
		if miss := run(cq.query); !slices.Equal(hit, miss) {
			t.Errorf("%s: a plan-cache hit sent\n%q\na miss sent\n%q", cq.name, hit, miss)
		}
		q, err := sparql.Parse(cq.query)
		if err != nil {
			t.Fatal(err)
		}
		p := classify(q)
		var want string
		switch {
		case p.kind == planColocated && q.Ask:
			want = q.String()
			classes["ask"] = true
		case p.kind == planColocated:
			want = stripModifiers(q).String()
		case p.kind == planPartialAgg:
			want = p.agg.ShardQuery().String()
		}
		classes[p.kind.String()] = true
		if want == "" {
			continue
		}
		if len(hit) != len(parts) || hit[0] != want || hit[1] != want {
			t.Errorf("%s: shards got\n%q\nwant %q on each", cq.name, hit, want)
		}
	}
	for _, k := range []string{"colocated", "ask", "partial_agg", "bound_join", "gather"} {
		if !classes[k] {
			t.Errorf("corpus exercises no %s query", k)
		}
	}
}
