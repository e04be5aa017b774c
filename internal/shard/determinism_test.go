package shard

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

	"re2xolap/internal/corpus"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// determinismTriples delegates to the shared determinism dataset
// (internal/corpus), which the serve-layer cache tests also run.
func determinismTriples() []rdf.Triple { return corpus.Triples() }

// corpusQuery is one determinism-suite entry; see corpus.Query for the
// engineCompare vocabulary ("exact", "set", "skip").
type corpusQuery struct {
	name          string
	query         string
	engineCompare string
	plan          string
}

// determinismCorpus adapts the shared 35-query corpus to the local
// field names the shard tests predate the extraction with.
func determinismCorpus() []corpusQuery {
	qs := corpus.Queries()
	out := make([]corpusQuery, len(qs))
	for i, q := range qs {
		out[i] = corpusQuery{name: q.Name, query: q.Query, engineCompare: q.EngineCompare, plan: q.Plan}
	}
	return out
}

// newTopology splits the dataset over n in-process shard stores and
// returns a coordinator over them.
func newTopology(t *testing.T, ts []rdf.Triple, n int, opts ...Option) *Coordinator {
	t.Helper()
	parts := Partitioner{N: n}.Split(ts)
	backends := make([]endpoint.Client, n)
	for i := 0; i < n; i++ {
		st := store.New()
		if err := st.AddAll(parts[i]); err != nil {
			t.Fatal(err)
		}
		backends[i] = endpoint.NewInProcess(st)
	}
	c, err := New(backends, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// encode serializes a result set the way the protocol layer would:
// SPARQL JSON for SELECT/ASK, N-Triples text for CONSTRUCT graphs.
func encode(t *testing.T, res *sparql.Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if res.IsConstruct {
		for _, tr := range res.Triples {
			fmt.Fprintf(&buf, "%s %s %s .\n", tr.S, tr.P, tr.O)
		}
		return buf.Bytes()
	}
	if err := endpoint.EncodeResults(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// canonRows renders a result set's rows sorted canonically, for
// order-insensitive comparison against the engine.
func canonRows(res *sparql.Results) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = sparql.CanonicalRowKey(r)
	}
	sort.Strings(out)
	return out
}

// shipped3 pins what the 3-shard coordinator moves for each corpus
// query: rows, the rows its shards return (Σ meta.Shards[i].Rows), and
// bindings, the distinct join bindings a bound join ships back as
// VALUES (the re2xolap_shard_bound_bindings_total delta). The counts
// follow from corpus.Triples(): observation obsI links region r(I%4),
// obs7 has no value, obs0/5/10 carry "special" labels, and at 3
// shards the subjects split as {obs0,5,6,9,10, r0, p2} /
// {obs3,4,8,11, r3, p1} / {obs1,2,7, r1, r2, p0}. A plan sliding back
// toward gather, or shipping a relation where its bindings would do,
// fails here with a number.
var shipped3 = map[string]struct{ rows, bindings int }{
	"star-order-limit-offset":    {11, 0}, // the 11 valued observations; ORDER BY/LIMIT/OFFSET run at the coordinator
	"star-order-asc":             {11, 0}, // the 11 value triples
	"distinct":                   {8, 0},  // per-shard distinct regions 3+2+3
	"bare-limit":                 {12, 0}, // the 12 region triples; LIMIT runs at the coordinator
	"count-group":                {7, 0},  // per-shard regions of valued observations 3+2+2 (obs7 is shard 2's only r3)
	"count-star-group":           {8, 0},  // per-shard distinct regions 3+2+3
	"sum-avg":                    {7, 0},  // as count-group
	"min-max":                    {7, 0},  // as count-group
	"global-agg":                 {3, 0},  // one partial row per shard
	"global-agg-empty":           {3, 0},  // one (zero-count) partial row per shard
	"having":                     {7, 0},  // as count-group; HAVING runs at the coordinator
	"agg-expr-projection":        {7, 0},  // as count-group
	"sample":                     {7, 0},  // as count-group
	"group-concat-gather":        {11, 0}, // one ?s region/value star row per valued observation (obs7 has none)
	"count-distinct-gather":      {11, 0}, // as group-concat-gather
	"union":                      {6, 0},  // obs0/4/8 in r0 + obs1/5/9 in r1
	"optional":                   {12, 0}, // one row per region triple, obs7's ?v unbound
	"filter-contains":            {3, 0},  // obs0/5/10, all on shard 0
	"filter-not-exists":          {1, 0},  // obs7
	"select-star-exists":         {3, 0},  // obs0/5/10, all on shard 0; shards 1 and 2 match no row
	"closure-gather":             {4, 0},  // gathers the 4 knows triples
	"closure-zero-length-gather": {4, 0},  // gathers the 4 knows triples; r0 is in none of them
	"join-bound":                 {16, 4}, // 12 region rows + 4 partOf rows for the 4 distinct ?r
	"join-bound-chain":           {8, 5},  // 4 knows rows, 3 for ?b∈{p1,p2,p3}, 1 for ?c∈{p2,p3}
	"join-bound-pushed-filter":   {8, 2},  // 2 partOf rows with ?c=cA (r0,r1), then their 6 observations
	"join-bound-residual-filter": {16, 4}, // as join-bound; the filter runs at the coordinator
	"join-bound-distinct":        {16, 4}, // as join-bound; DISTINCT runs at the coordinator
	"join-bound-expr-projection": {16, 4}, // as join-bound
	"join-bound-empty":           {12, 4}, // 12 region rows, their 4 distinct ?r match no nosuch triple
	"join-bound-ask":             {7, 3},  // 4 knows rows + 3 for ?b∈{p1,p2,p3}
	"values":                     {6, 0},  // obs0/4/8 in r0 + obs2/6/10 in r2, all valued
	"subselect-gather":           {14, 0}, // gathers the 3 r1 region triples + 11 value triples
	"ask-true":                   {0, 0},  // a shard answers ASK with a boolean, not rows
	"ask-false":                  {0, 0},  // a shard answers ASK with a boolean, not rows
	"mixed-dataset-agg":          {48, 0}, // every shard holds all 16 predicates: 3×16 partial rows
}

// TestDeterminismAcrossTopologies is the acceptance test: for the
// full corpus, every topology (1, 2, 3, 5 shards) returns
// byte-identical JSON, the answers agree with a single-node engine
// under each query's comparison mode, every topology picks the
// query's plan class, and the 3-shard topology ships exactly the rows
// and bindings pinned in shipped3.
func TestDeterminismAcrossTopologies(t *testing.T) {
	ts := determinismTriples()
	single := store.New()
	if err := single.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	engine := sparql.NewEngine(single)
	ctx := context.Background()

	topologies := []int{1, 2, 3, 5}
	coords := make([]*Coordinator, len(topologies))
	reg := obs.NewRegistry()
	for i, n := range topologies {
		var opts []Option
		if n == 3 {
			opts = append(opts, WithRegistry(reg))
		}
		coords[i] = newTopology(t, ts, n, opts...)
	}
	bindings := reg.Counter("re2xolap_shard_bound_bindings_total", "")

	for _, cq := range determinismCorpus() {
		t.Run(cq.name, func(t *testing.T) {
			var first []byte
			var firstRes *sparql.Results
			for i, n := range topologies {
				before := bindings.Value()
				res, meta, err := coords[i].QueryX(ctx, endpoint.Request{Query: cq.query})
				if err != nil {
					t.Fatalf("%d shards: %v", n, err)
				}
				if meta.Incomplete {
					t.Fatalf("%d shards: unexpected incomplete flag", n)
				}
				if meta.Plan != cq.plan {
					t.Errorf("%d shards: plan %s, want %s", n, meta.Plan, cq.plan)
				}
				if n == 3 {
					want, ok := shipped3[cq.name]
					if !ok {
						t.Fatalf("no shipped3 entry for %s", cq.name)
					}
					rows := 0
					for _, sc := range meta.Shards {
						rows += sc.Rows
					}
					if got := bindings.Value() - before; rows != want.rows || got != int64(want.bindings) {
						t.Errorf("3 shards: shipped %d rows and %d bindings, want %d and %d",
							rows, got, want.rows, want.bindings)
					}
				}
				enc := encode(t, res)
				if first == nil {
					first, firstRes = enc, res
					continue
				}
				if !bytes.Equal(first, enc) {
					t.Errorf("%d shards diverge from %d shards:\n%s\nvs\n%s",
						n, topologies[0], enc, first)
				}
			}

			want, err := engine.QueryString(cq.query)
			if err != nil {
				t.Fatalf("single node: %v", err)
			}
			switch cq.engineCompare {
			case "exact":
				if firstRes.IsAsk {
					if firstRes.Boolean != want.Boolean {
						t.Errorf("ask: coordinator %v, engine %v", firstRes.Boolean, want.Boolean)
					}
					return
				}
				g, w := canonRowsOrdered(firstRes), canonRowsOrdered(want)
				if fmt.Sprint(g) != fmt.Sprint(w) {
					t.Errorf("rows diverge from engine:\n got %v\nwant %v", g, w)
				}
			case "set":
				g, w := canonRows(firstRes), canonRows(want)
				if fmt.Sprint(g) != fmt.Sprint(w) {
					t.Errorf("row sets diverge from engine:\n got %v\nwant %v", g, w)
				}
			case "skip":
				if firstRes.Len() != want.Len() {
					t.Errorf("row count diverges from engine: got %d, want %d", firstRes.Len(), want.Len())
				}
			}
		})
	}
}

// canonRowsOrdered renders rows in result order (for exact compares).
func canonRowsOrdered(res *sparql.Results) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = sparql.CanonicalRowKey(r)
	}
	return out
}

// TestDeterminismMixedHTTPBackends runs part of the corpus against a
// topology mixing in-process and remote HTTP shards and checks the
// answers match the all-in-process topology byte for byte: the
// transport must not affect results.
func TestDeterminismMixedHTTPBackends(t *testing.T) {
	ts := determinismTriples()
	const n = 3
	parts := Partitioner{N: n}.Split(ts)
	stores := make([]*store.Store, n)
	for i := range stores {
		stores[i] = store.New()
		if err := stores[i].AddAll(parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 1 is remote: a real endpoint.Server behind httptest.
	srv := httptest.NewServer(endpoint.NewServer(stores[1]))
	defer srv.Close()
	mixed, err := New([]endpoint.Client{
		endpoint.NewInProcess(stores[0]),
		endpoint.NewHTTPClient(srv.URL),
		endpoint.NewInProcess(stores[2]),
	})
	if err != nil {
		t.Fatal(err)
	}
	local := newTopology(t, ts, n)

	ctx := context.Background()
	for _, cq := range determinismCorpus() {
		res1, _, err := mixed.QueryX(ctx, endpoint.Request{Query: cq.query})
		if err != nil {
			t.Fatalf("%s (mixed): %v", cq.name, err)
		}
		res2, _, err := local.QueryX(ctx, endpoint.Request{Query: cq.query})
		if err != nil {
			t.Fatalf("%s (local): %v", cq.name, err)
		}
		if !bytes.Equal(encode(t, res1), encode(t, res2)) {
			t.Errorf("%s: mixed HTTP/in-process topology diverges from in-process", cq.name)
		}
	}
}

// TestBoundJoinChunkDeterminism re-runs the corpus with a tiny
// bound-join chunk size: chunk boundaries are computed on the
// canonically sorted binding set, so the VALUES-constrained fetch
// queries — and therefore the answer bytes — must not depend on the
// chunk size.
func TestBoundJoinChunkDeterminism(t *testing.T) {
	ts := determinismTriples()
	base := newTopology(t, ts, 3)
	small := withBoundJoinChunk(newTopology(t, ts, 3), 2)
	ctx := context.Background()
	for _, cq := range determinismCorpus() {
		res1, _, err := base.QueryX(ctx, endpoint.Request{Query: cq.query})
		if err != nil {
			t.Fatalf("%s (default chunk): %v", cq.name, err)
		}
		res2, _, err := small.QueryX(ctx, endpoint.Request{Query: cq.query})
		if err != nil {
			t.Fatalf("%s (chunk=2): %v", cq.name, err)
		}
		if !bytes.Equal(encode(t, res1), encode(t, res2)) {
			t.Errorf("%s: chunk=2 diverges from default chunk", cq.name)
		}
	}
}

// TestGatherUnorderedAnswerCanonical: a gather answer without ORDER BY
// comes in canonical row order, with OFFSET and LIMIT cut from that
// order, so it follows from the query's solutions alone and not from
// which other triples the fetches happened to gather.
func TestGatherUnorderedAnswerCanonical(t *testing.T) {
	ctx := context.Background()
	ts := determinismTriples()
	const where = ` WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v . FILTER EXISTS { ?r <http://t/partOf> ?c } }`
	keys := func(res *sparql.Results) []string {
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = sparql.CanonicalRowKey(r)
		}
		return out
	}
	for _, n := range []int{1, 3} {
		coord := newTopology(t, ts, n)
		full, meta, err := coord.QueryX(ctx, endpoint.Request{Query: "SELECT ?r ?v" + where})
		if err != nil {
			t.Fatal(err)
		}
		if meta.Plan != "gather" {
			t.Fatalf("plan %s, want gather", meta.Plan)
		}
		all := keys(full)
		if len(all) < 6 || !sort.StringsAreSorted(all) {
			t.Fatalf("%d shards: %d rows, want at least 6 in canonical order: %q", n, len(all), all)
		}
		cut, err := coord.Query(ctx, "SELECT ?r ?v"+where+" LIMIT 3 OFFSET 2")
		if err != nil {
			t.Fatal(err)
		}
		if got := keys(cut); !slices.Equal(got, all[2:5]) {
			t.Fatalf("%d shards: LIMIT 3 OFFSET 2 gave %q, want %q", n, got, all[2:5])
		}
		distinct, err := coord.Query(ctx, "SELECT DISTINCT ?r"+where)
		if err != nil {
			t.Fatal(err)
		}
		if got := keys(distinct); !sort.StringsAreSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Fatalf("%d shards: DISTINCT gave %q", n, got)
		}
		coord.Close()
	}
}

// TestOrderByExpressionSingleNode: ORDER BY keys that are bracketed
// expressions or bare calls, aggregates and unprojected variables
// answer at 3 shards byte for byte as the single node does, in the
// plan class each shape takes, and where the order is written out by
// hand, in that order: a partial aggregate ordered on COUNT over groups
// of distinct counts and on an unprojected SUM, a colocated star
// ordered on an unprojected variable (gather, since the shards' lines
// cannot carry the key) and a bound join ordered on one.
func TestOrderByExpressionSingleNode(t *testing.T) {
	ts := determinismTriples()
	// Four categories of 3, 1, 4 and 2 members, so neither the IRIs'
	// nor the first-appearance order is the order of the counts.
	for k, size := range []int{3, 1, 4, 2} {
		cat := rdf.NewIRI(fmt.Sprintf("http://u/c%d", k))
		for m := 0; m < size; m++ {
			x := rdf.NewIRI(fmt.Sprintf("http://u/x%d_%d", k, m))
			ts = append(ts, rdf.NewTriple(x, rdf.NewIRI("http://u/cat"), cat), rdf.NewTriple(x, rdf.NewIRI("http://u/w"), rdf.NewInteger(int64(10*k+m))))
		}
	}
	single := store.New()
	if err := single.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	engine := sparql.NewEngine(single)
	c := newTopology(t, ts, 3)
	defer c.Close()
	for _, tc := range []struct {
		query, plan string
		want        []string // the first column, in order; nil: as the engine
	}{
		{`SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY (0 - ?v) STR(?s)`, "colocated", nil},
		{`SELECT ?r (COUNT(?s) AS ?n) WHERE { ?s <http://t/region> ?r } GROUP BY ?r ORDER BY (COUNT(?s)) STR(?r)`, "partial_agg", nil},
		{`SELECT ?c (COUNT(?x) AS ?n) WHERE { ?x <http://u/cat> ?c } GROUP BY ?c ORDER BY DESC(COUNT(?x))`, "partial_agg",
			[]string{"http://u/c2", "http://u/c0", "http://u/c3", "http://u/c1"}},
		{`SELECT ?c WHERE { ?x <http://u/cat> ?c . ?x <http://u/w> ?w } GROUP BY ?c ORDER BY DESC(SUM(?w))`, "partial_agg",
			[]string{"http://u/c2", "http://u/c3", "http://u/c1", "http://u/c0"}},
		{`SELECT ?s WHERE { ?s <http://t/value> ?v } ORDER BY DESC(?v) LIMIT 4`, "gather",
			[]string{"http://t/obs11", "http://t/obs10", "http://t/obs9", "http://t/obs8"}},
		{`SELECT ?s ?l WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v . ?r <http://t/label> ?l } ORDER BY DESC(?v) LIMIT 4`, "bound_join",
			[]string{"http://t/obs11", "http://t/obs10", "http://t/obs9", "http://t/obs8"}},
	} {
		q := tc.query
		want, err := engine.QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		got, meta, err := c.QueryX(context.Background(), endpoint.Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if meta.Plan != tc.plan {
			t.Errorf("%s: plan %s, want %s", q, meta.Plan, tc.plan)
		}
		if len(want.Rows) < 2 {
			t.Fatalf("%s: %d rows, too few to order", q, len(want.Rows))
		}
		if g, w := encode(t, got), encode(t, want); !bytes.Equal(g, w) {
			t.Errorf("%s:\n3 shards %s\n  single %s", q, g, w)
		}
		if tc.want == nil {
			continue
		}
		var first []string
		for _, r := range want.Rows {
			first = append(first, r[0].Value)
		}
		if !slices.Equal(first, tc.want) {
			t.Errorf("%s: order %q, want %q", q, first, tc.want)
		}
	}
}
