package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

func TestPartitionerStableAndComplete(t *testing.T) {
	p := Partitioner{N: 4}
	subjects := []rdf.Term{
		rdf.NewIRI("http://t/a"), rdf.NewIRI("http://t/b"),
		rdf.NewBlank("b0"), rdf.NewIRI("http://t/c"),
	}
	for _, s := range subjects {
		i := p.Shard(s)
		if i < 0 || i >= 4 {
			t.Fatalf("shard %d out of range for %s", i, s)
		}
		for k := 0; k < 3; k++ {
			if p.Shard(s) != i {
				t.Fatalf("unstable hash for %s", s)
			}
		}
	}
	if (Partitioner{N: 1}).Shard(subjects[0]) != 0 {
		t.Fatal("single shard must be 0")
	}
	// An IRI and a blank node with the same text must be free to land
	// on different shards — the kind byte participates in the hash.
	iri, blank := rdf.NewIRI("x"), rdf.NewBlank("x")
	_ = iri
	_ = blank // no assertion on placement, just exercising both kinds
	ts := determinismTriples()
	parts := p.Split(ts)
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	if total != len(ts) {
		t.Fatalf("split dropped triples: %d != %d", total, len(ts))
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		query string
		want  planKind
	}{
		{`SELECT ?s WHERE { ?s <http://t/p> ?o }`, planColocated},
		{`SELECT ?s ?v WHERE { ?s <http://t/p> ?o . ?s <http://t/q> ?v }`, planColocated},
		{`SELECT DISTINCT ?s WHERE { ?s <http://t/p> ?o } ORDER BY ?s LIMIT 3`, planColocated},
		{`ASK { ?s <http://t/p> ?o }`, planColocated},
		{`SELECT ?s WHERE { { ?s <http://t/p> ?o } UNION { ?s <http://t/q> ?o } }`, planColocated},
		{`SELECT ?s WHERE { ?s <http://t/p> ?o . FILTER NOT EXISTS { ?s <http://t/q> ?v } }`, planColocated},
		{`SELECT ?r (COUNT(?v) AS ?n) WHERE { ?s <http://t/r> ?r . ?s <http://t/v> ?v } GROUP BY ?r`, planPartialAgg},
		{`SELECT (SUM(?v) AS ?t) WHERE { ?s <http://t/v> ?v }`, planPartialAgg},
		// Cross-subject join: two star groups connected on ?r.
		{`SELECT ?s WHERE { ?s <http://t/p> ?r . ?r <http://t/q> ?c }`, planBoundJoin},
		// Closure.
		{`SELECT ?b WHERE { <http://t/a> <http://t/p>+ ?b }`, planGather},
		// Subselect.
		{`SELECT ?s WHERE { { SELECT ?s WHERE { ?s <http://t/p> ?o } } ?s <http://t/q> ?v }`, planGather},
		// EXISTS over a different subject.
		{`SELECT ?s WHERE { ?s <http://t/p> ?r . FILTER EXISTS { ?r <http://t/q> ?v } }`, planGather},
		// Non-decomposable aggregates.
		{`SELECT (COUNT(DISTINCT ?v) AS ?n) WHERE { ?s <http://t/v> ?v }`, planGather},
		{`SELECT ?r (GROUP_CONCAT(?v) AS ?all) WHERE { ?s <http://t/r> ?r . ?s <http://t/v> ?v } GROUP BY ?r`, planGather},
		// Pattern-free WHERE would duplicate rows per shard.
		{`SELECT ?x WHERE { VALUES ?x { <http://t/a> <http://t/b> } }`, planGather},
	}
	for _, c := range cases {
		q, err := sparql.Parse(c.query)
		if err != nil {
			t.Fatalf("parse %q: %v", c.query, err)
		}
		got := classify(q).kind
		if got != c.want {
			t.Errorf("classify(%s) = %s, want %s", c.query, got, c.want)
		}
	}
}

// downClient always fails with a permanent error (so the resilient
// wrapper does not retry-delay the test).
type downClient struct{}

func (downClient) Query(ctx context.Context, query string) (*sparql.Results, error) {
	return nil, endpoint.MarkPermanent(errors.New("shard down"))
}

func TestDegradedMode(t *testing.T) {
	ts := determinismTriples()
	parts := Partitioner{N: 3}.Split(ts)
	mk := func(i int) endpoint.Client {
		st := storeFromTriples(t, parts[i])
		return endpoint.NewInProcess(st)
	}
	query := `SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY ?s`

	// Strict mode: one dead shard fails the query.
	strict, err := New([]endpoint.Client{mk(0), downClient{}, mk(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := strict.QueryX(context.Background(), endpoint.Request{Query: query}); err == nil {
		t.Fatal("strict mode must fail when a shard is down")
	} else if !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("error should name the failed shard: %v", err)
	}

	// Degraded mode: partial answer, incomplete flag — the same answer
	// with and without a registry.
	bare, err := New([]endpoint.Client{mk(0), downClient{}, mk(2)}, WithDegraded(true))
	if err != nil {
		t.Fatal(err)
	}
	bres, bmeta, err := bare.QueryX(context.Background(), endpoint.Request{Query: query})
	if err != nil || !bmeta.Incomplete {
		t.Fatalf("degraded mode without a registry: incomplete=%v err=%v", bmeta.Incomplete, err)
	}
	reg := obs.NewRegistry()
	degraded, err := New([]endpoint.Client{mk(0), downClient{}, mk(2)}, WithDegraded(true), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	res, meta, err := degraded.QueryX(context.Background(), endpoint.Request{Query: query})
	if err != nil {
		t.Fatalf("degraded mode must answer: %v", err)
	}
	if !meta.Incomplete {
		t.Fatal("degraded answer must set Incomplete")
	}
	if !bytes.Equal(encode(t, bres), encode(t, res)) {
		t.Fatal("degraded answer differs without a registry")
	}
	full := newTopology(t, ts, 3)
	fres, _, err := full.QueryX(context.Background(), endpoint.Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() >= fres.Len() {
		t.Fatalf("degraded answer should be a strict subset: %d vs %d rows", res.Len(), fres.Len())
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "re2xolap_shard_incomplete_total 1") {
		t.Fatalf("incomplete counter missing:\n%s", buf.String())
	}

	// Bound-join plan, degraded: same contract.
	bq := `SELECT ?s ?c WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c } ORDER BY ?s`
	if _, meta, err := degraded.QueryX(context.Background(), endpoint.Request{Query: bq}); err != nil {
		t.Fatalf("degraded bound join must answer: %v", err)
	} else if meta.Plan != "bound_join" {
		t.Fatalf("expected bound_join plan, got %s", meta.Plan)
	} else if !meta.Incomplete {
		t.Fatal("degraded bound-join answer must set Incomplete")
	}

	// Gather plan, degraded: same contract.
	gq := `SELECT ?b WHERE { <http://t/r1> <http://t/partOf>+ ?b }`
	if _, meta, err := degraded.QueryX(context.Background(), endpoint.Request{Query: gq}); err != nil {
		t.Fatalf("degraded gather must answer: %v", err)
	} else if meta.Plan != "gather" {
		t.Fatalf("expected gather plan, got %s", meta.Plan)
	} else if !meta.Incomplete {
		t.Fatal("degraded gather answer must set Incomplete")
	}

	// All shards down: an error even in degraded mode.
	allDown, err := New([]endpoint.Client{downClient{}, downClient{}}, WithDegraded(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := allDown.QueryX(context.Background(), endpoint.Request{Query: query}); err == nil {
		t.Fatal("all-shards-down must fail even in degraded mode")
	}
}

// TestCoordinatorConcurrent hammers one coordinator from many
// goroutines across all three plans; `go test -race` makes this the
// scatter-gather race check.
func TestCoordinatorConcurrent(t *testing.T) {
	ts := determinismTriples()
	reg := obs.NewRegistry()
	c := newTopology(t, ts, 3, WithRegistry(reg))
	queries := []string{
		`SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY DESC(?v) LIMIT 4`,
		`SELECT ?r (COUNT(?v) AS ?n) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r ORDER BY ?r`,
		`SELECT ?s ?c WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c } ORDER BY ?s`,
		`ASK { ?s <http://t/region> <http://t/r1> }`,
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		res, _, err := c.QueryX(context.Background(), endpoint.Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = encode(t, res)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				i := (g + k) % len(queries)
				res, _, err := c.QueryX(context.Background(), endpoint.Request{Query: queries[i]})
				if err != nil {
					errCh <- err
					return
				}
				var buf bytes.Buffer
				if res.IsConstruct {
					continue
				}
				if err := endpoint.EncodeResults(&buf, res); err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(buf.Bytes(), want[i]) {
					errCh <- fmt.Errorf("concurrent result diverges for %q", queries[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestCoordinatorMetrics checks the per-shard and plan series land in
// the registry exposition.
func TestCoordinatorMetrics(t *testing.T) {
	ts := determinismTriples()
	reg := obs.NewRegistry()
	c := newTopology(t, ts, 3, WithRegistry(reg))
	ctx := context.Background()
	queries := []string{
		`SELECT ?s WHERE { ?s <http://t/region> ?r } LIMIT 2`,
		`SELECT (COUNT(?v) AS ?n) WHERE { ?s <http://t/value> ?v }`,
		`SELECT ?s ?c WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c }`,
		`SELECT ?b WHERE { <http://t/r1> <http://t/partOf>+ ?b }`,
	}
	for _, q := range queries {
		if _, _, err := c.QueryX(ctx, endpoint.Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	// Re-running the first query hits the plan cache.
	if _, _, err := c.QueryX(ctx, endpoint.Request{Query: queries[0]}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`re2xolap_shard_queries_total{shard="0"}`,
		`re2xolap_shard_queries_total{shard="2"}`,
		`re2xolap_shard_query_seconds_count{shard="1"}`,
		`re2xolap_shard_plans_total{plan="colocated"} 2`,
		`re2xolap_shard_plans_total{plan="partial_agg"} 1`,
		`re2xolap_shard_plans_total{plan="bound_join"} 1`,
		`re2xolap_shard_plans_total{plan="gather"} 1`,
		`re2xolap_shard_plan_cache_misses_total 4`,
		`re2xolap_shard_plan_cache_hits_total 1`,
		`re2xolap_shard_plan_cache_size 4`,
		`re2xolap_shard_bound_bindings_total`,
		`re2xolap_shard_fanout 3`,
		`re2xolap_shard_merge_seconds_count{phase="scatter"}`,
		`re2xolap_shard_merge_seconds_count{phase="join"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func storeFromTriples(t *testing.T, ts []rdf.Triple) *store.Store {
	t.Helper()
	st := store.New()
	if err := st.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPartialAggMixedTypeAvg: a group holding a number on one shard
// and a non-numeric literal on the other averages over the values SUM
// summed, exactly as a single node does — the pushed-down AVG count
// column must not count the non-numeric value.
func TestPartialAggMixedTypeAvg(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://t/" + s) }
	parts := [][]rdf.Triple{
		{{S: iri("s0"), P: iri("group"), O: iri("g")}, {S: iri("s0"), P: iri("value"), O: rdf.NewInteger(10)}},
		{{S: iri("s1"), P: iri("group"), O: iri("g")}, {S: iri("s1"), P: iri("value"), O: rdf.NewString("n/a")}},
	}
	coord, err := New([]endpoint.Client{
		endpoint.NewInProcess(storeFromTriples(t, parts[0])),
		endpoint.NewInProcess(storeFromTriples(t, parts[1])),
	})
	if err != nil {
		t.Fatal(err)
	}
	single := sparql.NewEngine(storeFromTriples(t, append(parts[0], parts[1]...)))
	for _, query := range []string{
		`SELECT ?g (AVG(?v) AS ?a) (COUNT(?v) AS ?n) WHERE { ?s <http://t/group> ?g . ?s <http://t/value> ?v } GROUP BY ?g`,
		`SELECT (AVG(?v) AS ?a) (COUNT(?v) AS ?n) WHERE { ?s <http://t/value> ?v }`,
	} {
		want, err := single.QueryString(query)
		if err != nil {
			t.Fatal(err)
		}
		got, meta, err := coord.QueryX(context.Background(), endpoint.Request{Query: query})
		if err != nil {
			t.Fatal(err)
		}
		if meta.Plan != "partial_agg" {
			t.Fatalf("plan = %q, want partial_agg", meta.Plan)
		}
		if g, w := encode(t, got), encode(t, want); !bytes.Equal(g, w) {
			t.Errorf("%s\nfederated %s\nsingle    %s", query, g, w)
		}
		ai, ni := want.Column("a"), want.Column("n")
		if a, n := want.Rows[0][ai].Value, want.Rows[0][ni].Value; a != "10" || n != "2" {
			t.Errorf("single node AVG = %s, COUNT = %s, want 10 and 2", a, n)
		}
	}
}
