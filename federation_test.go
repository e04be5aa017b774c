package re2xolap

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"re2xolap/internal/rdf"
)

// shardStores partitions the dataset by subject hash into n stores,
// the colocation contract every coordinator topology assumes.
func shardStores(t *testing.T, st *Store, n int) []*Store {
	t.Helper()
	parts := ShardPartitioner{N: n}.Split(st.Triples())
	out := make([]*Store, n)
	for i, ts := range parts {
		s := NewStore()
		if err := s.AddAll(ts); err != nil {
			t.Fatal(err)
		}
		s.Compact()
		out[i] = s
	}
	return out
}

// TestCoordinatorClientOverClients federates in-process shard clients
// and checks plan classification, result parity with a
// single node, and that the whole synthesis stack runs on top.
func TestCoordinatorClientOverClients(t *testing.T) {
	ctx := context.Background()
	spec := EurostatLike(500)
	st, err := spec.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]Client, 3)
	for i, s := range shardStores(t, st, 3) {
		groups[i] = []Client{NewInProcessClient(s)}
	}
	coord, err := NewCoordinatorClient(groups)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// A cross-subject join takes the bound-join plan and must match the
	// single node byte for byte.
	single := NewInProcessClient(st)
	dim := spec.NS + spec.Dimensions[0].Pred
	q := fmt.Sprintf(
		`SELECT ?o ?lbl WHERE { ?o <%s> ?m . ?m <%s> ?lbl } ORDER BY ?o ?lbl LIMIT 100`,
		dim, rdf.RDFSLabel)
	want, err := single.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, meta, err := QueryX(ctx, coord, Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Plan != "bound_join" {
		t.Fatalf("plan = %q, want bound_join", meta.Plan)
	}
	if len(meta.Shards) != 3 {
		t.Fatalf("%d shard calls, want 3", len(meta.Shards))
	}
	if got.Len() != want.Len() {
		t.Fatalf("federated %d rows, single node %d", got.Len(), want.Len())
	}

	// The coordinator is a Client: bootstrap and synthesize over it.
	sys, err := Bootstrap(ctx, coord, spec.Config())
	if err != nil {
		t.Fatal(err)
	}
	cands, err := sys.Synthesize(ctx, "Country 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates over the federation")
	}
	rs, err := sys.Execute(ctx, cands[0].Query)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		t.Fatal("empty federated result set")
	}
}

// TestCoordinatorClientOverURLs federates HTTP shard endpoints dialed
// by ShardURLs.
func TestCoordinatorClientOverURLs(t *testing.T) {
	ctx := context.Background()
	spec := EurostatLike(300)
	st, err := spec.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	stores := shardStores(t, st, 2)
	groups := make([][]string, len(stores))
	for i, s := range stores {
		srv := httptest.NewServer(NewSPARQLServer(s))
		defer srv.Close()
		groups[i] = []string{srv.URL}
	}
	clients, err := ShardURLs(groups...)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinatorClient(clients)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	single := NewInProcessClient(st)
	obsClass := spec.ObservationClass()
	q := fmt.Sprintf(`SELECT (COUNT(?o) AS ?n) WHERE { ?o a <%s> }`, obsClass)
	want, err := single.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, meta, err := QueryX(ctx, coord, Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Plan != "partial_agg" {
		t.Fatalf("plan = %q, want partial_agg", meta.Plan)
	}
	if got.Len() != 1 || want.Len() != 1 || got.Rows[0][0].Value != want.Rows[0][0].Value {
		t.Fatalf("federated count diverges: got %v, want %v", got.Rows, want.Rows)
	}

	// A spec that is not a URL must be rejected by the default dialer.
	if _, err := ShardURLs([]string{"not-a-url"}); err == nil {
		t.Fatal("non-URL spec accepted by HTTP dialer")
	}
}
