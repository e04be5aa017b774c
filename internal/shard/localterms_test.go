package shard

import (
	"context"
	"slices"
	"testing"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// TestReadQueriesLeaveShardDictionaries: read queries that bind terms
// no store holds — a BIND value, VALUES cells, a subquery's aggregate,
// a zero-length path's constant — answer through a 3-shard coordinator
// as on a single node, and grow no shard's dictionary.
func TestReadQueriesLeaveShardDictionaries(t *testing.T) {
	ctx := context.Background()
	ts := determinismTriples()
	single := store.New()
	if err := single.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	stores := []*store.Store{single}
	parts := Partitioner{N: 3}.Split(ts)
	backends := make([]endpoint.Client, len(parts))
	for i, part := range parts {
		st := store.New()
		if err := st.AddAll(part); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, st)
		backends[i] = endpoint.NewInProcess(st)
	}
	coord, err := New(backends)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	terms := make([]int, len(stores))
	for i, st := range stores {
		terms[i] = st.Dict().Len()
	}
	keys := func(res *sparql.Results) []string {
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = sparql.CanonicalRowKey(r)
		}
		slices.Sort(out)
		return out
	}
	for _, src := range []string{
		`SELECT ?s ?y WHERE { ?s <http://t/value> ?v . BIND (CONCAT(STR(?v), "-unseen") AS ?y) }`,
		`SELECT ?x ?s WHERE { VALUES ?x { <http://unseen/a> "unseen" } ?s <http://t/region> <http://t/r0> }`,
		`SELECT ?r ?avg ?c WHERE { { SELECT ?r (AVG(?v) AS ?avg) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r } ?r <http://t/partOf> ?c }`,
		`SELECT ?b WHERE { <http://unseen/start> <http://t/knows>* ?b }`,
	} {
		want, err := sparql.NewEngine(single).QueryString(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Query(ctx, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if g, w := keys(got), keys(want); len(w) == 0 || !slices.Equal(g, w) {
			t.Errorf("%s: coordinator\n%q\nsingle node\n%q", src, g, w)
		}
		for i, st := range stores {
			if n := st.Dict().Len(); n != terms[i] {
				t.Errorf("%s: store %d's dictionary grew from %d to %d terms", src, i, terms[i], n)
			}
		}
	}
}
