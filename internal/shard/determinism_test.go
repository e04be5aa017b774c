package shard

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"

	"re2xolap/internal/corpus"
	"re2xolap/internal/endpoint"
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
}

// determinismCorpus adapts the shared 33-query corpus to the local
// field names the shard tests predate the extraction with.
func determinismCorpus() []corpusQuery {
	qs := corpus.Queries()
	out := make([]corpusQuery, len(qs))
	for i, q := range qs {
		out[i] = corpusQuery{name: q.Name, query: q.Query, engineCompare: q.EngineCompare}
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

// TestDeterminismAcrossTopologies is the acceptance test: for the
// full corpus, every topology (1, 2, 3, 5 shards) returns
// byte-identical JSON, and the answers agree with a single-node
// engine under each query's comparison mode.
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
	for i, n := range topologies {
		coords[i] = newTopology(t, ts, n)
	}

	for _, cq := range determinismCorpus() {
		t.Run(cq.name, func(t *testing.T) {
			var first []byte
			var firstRes *sparql.Results
			for i, n := range topologies {
				res, meta, err := coords[i].QueryX(ctx, endpoint.Request{Query: cq.query})
				if err != nil {
					t.Fatalf("%d shards: %v", n, err)
				}
				if meta.Incomplete {
					t.Fatalf("%d shards: unexpected incomplete flag", n)
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
	small := newTopology(t, ts, 3, WithBoundJoinChunk(2))
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
