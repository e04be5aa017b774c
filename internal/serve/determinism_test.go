package serve

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"re2xolap/internal/corpus"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/rdf"
	"re2xolap/internal/shard"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// encodeAny serializes like the protocol layer: SPARQL JSON for
// SELECT/ASK, N-Triples for CONSTRUCT.
func encodeAny(t *testing.T, res *sparql.Results) []byte {
	t.Helper()
	if res.IsConstruct {
		var buf bytes.Buffer
		for _, tr := range res.Triples {
			fmt.Fprintf(&buf, "%s %s %s .\n", tr.S, tr.P, tr.O)
		}
		return buf.Bytes()
	}
	return encode(t, res)
}

// corpusBackends builds the two acceptance topologies over the shared
// determinism dataset: a single in-process node and a 3-shard
// coordinator.
func corpusBackends(t *testing.T) map[string]func() endpoint.Client {
	t.Helper()
	ts := corpus.Triples()
	return map[string]func() endpoint.Client{
		"1-node": func() endpoint.Client {
			st := store.New()
			if err := st.AddAll(ts); err != nil {
				t.Fatal(err)
			}
			return endpoint.NewInProcess(st)
		},
		"3-shard": func() endpoint.Client {
			parts := shard.Partitioner{N: 3}.Split(ts)
			backends := make([]endpoint.Client, 3)
			for i := range backends {
				st := store.New()
				if err := st.AddAll(parts[i]); err != nil {
					t.Fatal(err)
				}
				backends[i] = endpoint.NewInProcess(st)
			}
			c, err := shard.New(backends)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
	}
}

// TestCorpusCacheByteIdentical is the cache acceptance test: over the
// full 35-query determinism corpus, on both a single node and a
// 3-shard topology, the cached stack's cold answer, its warm (cache
// hit) answer, and the uncached baseline are byte-identical.
func TestCorpusCacheByteIdentical(t *testing.T) {
	ctx := context.Background()
	for topo, mk := range corpusBackends(t) {
		t.Run(topo, func(t *testing.T) {
			baseline := mk()
			stack := New(mk(), WithResultCache(64))
			for _, cq := range corpus.Queries() {
				t.Run(cq.Name, func(t *testing.T) {
					want, _, err := endpoint.QueryX(ctx, baseline, endpoint.Request{Query: cq.Query})
					if err != nil {
						t.Fatalf("baseline: %v", err)
					}
					cold, coldMeta, err := stack.QueryX(ctx, endpoint.Request{Query: cq.Query})
					if err != nil {
						t.Fatalf("cold: %v", err)
					}
					if coldMeta.CacheHit {
						t.Error("cold run reported a cache hit")
					}
					warm, warmMeta, err := stack.QueryX(ctx, endpoint.Request{Query: cq.Query})
					if err != nil {
						t.Fatalf("warm: %v", err)
					}
					if !warmMeta.CacheHit {
						t.Error("warm run missed the cache")
					}
					wantB := encodeAny(t, want)
					if coldB := encodeAny(t, cold); !bytes.Equal(coldB, wantB) {
						t.Errorf("cold answer diverges from uncached baseline:\n%s\nvs\n%s", coldB, wantB)
					}
					if warmB := encodeAny(t, warm); !bytes.Equal(warmB, wantB) {
						t.Errorf("warm answer diverges from uncached baseline:\n%s\nvs\n%s", warmB, wantB)
					}
				})
			}
		})
	}
}

// TestCorpusInvalidationAcrossTopologies: a mutation on any backing
// store must invalidate the whole corpus's cached answers — the
// single-node stack sees the store generation, the shard stack the
// coordinator's composed token.
func TestCorpusInvalidationAcrossTopologies(t *testing.T) {
	ctx := context.Background()
	probe := rdf.Triple{
		S: rdf.NewIRI("http://t/obs0"), P: rdf.NewIRI("http://t/region"), O: rdf.NewIRI("http://t/r3"),
	}
	query := `SELECT ?r WHERE { <http://t/obs0> <http://t/region> ?r } ORDER BY ?r`

	ts := corpus.Triples()

	t.Run("1-node", func(t *testing.T) {
		st := store.New()
		if err := st.AddAll(ts); err != nil {
			t.Fatal(err)
		}
		stack := New(endpoint.NewInProcess(st), WithResultCache(64))
		res1, _, err := stack.QueryX(ctx, endpoint.Request{Query: query})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Add(probe); err != nil {
			t.Fatal(err)
		}
		res2, meta2, err := stack.QueryX(ctx, endpoint.Request{Query: query})
		if err != nil {
			t.Fatal(err)
		}
		if meta2.CacheHit {
			t.Error("post-mutation query served from cache")
		}
		if res2.Len() != res1.Len()+1 {
			t.Errorf("post-mutation rows = %d, want %d", res2.Len(), res1.Len()+1)
		}
	})

	t.Run("3-shard", func(t *testing.T) {
		parts := shard.Partitioner{N: 3}.Split(ts)
		stores := make([]*store.Store, 3)
		backends := make([]endpoint.Client, 3)
		for i := range backends {
			stores[i] = store.New()
			if err := stores[i].AddAll(parts[i]); err != nil {
				t.Fatal(err)
			}
			backends[i] = endpoint.NewInProcess(stores[i])
		}
		coord, err := shard.New(backends)
		if err != nil {
			t.Fatal(err)
		}
		stack := New(coord, WithResultCache(64))
		res1, _, err := stack.QueryX(ctx, endpoint.Request{Query: query})
		if err != nil {
			t.Fatal(err)
		}
		// Mutate whichever shard owns the probe subject — the
		// partitioner routes by subject, so add it everywhere it
		// belongs via the same partitioner.
		probeShard := shard.Partitioner{N: 3}.Shard(probe.S)
		if err := stores[probeShard].Add(probe); err != nil {
			t.Fatal(err)
		}
		res2, meta2, err := stack.QueryX(ctx, endpoint.Request{Query: query})
		if err != nil {
			t.Fatal(err)
		}
		if meta2.CacheHit {
			t.Error("post-mutation query served from cache (coordinator generation did not move)")
		}
		if res2.Len() != res1.Len()+1 {
			t.Errorf("post-mutation rows = %d, want %d", res2.Len(), res1.Len()+1)
		}
	})
}
