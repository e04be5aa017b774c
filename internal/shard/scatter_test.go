package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/sparql"
)

// withBoundJoinChunk shrinks c's bound-join VALUES chunk, so a small
// binding set splits into several fetches per round.
func withBoundJoinChunk(c *Coordinator, n int) *Coordinator {
	c.chunk = n
	return c
}

// failingFetch refuses, with a permanent error, the queries fail
// picks and passes the rest through.
type failingFetch struct {
	inner endpoint.Client
	fail  func(query string) bool
}

func (f failingFetch) Query(ctx context.Context, query string) (*sparql.Results, error) {
	if f.fail(query) {
		return nil, endpoint.MarkPermanent(errors.New("fetch refused"))
	}
	return f.inner.Query(ctx, query)
}

func (f failingFetch) Unwrap() endpoint.Client { return f.inner }

// TestBoundJoinRoundAllOrNone: a shard that fails one VALUES chunk of
// a bound-join round joins none of that round's rows, not the rows of
// the chunks that succeeded. The chain query's step 1 ships ?b ∈
// {p1, p2, p3}, which chunk 2 splits into [p1 p2] and [p3]; shard 1
// holds p1, so its [p1 p2] fetch answers p1 knows p2 and p1 knows p3,
// and its [p3] fetch is refused. The only solution, p0→p1→p2→p3, runs
// through shard 1's step-1 row p1 knows p2, so without it the degraded
// answer is empty.
func TestBoundJoinRoundAllOrNone(t *testing.T) {
	const chain = `SELECT ?a ?c ?d WHERE { ?a <http://t/knows> ?b . ?b <http://t/knows> ?c . ?c <http://t/knows> ?d } ORDER BY ?a ?c ?d`
	ts := determinismTriples()
	parts := Partitioner{N: 3}.Split(ts)
	build := func(opts ...Option) *Coordinator {
		backends := make([]endpoint.Client, 3)
		for i := range backends {
			backends[i] = endpoint.NewInProcess(storeFromTriples(t, parts[i]))
		}
		backends[1] = failingFetch{inner: backends[1], fail: func(q string) bool {
			// Step 1's [p3] chunk: step 2's chunk [p2 p3] names p2 too.
			return strings.Contains(q, "VALUES") && strings.Contains(q, "<http://t/p3>") && !strings.Contains(q, "<http://t/p2>")
		}}
		c, err := New(backends, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return withBoundJoinChunk(c, 2)
	}
	ctx := context.Background()

	res, meta, err := build(WithDegraded(true)).QueryX(ctx, endpoint.Request{Query: chain})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Plan != "bound_join" {
		t.Fatalf("plan %s, want bound_join", meta.Plan)
	}
	if res.Len() != 0 {
		t.Errorf("answer joined rows of shard 1's failed round: %v", res.Rows)
	}
	if !meta.Incomplete || fmt.Sprint(meta.SkippedShards) != "[1]" {
		t.Errorf("Incomplete %v, SkippedShards %v; want true, [1]", meta.Incomplete, meta.SkippedShards)
	}
	if sc := meta.Shards[1]; !sc.Skipped || sc.Error == "" {
		t.Errorf("ShardCall[1] = %+v, want Skipped and Error set", sc)
	}

	if _, _, err := build().QueryX(ctx, endpoint.Request{Query: chain}); err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("strict mode: error %v, want one naming shard 1", err)
	}
}

// callCounter counts the queries that reach a backend.
type callCounter struct {
	inner endpoint.Client
	n     *atomic.Int64
}

func (c callCounter) Query(ctx context.Context, query string) (*sparql.Results, error) {
	c.n.Add(1)
	return c.inner.Query(ctx, query)
}

func (c callCounter) Unwrap() endpoint.Client { return c.inner }

// TestShardCallAccountsEveryCall runs the corpus twice at 3 shards,
// counting the queries each backend receives. On the second run every
// functional-predicate fact is cached, so each query's ShardCalls must
// account for exactly the calls its shards received; the shard query
// counters count the checks' calls as well, nothing stays in flight,
// and the rows and bindings shipped stay those pinned in shipped3.
func TestShardCallAccountsEveryCall(t *testing.T) {
	ts := determinismTriples()
	parts := Partitioner{N: 3}.Split(ts)
	counts := make([]atomic.Int64, 3)
	backends := make([]endpoint.Client, 3)
	for i := range backends {
		backends[i] = callCounter{inner: endpoint.NewInProcess(storeFromTriples(t, parts[i])), n: &counts[i]}
	}
	reg := obs.NewRegistry()
	c, err := New(backends, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bindings := reg.Counter("re2xolap_shard_bound_bindings_total", "")
	ctx := context.Background()
	for _, cq := range determinismCorpus() {
		for run := 0; run < 2; run++ {
			var before [3]int64
			for i := range counts {
				before[i] = counts[i].Load()
			}
			bound := bindings.Value()
			_, meta, err := c.QueryX(ctx, endpoint.Request{Query: cq.query})
			if err != nil {
				t.Fatalf("%s: %v", cq.name, err)
			}
			if run == 0 {
				continue
			}
			rows := 0
			for i, sc := range meta.Shards {
				rows += sc.Rows
				if got := counts[i].Load() - before[i]; int64(sc.Attempts) != got {
					t.Errorf("%s: shard %d: ShardCall.Attempts %d, calls received %d", cq.name, i, sc.Attempts, got)
				}
			}
			want := shipped3[cq.name]
			if got := bindings.Value() - bound; rows != want.rows || got != int64(want.bindings) {
				t.Errorf("%s: shipped %d rows and %d bindings, want %d and %d", cq.name, rows, got, want.rows, want.bindings)
			}
		}
	}
	for i := range counts {
		q := reg.Counter("re2xolap_shard_queries_total", "", obs.L("shard", fmt.Sprint(i)))
		if got, want := q.Value(), counts[i].Load(); got != want {
			t.Errorf("shard %d: re2xolap_shard_queries_total %d, calls received %d", i, got, want)
		}
	}
	if v := reg.Gauge("re2xolap_shard_scatter_inflight", "").Value(); v != 0 {
		t.Errorf("re2xolap_shard_scatter_inflight %d after the corpus, want 0", v)
	}
}
