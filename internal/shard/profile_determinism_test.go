package shard

import (
	"bytes"
	"context"
	"testing"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// TestProfilerDeterminism runs the full determinism corpus once bare
// and once under the runtime profiler and requires byte-identical
// results: collecting a per-operator profile must be pure
// observation, never perturbing row order, dedup, ties, or
// aggregation. Both the sequential and the parallel executor are
// checked, since the profiler treats fan-out specially (worker clones
// never profile).
func TestProfilerDeterminism(t *testing.T) {
	ts := determinismTriples()
	st := store.New()
	if err := st.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		engine := sparql.NewEngine(st)
		engine.Exec.Workers = workers
		for _, cq := range determinismCorpus() {
			bare, err := engine.QueryString(cq.query)
			if err != nil {
				t.Fatalf("%s (workers=%d) bare: %v", cq.name, workers, err)
			}
			profiled, p, err := engine.Profile(ctx, cq.query)
			if err != nil {
				t.Fatalf("%s (workers=%d) profiled: %v", cq.name, workers, err)
			}
			if !bytes.Equal(encode(t, bare), encode(t, profiled)) {
				t.Errorf("%s (workers=%d): profiled results diverge from bare:\n%s\nvs\n%s",
					cq.name, workers, encode(t, profiled), encode(t, bare))
			}
			if p == nil || p.Root == nil {
				t.Fatalf("%s (workers=%d): no profile tree", cq.name, workers)
			}
			if p.Root.RowsOut != profiled.Len() {
				t.Errorf("%s (workers=%d): profile root rows = %d, result rows = %d",
					cq.name, workers, p.Root.RowsOut, profiled.Len())
			}
		}
	}
}

// TestCoordinatorShardMeta checks the coordinator reports the plan
// class and per-shard accounting in QueryMeta.
func TestCoordinatorShardMeta(t *testing.T) {
	ts := determinismTriples()
	coord := newTopology(t, ts, 3)
	ctx := context.Background()
	for _, tc := range []struct {
		query string
		plan  string
	}{
		{`SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY ASC(?v)`, "colocated"},
		{`SELECT ?r (COUNT(?v) AS ?n) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r`, "partial_agg"},
		{`SELECT ?a WHERE { ?a <http://t/knows> ?b . ?b <http://t/knows> ?c }`, "bound_join"},
		{`SELECT ?b WHERE { <http://t/p0> <http://t/knows>+ ?b }`, "gather"},
	} {
		res, meta, err := coord.QueryX(ctx, endpoint.Request{Query: tc.query})
		if err != nil {
			t.Fatalf("%s: %v", tc.plan, err)
		}
		if meta.Plan != tc.plan {
			t.Errorf("plan = %q, want %q (query %s)", meta.Plan, tc.plan, tc.query)
		}
		if len(meta.Shards) != 3 {
			t.Fatalf("%s: %d shard calls, want 3", tc.plan, len(meta.Shards))
		}
		total := 0
		for i, call := range meta.Shards {
			if call.Shard != i {
				t.Errorf("%s: call %d has shard index %d", tc.plan, i, call.Shard)
			}
			if call.Error != "" {
				t.Errorf("%s: shard %d error %q", tc.plan, i, call.Error)
			}
			total += call.Rows
		}
		if res.Len() > 0 && total == 0 {
			t.Errorf("%s: result has %d rows but shards report none", tc.plan, res.Len())
		}
	}
}
