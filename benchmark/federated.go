package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/shard"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

const fedShards = 3

// federatedWorkload drives a 3-shard in-process coordinator
// (subject-hash partitions of the eurostat cube, plan cache on, result
// cache off) with one client, so fan-out and rows-shipped counts
// repeat exactly. The mix is a seeded, parameter-varied set of queries
// of every plan class plus recorded session queries; every answer is
// byte-compared with the single-node answer computed in set-up.
type federatedWorkload struct {
	env     *benchEnv
	cube    *cube
	reg     *obs.Registry
	coord   *shard.Coordinator
	front   endpoint.Client
	single  *endpoint.InProcess // same data on one node, default workers: the overhead ratios' base
	queries []fedQuery
	hash    string
	buf     bytes.Buffer

	baseHits, baseMisses, baseBound int64
}

type fedQuery struct {
	text string
	want uint64 // hash of the single-node answer's JSON encoding
	plan string // plan class the coordinator reported for it
	// ordered: the query has an ORDER BY, so row order is part of the
	// answer; otherwise rows are compared in canonical order.
	ordered bool
}

func (w *federatedWorkload) setup(ctx context.Context, env *benchEnv) error {
	w.env = env
	c, err := buildCube(ctx, eurostatSpec(env.sc.fedObs), nil)
	if err != nil {
		return err
	}
	w.cube = c
	w.single = endpoint.NewInProcess(c.st)
	rng := rand.New(rand.NewSource(subSeed(env.seed, "federated")))

	// Partition by subject hash, one store per shard, as `sparqld
	// -shards n` does.
	w.reg = obs.NewRegistry()
	backends := make([]endpoint.Client, fedShards)
	for i, ts := range (shard.Partitioner{N: fedShards}).Split(c.st.Triples()) {
		s := store.New()
		if err := s.AddAll(ts); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		backends[i] = endpoint.NewInProcess(s)
		if env.tr != nil {
			backends[i] = &traceClient{t: env.tr, layer: layerEndpoint, name: "shardcall", inner: backends[i]}
		}
	}
	// In-process shards cannot flake: the retry/breaker wrapper is not
	// what this workload measures.
	w.coord, err = shard.New(backends, shard.WithoutResilience(), shard.WithRegistry(w.reg))
	if err != nil {
		return err
	}
	w.front = w.coord
	if env.tr != nil {
		w.front = &traceClient{t: env.tr, layer: layerShard, name: "coordinator", inner: w.coord}
	}

	texts := planClassQueries(c.spec, rng, env.sc.fedPerClass)
	sessionTexts, err := w.sessionQueries(ctx, rng)
	if err != nil {
		return err
	}
	texts = append(texts, sessionTexts...)
	ih := newInputHasher()
	ih.spec(c.spec, c.st.Len())
	for _, text := range texts {
		res, err := c.refCli.Query(ctx, text)
		if err != nil {
			return fmt.Errorf("oracle %q: %w", text, err)
		}
		parsed, err := sparql.Parse(text)
		if err != nil {
			return fmt.Errorf("parse %q: %w", text, err)
		}
		ordered := len(parsed.OrderBy) > 0
		sum, _, err := hashResults(res, ordered, &w.buf)
		if err != nil {
			return err
		}
		w.queries = append(w.queries, fedQuery{text: text, want: sum, ordered: ordered})
		ih.str(text)
		ih.u64(sum)
	}
	w.hash = ih.sum()

	return nil
}

// sessionQueries records exploration sessions and keeps a fixed number
// of their step queries per side of the gather cliff: roll-up paths
// cross subjects, so those steps take the gather plan and cost an
// order of magnitude more than the pushed-down ones. Fixing both
// counts keeps the mix — and so the throughput — the same whatever the
// seed happened to record.
func (w *federatedWorkload) sessionQueries(ctx context.Context, rng *rand.Rand) ([]string, error) {
	wantGather, wantPushed := w.env.sc.fedGather, w.env.sc.fedPushed
	var gather, pushed []string
	seen := map[string]bool{}
	sessions, err := recordSessions(ctx, w.cube, rng, w.cube.shapes(2, w.env.sc.fedSessions, 0), sessionKinds)
	if err != nil {
		return nil, err
	}
	for _, script := range sessions {
		for _, st := range script {
			if seen[st.SPARQL] {
				continue
			}
			seen[st.SPARQL] = true
			// A roll-up path is what makes a step cross subjects; skip
			// running candidates of a class that is already full. The
			// class that counts is still the one the coordinator reports.
			if full := map[bool]bool{true: len(gather) >= wantGather, false: len(pushed) >= wantPushed}; full[strings.Contains(st.SPARQL, ">/<")] {
				continue
			}
			_, meta, err := w.coord.QueryX(ctx, endpoint.Request{Query: st.SPARQL})
			if err != nil {
				return nil, fmt.Errorf("classifying %q: %w", st.SPARQL, err)
			}
			if meta.Plan == "gather" {
				gather = append(gather, st.SPARQL)
			} else {
				pushed = append(pushed, st.SPARQL)
			}
		}
	}
	if len(gather) < wantGather || len(pushed) < wantPushed {
		return nil, fmt.Errorf("recorded only %d gather and %d pushed-down session queries, need %d and %d", len(gather), len(pushed), wantGather, wantPushed)
	}
	return append(gather[:wantGather:wantGather], pushed[:wantPushed]...), nil
}

// planClassQueries phrases n parameter-varied queries per coordinator
// plan class against the cube: a colocated observation star, a
// decomposable GROUP BY (partial aggregation), two cross-subject joins
// that run as bound joins — through the smallest dimension (few
// bindings ship) and through the widest (the worst-case ship) — and a
// transitive closure over a roll-up link, which needs the gather
// fallback.
func planClassQueries(spec datagen.Spec, rng *rand.Rand, n int) []string {
	pred := func(local string) string { return spec.NS + local }
	dims := spec.Dimensions
	meas := pred(spec.Measures[0].Pred)
	narrow, wide := dims[0], dims[0]
	var rollups []string
	for _, d := range dims {
		if d.Members < narrow.Members {
			narrow = d
		}
		if d.Members > wide.Members {
			wide = d
		}
		for _, ch := range d.Children {
			rollups = append(rollups, pred(ch.Pred))
		}
	}
	var out []string
	for i := 0; i < n; i++ {
		a := rng.Intn(len(dims))
		b := (a + 1 + rng.Intn(len(dims)-1)) % len(dims)
		out = append(out,
			fmt.Sprintf(`SELECT ?o ?m ?g ?v WHERE { ?o a <%s> . ?o <%s> ?m . ?o <%s> ?g . ?o <%s> ?v . FILTER(?v > %d) } ORDER BY ?o LIMIT %d`,
				spec.ObservationClass(), pred(dims[a].Pred), pred(dims[b].Pred), meas, rng.Intn(40), 200+100*rng.Intn(8)),
			fmt.Sprintf(`SELECT ?m (COUNT(?o) AS ?n) (SUM(?v) AS ?total) (AVG(?v) AS ?mean) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?o <%s> ?m . ?o <%s> ?v . FILTER(?v > %d) } GROUP BY ?m ORDER BY ?m`,
				pred(dims[a].Pred), meas, rng.Intn(40)),
			fmt.Sprintf(`SELECT ?o ?lbl WHERE { ?o <%s> ?m . ?m <%s> ?lbl } ORDER BY ?o ?lbl LIMIT %d`,
				pred(narrow.Pred), rdf.RDFSLabel, 100+50*rng.Intn(16)),
			fmt.Sprintf(`SELECT ?o ?lbl WHERE { ?o <%s> ?m . ?m <%s> ?lbl } ORDER BY ?o ?lbl LIMIT %d`,
				pred(wide.Pred), rdf.RDFSLabel, 100+50*rng.Intn(16)),
			fmt.Sprintf(`SELECT ?a ?lbl WHERE { ?a <%s>+ ?c . ?c <%s> ?lbl } ORDER BY ?a ?lbl LIMIT %d`,
				rollups[rng.Intn(len(rollups))], rdf.RDFSLabel, 100+50*rng.Intn(16)),
		)
	}
	return out
}

func (w *federatedWorkload) pass(ctx context.Context, rec *recorder) {
	for i := range w.queries {
		q := &w.queries[i]
		rctx, end := w.env.tr.root(ctx, layerShard, "query")
		t0 := time.Now()
		res, meta, err := endpoint.QueryX(rctx, w.front, endpoint.Request{Query: q.text})
		d := time.Since(t0)
		end(int64(meta.Rows))
		if err != nil {
			rec.fail("query", "%v: %.80s", err, q.text)
			continue
		}
		sum, size, err := hashResults(res, q.ordered, &w.buf)
		if err != nil || sum != q.want {
			rec.fail("query", "answer differs from the single-node answer: %.80s", q.text)
			continue
		}
		q.plan = meta.Plan
		classes := []string{classStep, "plan." + meta.Plan}
		if meta.Plan == "bound_join" {
			classes = append(classes, classAux)
		}
		rec.ok("query", d, classes...)
		rec.add("result.bytes", float64(size))
		// How unevenly the shards finished: slowest over mean.
		var slowest, sum2 float64
		for _, sc := range meta.Shards {
			sum2 += sc.WallMS
			if sc.WallMS > slowest {
				slowest = sc.WallMS
			}
		}
		if sum2 > 0 {
			rec.sample("skew", slowest*float64(len(meta.Shards))/sum2)
		}
	}
}

func (w *federatedWorkload) counter(name string) int64 { return w.reg.Counter(name, "").Value() }

func (w *federatedWorkload) resetCounters() {
	w.baseHits = w.counter("re2xolap_shard_plan_cache_hits_total")
	w.baseMisses = w.counter("re2xolap_shard_plan_cache_misses_total")
	w.baseBound = w.counter("re2xolap_shard_bound_bindings_total")
}

func (w *federatedWorkload) inputHash() string { return w.hash }

func (w *federatedWorkload) probeTarget() *cube { return w.cube }

func (w *federatedWorkload) close() {
	if w.coord != nil {
		w.coord.Close()
	}
}

var planClasses = []string{"colocated", "partial_agg", "bound_join", "gather"}

func (w *federatedWorkload) layerMetrics(all *recorder, spans []spanRec, m metricSink) {
	ctx := context.Background()
	queries := float64(all.phase("query").Succeeded)

	// The same queries on one node, three times each; the ratio of the
	// class medians is the plan class's federation overhead.
	singleMS := map[string][]float64{}
	for _, q := range w.queries {
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			if _, err := w.single.Query(ctx, q.text); err == nil {
				singleMS[q.plan] = append(singleMS[q.plan], ms(time.Since(t0)))
			}
		}
	}
	for _, plan := range planClasses {
		xs := all.lat["plan."+plan]
		m.put("shard.query_ms."+plan, median(xs), len(xs))
		m.put("shard.overhead_ratio."+plan, ratio(median(xs), median(singleMS[plan])), len(singleMS[plan]))
	}

	// Counts at the coordinator's own boundaries, from the traced
	// passes: calls into shard backends and rows they returned, per
	// coordinator query and per result row.
	roots, resultRows := spansNamed(spans, "coordinator")
	calls, shipped := spansNamed(spans, "shardcall")
	m.put("shard.fanout_per_query", ratio(float64(calls), float64(roots)), roots)
	m.put("shard.rows_shipped_per_result_row", ratio(float64(shipped), float64(resultRows)), roots)
	m.put("shard.bound_bindings_per_query", ratio(float64(w.counter("re2xolap_shard_bound_bindings_total")-w.baseBound), queries), int(queries))
	hits := float64(w.counter("re2xolap_shard_plan_cache_hits_total") - w.baseHits)
	misses := float64(w.counter("re2xolap_shard_plan_cache_misses_total") - w.baseMisses)
	m.put("shard.plan_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))

	// The coordinator's own share of a query: its span minus what the
	// shard calls under it cover.
	var coordSpans []spanRec
	var coordWall float64
	for _, s := range spans {
		switch s.Name {
		case "coordinator":
			coordWall += float64(s.End - s.Start)
			coordSpans = append(coordSpans, s)
		case "shardcall":
			coordSpans = append(coordSpans, s)
		}
	}
	coordSelf := float64(selfTimes(coordSpans)[layerShard])
	m.put("shard.coordinator_self_share", ratio(coordSelf, coordWall), roots)
	m.put("shard.slowest_shard_skew", median(all.lat["skew"]), len(all.lat["skew"]))

	m.put("vgraph.bootstrap_s", w.cube.bootstrapS, 1)
	m.put("vgraph.bootstrap_queries", float64(w.cube.bootstrapQueries), 1)
	m.put("datagen.build_s", w.cube.buildS, 1)
	m.zero(append([]string{"core.", "refine.", "session.", "serve."}, storeWriteMetrics...)...)
}
