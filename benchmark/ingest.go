package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/serve"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// storeWriteMetrics are the per-layer metrics only ingest_query's
// timed phase produces; they are 0 on every other workload.
var storeWriteMetrics = []string{"store.add_us", "store.compactions", "store.write_stall_max_ms", "store.restart_ms"}

// ingestWorkload uses the same store differently: writes beside reads.
// Set-up loads N-Triples bytes through Store.Load and round-trips a
// snapshot, each up to a first correct query. A pass then restarts
// from the snapshot bytes (ReadSnapshot up to a first correct answer)
// and has one client add batches of new observations through the
// delta buffer — exactly enough for one automatic compaction
// (store.DefaultAutoCompact) — while after every batch it reads a hot
// query set through a result cache, which the generation bump must
// invalidate and which must then hit again, and reads single values
// straight off a View. Expected answers are the set-up answers plus
// what the benchmark itself has written so far.
type ingestWorkload struct {
	env      *benchEnv
	cube     *cube // the store loaded in set-up; also the probe target
	snapshot []byte
	countQ   string // the "first correct query": number of observations
	hot      []ingestHot
	batches  []ingestBatch
	hash     string

	loadS, snapshotS float64
}

// ingestHot is one hot query with its answer over the set-up data.
type ingestHot struct {
	text         string
	baseN, baseT int64
}

// ingestBatch is one write batch with the oracle state after it.
type ingestBatch struct {
	triples []rdf.Triple
	// cumN / cumT: per hot query, observations and measure total the
	// batches up to and including this one have added.
	cumN, cumT []int64
	// points are (observation, value) pairs written by this batch, read
	// back through View.Match.
	pointObs []rdf.Term
	pointVal []int64
}

func (w *ingestWorkload) setup(ctx context.Context, env *benchEnv) error {
	w.env = env
	spec := eurostatSpec(env.sc.eurostatObs)
	t := newTimer()
	var nt bytes.Buffer
	if err := spec.Write(&nt); err != nil {
		return err
	}
	buildS := t.lap()

	obsClass := spec.ObservationClass()
	w.countQ = fmt.Sprintf(`SELECT (COUNT(?o) AS ?n) WHERE { ?o a <%s> }`, obsClass)
	firstAnswer := func(st *store.Store) error {
		res, err := endpoint.NewInProcess(st).Query(ctx, w.countQ)
		if err != nil {
			return err
		}
		if n, ok := cell(res, 0, 0); !ok || n != int64(spec.Observations) {
			return fmt.Errorf("first query counted %d observations, generated %d", n, spec.Observations)
		}
		return nil
	}

	// (a) N-Triples bytes → Store.Load → first correct query.
	t.lap()
	st := store.New()
	if _, err := st.Load(bytes.NewReader(nt.Bytes())); err != nil {
		return err
	}
	if err := firstAnswer(st); err != nil {
		return fmt.Errorf("after load: %w", err)
	}
	w.loadS = t.lap()

	// (b) WriteSnapshot → ReadSnapshot → same query.
	var snap bytes.Buffer
	if err := st.WriteSnapshot(&snap); err != nil {
		return err
	}
	w.snapshot = snap.Bytes()
	st2, err := store.ReadSnapshot(bytes.NewReader(w.snapshot))
	if err != nil {
		return err
	}
	if err := firstAnswer(st2); err != nil {
		return fmt.Errorf("after snapshot round trip: %w", err)
	}
	w.snapshotS = t.lap()

	w.cube = &cube{
		spec: spec, st: st, reg: obs.NewRegistry(), buildS: buildS,
		cli:    endpoint.NewInProcess(st),
		refCli: endpoint.NewInProcess(st, endpoint.WithWorkers(1)),
	}

	// (c) the write script: one compaction period of new observations.
	rng := rand.New(rand.NewSource(subSeed(env.seed, "ingest_query")))
	iri := func(local string) rdf.Term { return rdf.NewIRI(spec.NS + local) }
	member := func(d datagen.DimSpec, j int) rdf.Term { return iri(fmt.Sprintf("%s/m%d", d.Pred, j)) }
	hotDim := spec.Dimensions[0]
	meas := iri(spec.Measures[0].Pred)
	// Which members are hot is fixed like the cube: a hot read costs
	// what its member has rows. The seed drives what is written.
	hotMembers := rand.New(rand.NewSource(shapeOrder)).Perm(hotDim.Members)[:env.sc.ingestHot]
	ih := newInputHasher()
	ih.spec(spec, st.Len())
	for _, j := range hotMembers {
		h := ingestHot{text: fmt.Sprintf(`SELECT (COUNT(?o) AS ?n) (SUM(?v) AS ?t) WHERE { ?o <%s> %s . ?o <%s> ?v }`,
			spec.NS+hotDim.Pred, member(hotDim, j), meas.Value)}
		res, err := w.cube.refCli.Query(ctx, h.text)
		if err != nil {
			return fmt.Errorf("oracle %q: %w", h.text, err)
		}
		h.baseN, _ = cell(res, 0, 0)
		h.baseT, _ = cell(res, 0, 1)
		w.hot = append(w.hot, h)
		ih.str(h.text)
		ih.u64(uint64(h.baseN), uint64(h.baseT))
	}
	perObs := 2 + len(spec.Dimensions) // type + dimensions + measure
	need := (store.DefaultAutoCompact + perObs - 1) / perObs
	typePred, class := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(obsClass)
	cumN, cumT := make([]int64, len(w.hot)), make([]int64, len(w.hot))
	for k := 0; k < need; {
		var b ingestBatch
		for i := 0; i < env.sc.ingestBatch; i, k = i+1, k+1 {
			o := iri(fmt.Sprintf("obs/new/%d", k))
			b.triples = append(b.triples, rdf.NewTriple(o, typePred, class))
			v := int64(rng.ExpFloat64()*spec.Measures[0].Scale) + 1
			for _, d := range spec.Dimensions {
				j := rng.Intn(d.Members)
				b.triples = append(b.triples, rdf.NewTriple(o, iri(d.Pred), member(d, j)))
				if d.Pred == hotDim.Pred {
					for h, hj := range hotMembers {
						if hj == j {
							cumN[h]++
							cumT[h] += v
						}
					}
				}
			}
			b.triples = append(b.triples, rdf.NewTriple(o, meas, rdf.NewInteger(v)))
			if i < env.sc.ingestPoints {
				b.pointObs = append(b.pointObs, o)
				b.pointVal = append(b.pointVal, v)
			}
			ih.u64(uint64(v))
		}
		b.cumN, b.cumT = append([]int64(nil), cumN...), append([]int64(nil), cumT...)
		w.batches = append(w.batches, b)
	}
	w.hash = ih.sum()
	return nil
}

// cell reads an integer out of a result cell.
func cell(res *sparql.Results, row, col int) (int64, bool) {
	if res == nil || row >= len(res.Rows) || col >= len(res.Rows[row]) {
		return 0, false
	}
	f, ok := res.Rows[row][col].Numeric()
	return int64(f), ok
}

func (w *ingestWorkload) pass(ctx context.Context, rec *recorder) {
	tr := w.env.tr

	// Restart: snapshot bytes → a store that answers correctly.
	rctx, end := tr.root(ctx, layerStore, "restart")
	t0 := time.Now()
	st, err := store.ReadSnapshot(bytes.NewReader(w.snapshot))
	if err != nil {
		end(0)
		rec.fail("restart", "%v", err)
		return
	}
	var inner endpoint.Client = endpoint.NewInProcess(st)
	if tr != nil {
		inner = &traceClient{t: tr, layer: layerEndpoint, name: "inproc", inner: inner}
	}
	var stack endpoint.Client = serve.New(inner, serve.WithResultCache(w.env.sc.cacheCap))
	if tr != nil {
		stack = &traceClient{t: tr, layer: layerServe, name: "stack", inner: stack}
	}
	res, err := stack.Query(rctx, w.countQ)
	d := time.Since(t0)
	end(int64(st.Len()))
	if n, ok := cell(res, 0, 0); err != nil || !ok || n != int64(w.cube.spec.Observations) {
		rec.fail("restart", "first answer after restart: count %d, err %v", n, err)
		return
	}
	rec.ok("restart", d, "restart")

	meas, _ := st.Dict().Lookup(rdf.NewIRI(w.cube.spec.NS + w.cube.spec.Measures[0].Pred))
	for bi := range w.batches {
		b := &w.batches[bi]

		// Write: the batch's Adds, until a reader can see the last one.
		_, end := tr.root(ctx, layerStore, "add-batch")
		gen0 := st.Generation()
		t0 := time.Now()
		var addErr error
		for _, t := range b.triples {
			if err := st.Add(t); err != nil {
				addErr = err
				break
			}
		}
		dAdd := time.Since(t0)
		// A reader sees the store through a View taken after the write.
		visible := false
		last := b.triples[len(b.triples)-1]
		if id, ok := st.Dict().Lookup(last.S); ok {
			st.View().Match(id, meas, 0, func(_, _, _ store.ID) bool { visible = true; return false })
		}
		d := time.Since(t0)
		end(int64(len(b.triples)))
		switch {
		case addErr != nil:
			rec.fail("write", "%v", addErr)
			return
		case !visible:
			rec.fail("write", "batch %d not visible to a read after Add returned", bi)
			return
		}
		rec.ok("write", d, classAux)
		rec.sample("add_us", float64(dAdd)/float64(time.Microsecond)/float64(len(b.triples)))
		// Every new triple bumps the generation once; what is left over
		// is compactions.
		rec.add("compactions", float64(st.Generation()-gen0)-float64(len(b.triples)))

		// Hot reads: the first after a write must execute (and see the
		// write), the second must come from the cache.
		for h, hq := range w.hot {
			wantN, wantT := hq.baseN+b.cumN[h], hq.baseT+b.cumT[h]
			for attempt := 0; attempt < 2; attempt++ {
				qctx, end := tr.root(ctx, layerServe, "read")
				t0 := time.Now()
				res, meta, err := endpoint.QueryX(qctx, stack, endpoint.Request{Query: hq.text})
				d := time.Since(t0)
				end(int64(meta.Rows))
				n, _ := cell(res, 0, 0)
				sum, _ := cell(res, 0, 1)
				switch {
				case err != nil:
					rec.fail("read", "%v", err)
				case n != wantN || sum != wantT:
					rec.fail("read", "after batch %d: got count %d sum %d, want %d / %d (cache hit: %v)", bi, n, sum, wantN, wantT, meta.CacheHit)
				case attempt == 0 && meta.CacheHit:
					rec.fail("read", "after batch %d: served from the cache across a write", bi)
				case attempt == 0:
					rec.ok("read", d, classStep)
					rec.add("read.miss", 1)
				default:
					rec.ok("read", d, "read.again")
					if meta.CacheHit {
						rec.add("read.hit", 1)
					} else {
						rec.add("read.miss", 1)
					}
				}
			}
		}

		// Direct reads: values this batch wrote, straight off a View.
		for i, o := range b.pointObs {
			_, end := tr.root(ctx, layerStore, "match")
			t0 := time.Now()
			var got int64
			if id, ok := st.Dict().Lookup(o); ok {
				v := st.View()
				v.Match(id, meas, 0, func(_, _, val store.ID) bool {
					f, _ := v.Dict().Numeric(val)
					got = int64(f)
					return false
				})
			}
			d := time.Since(t0)
			end(1)
			if got != b.pointVal[i] {
				rec.fail("match", "%s: read %d, wrote %d", o.Value, got, b.pointVal[i])
				continue
			}
			rec.ok("match", d, "match")
		}
	}
}

func (w *ingestWorkload) resetCounters() {}

func (w *ingestWorkload) inputHash() string { return w.hash }

func (w *ingestWorkload) probeTarget() *cube { return w.cube }

func (w *ingestWorkload) close() {}

func (w *ingestWorkload) layerMetrics(all *recorder, spans []spanRec, m metricSink) {
	m.put("store.add_us", median(all.lat["add_us"]), len(all.lat["add_us"]))
	passes := all.phase("restart").Succeeded
	m.put("store.compactions", ratio(all.counts["compactions"], float64(passes)), passes) // per pass
	m.put("store.write_stall_max_ms", maxOf(all.lat[classAux]), len(all.lat[classAux]))
	m.put("store.restart_ms", median(all.lat["restart"]), len(all.lat["restart"]))
	reads := float64(all.phase("read").Succeeded)
	m.put("serve.invalidation_miss_ratio", ratio(all.counts["read.miss"], reads), int(reads))
	m.put("serve.hit_ratio", ratio(all.counts["read.hit"], reads), int(reads))
	m.put("serve.executions_per_request", ratio(all.counts["read.miss"], reads), int(reads))
	serveSpanMetrics(spans, m)
	m.put("datagen.build_s", w.cube.buildS, 1)
	m.zero("core.", "refine.", "session.", "shard.", "serve.", "vgraph.")
}
