package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/par"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// probeReps is how often each probe repeats; the median is reported.
const probeReps = 5

// timeMedian runs fn probeReps times and returns the median seconds.
func timeMedian(fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// runProbes measures each layer in isolation on the workload's own
// dataset, by timing its public functions: the numbers a change to one
// layer should move first. They run after the timed phase of a traced
// run and never feed an end-to-end metric.
func runProbes(ctx context.Context, c *cube, env *benchEnv, m metricSink) error {
	for _, probe := range []func(context.Context, *cube, *benchEnv, metricSink) error{
		probeRDFAndLoad, probeSnapshot, probeStoreReads, probeSparql, probePar, probeEndpoint, probeObs,
	} {
		if err := probe(ctx, c, env, m); err != nil {
			return err
		}
	}
	return nil
}

// probeRDFAndLoad: N-Triples bytes → decoder, and → Store.Load; the
// difference is what the store adds on top of parsing.
func probeRDFAndLoad(ctx context.Context, c *cube, env *benchEnv, m metricSink) error {
	var nt bytes.Buffer
	if err := c.spec.Write(&nt); err != nil {
		return err
	}
	triples := 0
	decodeS, err := timeMedian(func() error {
		dec := rdf.NewDecoder(bytes.NewReader(nt.Bytes()))
		triples = 0
		for {
			if _, err := dec.Decode(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
			triples++
		}
	})
	if err != nil {
		return err
	}
	var heapGrowth []float64
	loadS, err := timeMedian(func() error {
		before := liveHeap()
		st := store.New()
		if _, err := st.Load(bytes.NewReader(nt.Bytes())); err != nil {
			return err
		}
		heapGrowth = append(heapGrowth, float64(liveHeap()-before)/float64(st.Len()))
		runtime.KeepAlive(st)
		return nil
	})
	if err != nil {
		return err
	}
	// liveHeap forces a collection; take it out of the load time.
	gcS, _ := timeMedian(func() error { liveHeap(); liveHeap(); return nil })
	loadS -= gcS
	m.put("rdf.decode_triples_per_s", float64(triples)/decodeS, probeReps)
	m.put("store.load_build_s", loadS-decodeS, probeReps)
	m.put("store.load_triples_per_s", float64(triples)/loadS, probeReps)
	m.put("store.heap_bytes_per_triple", median(heapGrowth), probeReps)
	m.put("store.estimated_bytes_per_triple", float64(c.st.EstimatedBytes())/float64(c.st.Len()), 0)
	return nil
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func probeSnapshot(ctx context.Context, c *cube, env *benchEnv, m metricSink) error {
	var snap bytes.Buffer
	writeS, err := timeMedian(func() error {
		snap.Reset()
		return c.st.WriteSnapshot(&snap)
	})
	if err != nil {
		return err
	}
	readS, err := timeMedian(func() error {
		_, err := store.ReadSnapshot(bytes.NewReader(snap.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	m.put("store.snapshot_write_s", writeS, probeReps)
	m.put("store.snapshot_read_s", readS, probeReps)
	m.put("store.snapshot_bytes_per_triple", float64(snap.Len())/float64(c.st.Len()), 0)
	return nil
}

// probeStoreReads: point lookups and a predicate scan on a View, the
// same point lookups with a non-empty delta buffer, and full-text
// search.
func probeStoreReads(ctx context.Context, c *cube, env *benchEnv, m metricSink) error {
	rng := rand.New(rand.NewSource(subSeed(env.seed, "probe:store")))
	dict := c.st.Dict()
	dimPred, ok := dict.Lookup(rdf.NewIRI(c.spec.NS + c.spec.Dimensions[0].Pred))
	if !ok {
		return fmt.Errorf("probe: dimension predicate not in the dictionary")
	}
	const lookups = 20000
	subjects := make([]store.ID, lookups)
	for i := range subjects {
		subjects[i], ok = dict.Lookup(rdf.NewIRI(fmt.Sprintf("%sobs/%d", c.spec.NS, rng.Intn(c.spec.Observations))))
		if !ok {
			return fmt.Errorf("probe: observation not in the dictionary")
		}
	}
	point := func(v *store.View) (float64, error) {
		s, err := timeMedian(func() error {
			found := 0
			for _, sub := range subjects {
				// Run to the end of the match, so a delta buffer is scanned too.
				v.Match(sub, dimPred, 0, func(_, _, _ store.ID) bool { found++; return true })
			}
			if found == 0 {
				return fmt.Errorf("probe: point lookups found nothing")
			}
			return nil
		})
		return s * 1e9 / lookups, err
	}
	clean, err := point(c.st.View())
	if err != nil {
		return err
	}
	m.put("store.match_point_ns", clean, probeReps*lookups)

	rows := 0
	scanS, err := timeMedian(func() error {
		rows = 0
		c.st.View().Match(0, dimPred, 0, func(_, _, _ store.ID) bool { rows++; return true })
		return nil
	})
	if err != nil {
		return err
	}
	m.put("store.match_scan_ns_per_row", scanS*1e9/float64(max(rows, 1)), probeReps)

	// A copy of the store with 1000 triples waiting in the delta buffer.
	var snap bytes.Buffer
	if err := c.st.WriteSnapshot(&snap); err != nil {
		return err
	}
	dirty, err := store.ReadSnapshot(&snap)
	if err != nil {
		return err
	}
	for i := 0; i < 1000; i++ {
		t := rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("%sprobe/%d", c.spec.NS, i)), rdf.NewIRI(c.spec.NS+"probe"), rdf.NewInteger(int64(i)))
		if err := dirty.Add(t); err != nil {
			return err
		}
	}
	withDelta, err := point(dirty.View())
	if err != nil {
		return err
	}
	m.put("store.delta_read_penalty_ratio", ratio(withDelta, clean), probeReps*lookups)

	const searches = 200
	textS, err := timeMedian(func() error {
		for i := 0; i < searches; i++ {
			c.st.TextSearch(fmt.Sprintf("%s %d", c.spec.Dimensions[0].Display, i%c.spec.Dimensions[0].Members))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("store.textsearch_us", textS*1e6/searches, probeReps*searches)
	return nil
}

// probeQueries phrases one query per executor path against the cube.
func probeQueries(c *cube) map[string]string {
	ns := c.spec.NS
	obsClass := c.spec.ObservationClass()
	d0, d1 := ns+c.spec.Dimensions[0].Pred, ns+c.spec.Dimensions[1].Pred
	meas := ns + c.spec.Measures[0].Pred
	var rollup string
	for _, d := range c.spec.Dimensions {
		if len(d.Children) > 0 {
			rollup = ns + d.Children[0].Pred
			break
		}
	}
	return map[string]string{
		"bgp":     fmt.Sprintf(`SELECT ?o ?a ?b ?v WHERE { ?o a <%s> . ?o <%s> ?a . ?o <%s> ?b . ?o <%s> ?v }`, obsClass, d0, d1, meas),
		"groupby": fmt.Sprintf(`SELECT ?a ?b (SUM(?v) AS ?t) (AVG(?v) AS ?m) WHERE { ?o a <%s> . ?o <%s> ?a . ?o <%s> ?b . ?o <%s> ?v } GROUP BY ?a ?b`, obsClass, d0, d1, meas),
		"closure": fmt.Sprintf(`SELECT ?x ?lbl WHERE { ?x <%s>+ ?c . ?c <%s> ?lbl }`, rollup, rdf.RDFSLabel),
		"topk":    fmt.Sprintf(`SELECT ?a (SUM(?v) AS ?t) WHERE { ?o <%s> ?a . ?o <%s> ?v } GROUP BY ?a ORDER BY DESC(?t) LIMIT 10`, d0, meas),
	}
}

func probeSparql(ctx context.Context, c *cube, env *benchEnv, m metricSink) error {
	queries := probeQueries(c)
	eng := sparql.NewEngine(c.st)

	const parses = 200
	parseS, err := timeMedian(func() error {
		for i := 0; i < parses; i++ {
			if _, err := sparql.Parse(queries["groupby"]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.put("sparql.parse_us", parseS*1e6/parses, probeReps*parses)

	bgpRows := 0
	for _, kind := range []string{"bgp", "groupby", "closure", "topk"} {
		s, err := timeMedian(func() error {
			res, err := eng.QueryString(queries[kind])
			if err == nil && kind == "bgp" {
				bgpRows = res.Len()
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("probe %s: %w", kind, err)
		}
		m.put("sparql.exec_ms."+kind, s*1e3, probeReps)
		if kind == "bgp" {
			m.put("sparql.rows_per_ms", float64(bgpRows)/(s*1e3), probeReps)
		}
	}

	// Where the executor's time goes on an aggregation with a sort.
	var join, agg, srt, total []float64
	for i := 0; i < probeReps; i++ {
		_, pt, err := eng.QueryStringTimed(ctx, queries["topk"])
		if err != nil {
			return err
		}
		join, agg, srt = append(join, pt.Join.Seconds()), append(agg, pt.Aggregate.Seconds()), append(srt, pt.Sort.Seconds())
		total = append(total, pt.Total().Seconds())
	}
	m.put("sparql.phase_share.join", ratio(median(join), median(total)), probeReps)
	m.put("sparql.phase_share.aggregate", ratio(median(agg), median(total)), probeReps)
	m.put("sparql.phase_share.sort", ratio(median(srt), median(total)), probeReps)

	// One worker against one per CPU, same query.
	seq := sparql.NewEngine(c.st)
	seq.Exec.Workers = 1
	seqS, err := timeMedian(func() error { _, err := seq.QueryString(queries["groupby"]); return err })
	if err != nil {
		return err
	}
	parEng := sparql.NewEngine(c.st)
	parEng.Exec.Workers = env.nproc
	parS, err := timeMedian(func() error { _, err := parEng.QueryString(queries["groupby"]); return err })
	if err != nil {
		return err
	}
	m.put("sparql.workers_speedup", ratio(seqS, parS), probeReps)

	// How far the planner's cardinality estimates are from what the
	// operators produced: median of estimate/actual, over the probes.
	var errs []float64
	for _, kind := range []string{"bgp", "groupby", "topk"} {
		_, prof, err := eng.Profile(ctx, queries[kind])
		if err != nil {
			return err
		}
		for _, d := range prof.Deltas() {
			if d.Actual > 0 && d.Est > 0 {
				errs = append(errs, float64(d.Est)/float64(d.Actual))
			}
		}
	}
	m.put("sparql.est_error_ratio", median(errs), len(errs))
	return nil
}

func probePar(ctx context.Context, c *cube, env *benchEnv, m metricSink) error {
	const tasks = 100000
	s, err := timeMedian(func() error {
		return par.Do(env.nproc, tasks, func(int) error { return nil })
	})
	if err != nil {
		return err
	}
	m.put("par.task_overhead_ns", s*1e9/tasks, probeReps*tasks)
	return nil
}

// probeEndpoint: what the in-process client adds to the engine's own
// phases, what a loopback HTTP hop adds to the in-process client, and
// how fast results encode.
func probeEndpoint(ctx context.Context, c *cube, env *benchEnv, m metricSink) error {
	queries := probeQueries(c)
	q := queries["topk"]
	inproc := endpoint.NewInProcess(c.st)
	const reps = 40
	var over, inprocWall []float64
	for i := 0; i < reps; i++ {
		_, meta, err := inproc.QueryX(ctx, endpoint.Request{Query: q})
		if err != nil {
			return err
		}
		over = append(over, float64(meta.Wall-meta.Phases.Total())/float64(time.Microsecond))
		inprocWall = append(inprocWall, float64(meta.Wall)/float64(time.Microsecond))
	}
	m.put("endpoint.inproc_overhead_us", median(over), reps)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: endpoint.NewServer(c.st)}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	hc := endpoint.NewHTTPClient("http://" + ln.Addr().String() + "/sparql")
	var httpWall []float64
	var qerr error
	for i := 0; i < reps && qerr == nil; i++ {
		t0 := time.Now()
		_, qerr = hc.Query(ctx, q)
		httpWall = append(httpWall, float64(time.Since(t0))/float64(time.Microsecond))
	}
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	_ = srv.Shutdown(sctx)
	cancel()
	<-done
	hc.HTTP.CloseIdleConnections()
	if qerr != nil {
		return qerr
	}
	m.put("endpoint.http_overhead_us", median(httpWall)-median(inprocWall), reps)

	res, err := inproc.Query(ctx, queries["bgp"])
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	encS, err := timeMedian(func() error {
		buf.Reset()
		return endpoint.EncodeResults(&buf, res)
	})
	if err != nil {
		return err
	}
	m.put("endpoint.json_mb_per_s", float64(buf.Len())/(1<<20)/encS, probeReps)
	var sizes []float64
	for _, text := range queries {
		r, err := inproc.Query(ctx, text)
		if err != nil {
			return err
		}
		buf.Reset()
		if err := endpoint.EncodeResults(&buf, r); err != nil {
			return err
		}
		sizes = append(sizes, float64(buf.Len()))
	}
	m.put("endpoint.result_bytes_per_query", mean(sizes), len(sizes))
	return nil
}

// probeObs: the same queries through a client with and without a
// metrics registry attached.
func probeObs(ctx context.Context, c *cube, env *benchEnv, m metricSink) error {
	q := probeQueries(c)["topk"]
	bare := endpoint.NewInProcess(c.st)
	metered := endpoint.NewInProcess(c.st, endpoint.WithRegistry(obs.NewRegistry()))
	const reps = 30
	var a, b []float64
	for i := 0; i < reps; i++ { // interleaved, so drift hits both sides
		t0 := time.Now()
		if _, err := bare.Query(ctx, q); err != nil {
			return err
		}
		a = append(a, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := metered.Query(ctx, q); err != nil {
			return err
		}
		b = append(b, time.Since(t0).Seconds())
	}
	m.put("obs.registry_overhead_ratio", ratio(median(b), median(a)), reps)
	return nil
}
