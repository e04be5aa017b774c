package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"re2xolap/internal/core"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/refine"
	"re2xolap/internal/serve"
	"re2xolap/internal/sparql"
)

const tenantHeader = "X-Tenant"

// serveWorkload is the production read path: a loopback HTTP server
// (endpoint.NewClientServer) over serve.New — result cache of a stated
// capacity, single-flight, admission control keyed by a tenant header
// at limits that never shed — over one in-process store. nproc
// closed-loop HTTP clients replay recorded session traces: 75% of the
// picks come from a hot set of shared sessions that fits the cache,
// 25% walk a cold tail of distinct queries four times its capacity.
type serveWorkload struct {
	env   *benchEnv
	cube  *cube
	reg   *obs.Registry
	stack *serve.Stack
	srv   *http.Server
	done  chan struct{}

	clients []*endpoint.HTTPClient
	rngs    []*rand.Rand
	cursor  []int // per-client position in the cold tail
	hot     []replayQuery
	cold    []replayQuery
	hash    string

	base      serve.StackStats // counters at the end of warm-up
	baseEvict int64
}

// The hot set is what a team's shared dashboards look like: sessions
// that start from coarse groupings (at most hotMaxGroups rows) and
// rank, compare and dice them without drilling down. Their answers are
// small, so a hit costs what the serving path costs, not what JSON
// costs per row — and the median request sits well inside that
// cluster instead of on the edge between small and large answers.
const hotMaxGroups = 100

var hotKinds = []refine.Kind{refine.KindTopK, refine.KindSimilarity, refine.KindPercentile}

type replayQuery struct {
	text string
	want uint64
}

func (w *serveWorkload) setup(ctx context.Context, env *benchEnv) error {
	w.env = env
	c, err := buildCube(ctx, eurostatSpec(env.sc.serveObs), nil)
	if err != nil {
		return err
	}
	w.cube = c
	// The shared sessions are a fixture like the cube (a refinement's
	// answer size follows the example's rank, and answer size is what a
	// hit costs); the seed drives who asks what when, and the cold tail.
	rng := rand.New(rand.NewSource(subSeed(env.seed, "serve_shared")))
	sessions, err := recordSessions(ctx, c, rand.New(rand.NewSource(shapeOrder)), c.shapes(2, env.sc.hotSessions, hotMaxGroups), hotKinds)
	if err != nil {
		return err
	}
	ih := newInputHasher()
	ih.spec(c.spec, c.st.Len())
	oracle := func(text string) (replayQuery, error) {
		res, err := c.refCli.Query(ctx, text)
		if err != nil {
			return replayQuery{}, fmt.Errorf("oracle %q: %w", text, err)
		}
		q := replayQuery{text: text, want: hashRows(res)}
		ih.str(text)
		ih.u64(q.want)
		return q, nil
	}
	seen := map[string]bool{}
	var bases []*core.OLAPQuery
	for _, script := range sessions {
		for _, st := range script {
			if seen[st.SPARQL] {
				continue
			}
			seen[st.SPARQL] = true
			q, err := oracle(st.SPARQL)
			if err != nil {
				return err
			}
			w.hot = append(w.hot, q)
		}
		// The drill-downs of a session's first query are what the
		// analysts do not share: the cold tail is made of them.
		drills := refine.Disaggregate(c.g, script[0].query)
		for _, r := range drills[:min(2, len(drills))] {
			bases = append(bases, r.Query)
		}
	}
	if len(w.hot) > env.sc.cacheCap {
		return fmt.Errorf("hot set of %d queries does not fit the cache of %d", len(w.hot), env.sc.cacheCap)
	}
	// The cold tail: those queries diced on a distinct measure
	// threshold each, so every text is a different cache key and the
	// executor does the same kind of work as for the recorded steps.
	for i := 0; i < env.sc.coldQueries; i++ {
		q := bases[i%len(bases)].Clone()
		// Seeded thresholds, from disjoint ranges per round so no two
		// variants of a base share a text.
		q.Having = append(q.Having, core.MeasureFilter{Col: q.Aggregates[0].OutVar, Op: ">=", Value: float64(2 + 8*(i/len(bases)) + rng.Intn(8))})
		cq, err := oracle(q.ToSPARQL())
		if err != nil {
			return err
		}
		w.cold = append(w.cold, cq)
	}
	w.hash = ih.sum()

	// The stack, bottom to top. In a traced run each boundary gets a
	// wrapper; an untraced run has none installed.
	w.reg = obs.NewRegistry()
	var inner endpoint.Client = c.cli
	if env.tr != nil {
		inner = &traceClient{t: env.tr, layer: layerEndpoint, name: "inproc", inner: inner}
	}
	w.stack = serve.New(inner,
		serve.WithResultCache(env.sc.cacheCap),
		serve.WithAdmission(serve.AdmissionConfig{MaxConcurrent: 4 * env.nproc, QueueBudget: 16 * env.nproc}),
		serve.WithRegistry(w.reg))
	var front endpoint.Client = w.stack
	if env.tr != nil {
		front = &traceClient{t: env.tr, layer: layerServe, name: "stack", inner: front}
	}
	var handler http.Handler = endpoint.NewClientServer(front, endpoint.WithTenantHeader(tenantHeader), endpoint.WithRegistry(w.reg))
	if env.tr != nil {
		handler = traceHandler(env.tr, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: handler}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		_ = w.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	url := "http://" + ln.Addr().String() + "/sparql"
	for i := 0; i < env.nproc; i++ {
		hc := &http.Client{Transport: headerTransport{
			base:   &http.Transport{MaxIdleConnsPerHost: 4},
			tenant: fmt.Sprintf("analyst-%d", i),
		}}
		w.clients = append(w.clients, endpoint.NewHTTPClient(url, endpoint.WithHTTPClient(hc)))
		w.rngs = append(w.rngs, rand.New(rand.NewSource(subSeed(env.seed, fmt.Sprintf("serve_shared:client:%d", i)))))
		w.cursor = append(w.cursor, i*len(w.cold)/env.nproc)
	}
	return nil
}

// hashRows fingerprints a result by its variables and terms, in row
// order. Cheaper than re-encoding; used where the client is already
// paying for one JSON decode per answer.
func hashRows(res *sparql.Results) uint64 {
	h := fnv.New64a()
	for _, v := range res.Vars {
		writeStr(h, v)
	}
	if res.IsAsk {
		if res.Boolean {
			writeU64(h, 1)
		} else {
			writeU64(h, 2)
		}
	}
	for _, row := range res.Rows {
		for _, t := range row {
			writeU64(h, uint64(t.Kind))
			writeStr(h, t.Value)
			writeStr(h, t.Datatype)
			writeStr(h, t.Lang)
		}
	}
	return h.Sum64()
}

func (w *serveWorkload) pass(ctx context.Context, rec *recorder) {
	deadline := time.Now().Add(w.env.sc.serveSlice)
	recs := make([]*recorder, len(w.clients))
	var wg sync.WaitGroup
	for i := range w.clients {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.client(ctx, i, deadline, recs[i])
		}(i)
	}
	wg.Wait()
	for _, r := range recs {
		rec.merge(r)
	}
}

// client is one closed-loop analyst: the next request goes out only
// when the previous answer has been checked.
func (w *serveWorkload) client(ctx context.Context, i int, deadline time.Time, rec *recorder) {
	rng, cli := w.rngs[i], w.clients[i]
	for time.Now().Before(deadline) {
		var q replayQuery
		cold := rng.Float64() >= 0.75
		if cold {
			q = w.cold[w.cursor[i]%len(w.cold)]
			w.cursor[i]++
		} else {
			q = w.hot[rng.Intn(len(w.hot))]
		}
		rctx, end := w.env.tr.root(ctx, layerEndpoint, "http")
		t0 := time.Now()
		res, _, err := cli.QueryX(rctx, endpoint.Request{Query: q.text})
		d := time.Since(t0)
		var rows int64
		if res != nil {
			rows = int64(res.Len())
		}
		end(rows)
		switch {
		case err != nil:
			rec.fail("query", "%v", err)
		case hashRows(res) != q.want:
			rec.fail("query", "answer differs from the reference: %.80s", q.text)
		case cold:
			rec.ok("query", d, classStep, classAux)
		default:
			rec.ok("query", d, classStep)
		}
	}
}

func (w *serveWorkload) evictions() int64 {
	return w.reg.Counter("re2xolap_result_cache_evictions_total", "").Value()
}

func (w *serveWorkload) resetCounters() {
	w.base = w.stack.Stats()
	w.baseEvict = w.evictions()
}

func (w *serveWorkload) inputHash() string { return w.hash }

func (w *serveWorkload) probeTarget() *cube { return w.cube }

func (w *serveWorkload) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = w.srv.Shutdown(ctx)
	<-w.done
	for _, c := range w.clients {
		c.HTTP.CloseIdleConnections()
	}
}

func (w *serveWorkload) layerMetrics(all *recorder, spans []spanRec, m metricSink) {
	st := w.stack.Stats()
	hits := float64(st.CacheHits - w.base.CacheHits)
	misses := float64(st.CacheMisses - w.base.CacheMisses)
	coalesced := float64(st.Coalesced - w.base.Coalesced)
	execs := float64(st.Executions - w.base.Executions)
	requests := hits + misses
	m.put("serve.hit_ratio", ratio(hits, requests), int(requests))
	m.put("serve.coalesced_ratio", ratio(coalesced, requests), int(requests))
	m.put("serve.executions_per_request", ratio(execs, requests), int(requests))
	m.put("serve.evictions", float64(w.evictions()-w.baseEvict), 0)
	m.put("serve.sheds", float64(st.Sheds-w.base.Sheds), 0)
	m.put("serve.invalidation_miss_ratio", 0, 0)
	serveSpanMetrics(spans, m)
	p99, err := percentile(all.lat[classStep], 0.99)
	if err != nil {
		p99 = 0 // fewer than 1000 samples: no p99 to report
	}
	m.put("serve.query_p99_ms", p99, len(all.lat[classStep]))
	m.put("vgraph.bootstrap_s", w.cube.bootstrapS, 1)
	m.put("vgraph.bootstrap_queries", float64(w.cube.bootstrapQueries), 1)
	m.put("datagen.build_s", w.cube.buildS, 1)
	m.zero(append([]string{"core.", "refine.", "session.", "shard."}, storeWriteMetrics...)...)
}

// serveSpanMetrics reads the serve layer's own cost off the trace: a
// "stack" span with no execution under it is a hit (or a coalesced
// wait); one with an "inproc" child is a miss, and what the span adds
// on top of the child is the miss overhead — canonicalisation, cache
// bookkeeping, single-flight and admission, queue wait included.
func serveSpanMetrics(spans []spanRec, m metricSink) {
	inner := map[int32]int64{}
	for _, s := range spans {
		if s.Name == "inproc" {
			inner[s.Parent] += s.End - s.Start
		}
	}
	var hitUS, missUS, waitMS []float64
	for _, s := range spans {
		if s.Name != "stack" {
			continue
		}
		d := s.End - s.Start
		if in, ok := inner[s.ID]; ok {
			missUS = append(missUS, float64(d-in)/1e3)
		} else {
			hitUS = append(hitUS, float64(d)/1e3)
		}
	}
	for _, s := range spans {
		if s.Name == "queue-wait" {
			waitMS = append(waitMS, float64(s.End-s.Start)/1e6)
		}
	}
	m.put("serve.hit_us", median(hitUS), len(hitUS))
	m.put("serve.miss_overhead_us", median(missUS), len(missUS))
	p95, err := percentile(waitMS, 0.95)
	if err != nil {
		p95 = 0 // fewer than 200 executions were traced
	}
	m.put("serve.queue_wait_p95_ms", p95, len(waitMS))
}
