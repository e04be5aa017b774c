package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"re2xolap/internal/core"
	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/refine"
	"re2xolap/internal/session"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
	"re2xolap/internal/vgraph"
)

// scale fixes every size the workloads depend on. The default is what
// BENCHMARK.json's bounds were measured at; quick is the smoke size.
// Sample counts are kept by shrinking the data, never the other way.
type scale struct {
	eurostatObs      int // observations of the eurostat-shaped cube (explore, ingest_query)
	serveObs         int // the same cube's size on serve_shared
	fedObs           int // and on federated, where gather plans ship whole relations
	dbpediaObs       int // observations of the dbpedia-shaped cube
	dbpediaMemberDiv int // divisor applied to every dbpedia level's member count

	examples     int // explore: distinct examples per pass over the pool
	sessionEvery int // explore: every how-manieth example continues as a session
	hotSessions  int // serve_shared: shared sessions forming the hot set
	cacheCap     int // serve_shared / ingest_query: result-cache capacity
	coldQueries  int // serve_shared: distinct cold-tail queries (>= 4x cacheCap)
	fedPerClass  int // federated: parameter variants per plan class
	fedSessions  int // federated: sessions recorded to draw step queries from
	fedGather    int // federated: replayed session queries that need the gather plan
	fedPushed    int // federated: replayed session queries the coordinator pushes down
	ingestBatch  int // ingest_query: observations per write batch
	ingestHot    int // ingest_query: hot queries read after every batch
	ingestPoints int // ingest_query: direct View.Match reads per cycle
	setupRepeats int // set-ups per untraced run; setup_s is their median

	serveSlice time.Duration // serve_shared: length of one pass
}

var (
	fullScale = scale{
		eurostatObs: 1500, serveObs: 1000, fedObs: 2000, dbpediaObs: 3000, dbpediaMemberDiv: 16,
		examples: 900, sessionEvery: 13, hotSessions: 12, cacheCap: 64, coldQueries: 256,
		fedPerClass: 4, fedSessions: 10, fedGather: 4, fedPushed: 6,
		ingestBatch: 64, ingestHot: 4, ingestPoints: 8,
		setupRepeats: 3, serveSlice: time.Second,
	}
	quickScale = scale{
		eurostatObs: 600, serveObs: 600, fedObs: 150, dbpediaObs: 300, dbpediaMemberDiv: 64,
		examples: 60, sessionEvery: 3, hotSessions: 3, cacheCap: 16, coldQueries: 64,
		fedPerClass: 4, fedSessions: 12, fedGather: 2, fedPushed: 2,
		ingestBatch: 256, ingestHot: 2, ingestPoints: 4,
		setupRepeats: 1, serveSlice: 250 * time.Millisecond,
	}
)

// subSeed derives an independent stream seed for one purpose, so that
// adding a consumer never shifts the numbers another one draws.
func subSeed(seed int64, purpose string) int64 {
	h := fnv.New64a()
	_ = binary.Write(h, binary.LittleEndian, seed)
	h.Write([]byte(purpose))
	return int64(h.Sum64() >> 1)
}

// The cubes are fixtures: they keep the presets' own generator seeds.
// --seed drives what the clients ask, not what the store holds; a
// refinement's cost depends on the values it ranks, and a cube that
// changed with the seed would move every latency with it.

// eurostatSpec is the aggregation-heavy cube (4 dimensions, 373
// members).
func eurostatSpec(observations int) datagen.Spec {
	return datagen.EurostatLike(observations)
}

// dbpediaSpec keeps the dbpedia shape (5 dimensions, 23 levels, M-to-N
// steps) and divides the member counts, so synthesis stays the heavy
// part while load and bootstrap fit the set-up budget.
func dbpediaSpec(sc scale) datagen.Spec {
	s := datagen.DBpediaLike(sc.dbpediaObs)
	var shrink func(ls []datagen.LevelSpec)
	shrink = func(ls []datagen.LevelSpec) {
		for i := range ls {
			ls[i].Members = max(2, ls[i].Members/sc.dbpediaMemberDiv)
			shrink(ls[i].Children)
		}
	}
	for i := range s.Dimensions {
		s.Dimensions[i].Members = max(2, s.Dimensions[i].Members/sc.dbpediaMemberDiv)
		shrink(s.Dimensions[i].Children)
	}
	return s
}

// cube is one loaded dataset with the measured query path (client,
// engine) and the reference path (Workers=1 everywhere) the oracle
// answers come from.
type cube struct {
	spec datagen.Spec
	st   *store.Store
	reg  *obs.Registry
	cli  *endpoint.InProcess // measured: default workers, registry attached
	g    *vgraph.Graph
	eng  *core.Engine

	refCli *endpoint.InProcess // reference: sequential executor, no registry
	refEng *core.Engine

	buildS, bootstrapS float64
	bootstrapQueries   int64
}

// buildCube generates, loads and bootstraps one dataset. via, when
// non-nil, wraps the measured client before the engine sees it (the
// traced run's endpoint boundary).
func buildCube(ctx context.Context, spec datagen.Spec, via func(endpoint.Client) endpoint.Client) (*cube, error) {
	c := &cube{spec: spec, reg: obs.NewRegistry()}
	t := newTimer()
	st, err := spec.BuildStore()
	if err != nil {
		return nil, err
	}
	c.st = st
	c.buildS = t.lap()
	c.cli = endpoint.NewInProcess(st, endpoint.WithRegistry(c.reg))
	c.refCli = endpoint.NewInProcess(st, endpoint.WithWorkers(1))
	c.g, err = vgraph.Bootstrap(ctx, c.cli, spec.Config())
	if err != nil {
		return nil, fmt.Errorf("bootstrap %s: %w", spec.Name, err)
	}
	c.bootstrapS = t.lap()
	c.bootstrapQueries = c.cli.QueryCount()
	var measured endpoint.Client = c.cli
	if via != nil {
		measured = via(measured)
	}
	c.eng = core.NewEngine(measured, c.g, spec.Config())
	c.eng.Instrument(c.reg)
	c.refEng = core.NewEngine(c.refCli, c.g, spec.Config())
	c.refEng.Workers = 1
	return c, nil
}

// shape is what an example looks like to the synthesizer: one level
// per chosen dimension. Latency depends on the shape — which levels,
// how many members carry the same label — far more than on the
// members, so the workloads enumerate shapes in a fixed order and let
// the seed choose only the members (and the cube's values). That keeps
// a metric's value from depending on which shapes a seed happened to
// draw.
type shape []*vgraph.Level

// shapeOrder seeds the fixed shuffle of the shape enumeration. It is a
// constant on purpose: see shape.
const shapeOrder = 20230328

// shapes returns n shapes of the given size: every combination of
// `size` dimensions and one level each, shuffled by shapeOrder, cycled
// if the cube has fewer than n. maxGroups > 0 keeps only shapes whose
// grouping can have at most that many rows.
func (c *cube) shapes(size, n, maxGroups int) []shape {
	dims := c.g.Dimensions()
	var all []shape
	var rec func(from int, cur shape)
	rec = func(from int, cur shape) {
		if len(cur) == size {
			groups := 1
			for _, l := range cur {
				groups *= l.MemberCount
			}
			if maxGroups <= 0 || groups <= maxGroups {
				all = append(all, append(shape(nil), cur...))
			}
			return
		}
		for d := from; d < len(dims); d++ {
			for _, l := range c.g.LevelsOf(dims[d]) {
				rec(d+1, append(cur, l))
			}
		}
	}
	rec(0, nil)
	if len(all) == 0 {
		return nil
	}
	rand.New(rand.NewSource(shapeOrder+int64(size))).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := make([]shape, n)
	for i := range out {
		out[i] = all[i%len(all)]
	}
	return out
}

// sampleExample draws one example of the given shape from the data:
// a random observation, walked along each level's path to the member,
// returned as the member labels an analyst would type. Sampling from
// an observation guarantees the combination is witnessed.
func (c *cube) sampleExample(rng *rand.Rand, sh shape) ([]string, bool) {
	dict := c.st.Dict()
	obsID, ok := dict.Lookup(rdf.NewIRI(fmt.Sprintf("%sobs/%d", c.spec.NS, rng.Intn(c.g.ObservationCount))))
	if !ok {
		return nil, false
	}
	labelID, ok := dict.Lookup(rdf.NewIRI(rdf.RDFSLabel))
	if !ok {
		return nil, false
	}
	first := func(s, p store.ID) store.ID {
		var out store.ID
		c.st.Match(s, p, 0, func(_, _, o store.ID) bool { out = o; return false })
		return out
	}
	var out []string
	for _, level := range sh {
		cur := obsID
		for _, p := range level.Path {
			pid, ok := dict.Lookup(rdf.NewIRI(p))
			if !ok {
				return nil, false
			}
			if cur = first(cur, pid); cur == 0 {
				return nil, false
			}
		}
		lbl := first(cur, labelID)
		if lbl == 0 {
			return nil, false
		}
		out = append(out, dict.Decode(lbl).Value)
	}
	return out, true
}

// synthesizeShape draws examples of the shape until the reference
// engine synthesizes at least one query from one (sparse observations
// make single draws fail now and then) and returns that example, its
// candidates, and the index of the candidate a session should start
// from: the one that reads the example as the shape it was drawn from,
// if the engine found it, else the top-ranked one.
func (c *cube) synthesizeShape(ctx context.Context, rng *rand.Rand, sh shape) ([]string, []core.Candidate, int, error) {
	for tries := 0; tries < 200; tries++ {
		ex, ok := c.sampleExample(rng, sh)
		if !ok {
			continue
		}
		cands, err := c.refEng.Synthesize(ctx, core.Keywords(ex...))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("oracle synthesize %v: %w", ex, err)
		}
		if len(cands) == 0 {
			continue
		}
		return ex, cands, shapeCandidate(cands, sh), nil
	}
	return nil, nil, 0, fmt.Errorf("%s: no example of shape %v synthesizes a query", c.spec.Name, sh)
}

// shapeCandidate is the index of the candidate grouping exactly the
// shape's levels, 0 when there is none.
func shapeCandidate(cands []core.Candidate, sh shape) int {
	for i, cand := range cands {
		if len(cand.Query.Dims) != len(sh) {
			continue
		}
		all := true
		for _, l := range sh {
			all = all && cand.Query.HasLevel(l)
		}
		if all {
			return i
		}
	}
	return 0
}

// sessionKinds is the refinement cycle every scripted session walks.
var sessionKinds = []refine.Kind{refine.KindDisaggregate, refine.KindTopK, refine.KindSimilarity, refine.KindPercentile}

// stepScript is one recorded exploration step: which refinement was
// asked for, how many options came back, which one was applied, and
// the fingerprint of the result the step must reproduce.
type stepScript struct {
	Kind    refine.Kind // "" for the session's Start
	Options int
	Pick    int
	SPARQL  string
	Rows    int
	Hash    uint64
	query   *core.OLAPQuery
}

// walkSession runs Start plus one Options+Apply per refinement kind on
// the reference engine and records the walk. A kind that offers no
// option at that point is left out of the script, so a replay performs
// exactly the recorded steps. Which option is applied comes from
// picks, a fixed stream like the shape order, not from the seed.
func walkSession(ctx context.Context, c *cube, q *core.OLAPQuery, kinds []refine.Kind, picks *rand.Rand) ([]stepScript, error) {
	sess := session.New(c.refEng, c.g)
	rs, err := sess.Start(ctx, q)
	if err != nil {
		return nil, err
	}
	script := []stepScript{{SPARQL: q.ToSPARQL(), Rows: rs.Len(), Hash: hashResultSet(rs), query: q}}
	for _, kind := range kinds {
		opts, err := sess.Options(ctx, kind)
		if err != nil {
			return nil, err
		}
		if len(opts) == 0 {
			continue
		}
		pick := picks.Intn(len(opts))
		rs, err := sess.Apply(ctx, opts[pick])
		if err != nil {
			return nil, err
		}
		script = append(script, stepScript{
			Kind: kind, Options: len(opts), Pick: pick,
			SPARQL: opts[pick].Query.ToSPARQL(), Rows: rs.Len(), Hash: hashResultSet(rs), query: opts[pick].Query,
		})
	}
	return script, nil
}

// recordSessions walks one session per shape, from seeded examples,
// and returns their scripts. Recording uses the program itself, which
// is why every workload also prints a fingerprint of what was
// recorded.
func recordSessions(ctx context.Context, c *cube, rng *rand.Rand, shapes []shape, kinds []refine.Kind) ([][]stepScript, error) {
	picks := rand.New(rand.NewSource(shapeOrder))
	var out [][]stepScript
	for _, sh := range shapes {
		_, cands, start, err := c.synthesizeShape(ctx, rng, sh)
		if err != nil {
			return nil, err
		}
		script, err := walkSession(ctx, c, cands[start].Query, kinds, picks)
		if err != nil {
			return nil, err
		}
		out = append(out, script)
	}
	return out, nil
}

// --- fingerprints ---------------------------------------------------

func writeU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func writeStr(h hash.Hash64, s string) {
	writeU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

// hashResultSet fingerprints an OLAP result: every tuple's members and
// measure values, in result order.
func hashResultSet(rs *core.ResultSet) uint64 {
	h := fnv.New64a()
	for _, t := range rs.Tuples {
		for _, d := range t.Dims {
			writeStr(h, d.String())
		}
		keys := make([]string, 0, len(t.Measures))
		for k := range t.Measures {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeStr(h, k)
			writeU64(h, math.Float64bits(t.Measures[k]))
		}
	}
	return h.Sum64()
}

// hashCandidates fingerprints a synthesis answer: the candidate
// queries, in rank order.
func hashCandidates(cands []core.Candidate) uint64 {
	h := fnv.New64a()
	for _, c := range cands {
		writeStr(h, c.Query.ToSPARQL())
	}
	return h.Sum64()
}

// hashResults fingerprints a SPARQL result by the bytes of its
// sparql-results+json encoding — the form a client receives — so two
// answers compare equal exactly when they are byte-identical. SPARQL
// leaves the row order of a query without ORDER BY open (a coordinator
// returns its canonical order, a single node its scan order), so for
// an unordered query the rows are put in canonical order first.
func hashResults(res *sparql.Results, ordered bool, buf *bytes.Buffer) (sum uint64, size int, err error) {
	if !ordered && len(res.Rows) > 1 {
		type keyed struct {
			key string
			row []rdf.Term
		}
		rows := make([]keyed, len(res.Rows))
		for i, row := range res.Rows {
			rows[i] = keyed{sparql.CanonicalRowKey(row), row}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
		sorted := *res
		sorted.Rows = make([][]rdf.Term, len(rows))
		for i, r := range rows {
			sorted.Rows[i] = r.row
		}
		res = &sorted
	}
	buf.Reset()
	if err := endpoint.EncodeResults(buf, res); err != nil {
		return 0, 0, err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64(), buf.Len(), nil
}

// inputHasher accumulates a workload's generated inputs; its sum is
// the run's input_hash.
type inputHasher struct{ h hash.Hash64 }

func newInputHasher() *inputHasher { return &inputHasher{h: fnv.New64a()} }

func (i *inputHasher) str(ss ...string) {
	for _, s := range ss {
		writeStr(i.h, s)
	}
}
func (i *inputHasher) u64(vs ...uint64) {
	for _, v := range vs {
		writeU64(i.h, v)
	}
}
func (i *inputHasher) spec(s datagen.Spec, triples int) {
	i.str(s.Name, fmt.Sprintf("%d/%d/%d/%d", s.Observations, s.Seed, s.MemberTotal(), triples))
}
func (i *inputHasher) sum() string { return fmt.Sprintf("%016x", i.h.Sum64()) }
