package session

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"re2xolap/internal/core"
	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/qb"
	"re2xolap/internal/rdf"
	"re2xolap/internal/refine"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
	"re2xolap/internal/testkg"
	"re2xolap/internal/vgraph"
)

var allKinds = []refine.Kind{
	refine.KindDisaggregate, refine.KindTopK, refine.KindPercentile,
	refine.KindSimilarity, refine.KindCluster, refine.KindRollUp,
}

// derivable are the kinds whose refinements only append HAVING
// conditions, so Apply answers them from the current result.
var derivable = map[refine.Kind]bool{
	refine.KindTopK: true, refine.KindPercentile: true, refine.KindCluster: true,
}

// sameAnswer compares two answers tuple by tuple in row order: members,
// measure keys and measure bits.
func sameAnswer(got, want *core.ResultSet) error {
	if len(got.Tuples) != len(want.Tuples) {
		return fmt.Errorf("%d tuples, executed %d", len(got.Tuples), len(want.Tuples))
	}
	for i := range got.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if len(g.Dims) != len(w.Dims) || len(g.Measures) != len(w.Measures) {
			return fmt.Errorf("tuple %d: shape differs", i)
		}
		for d := range g.Dims {
			if g.Dims[d] != w.Dims[d] {
				return fmt.Errorf("tuple %d: dim %d is %v, executed %v", i, d, g.Dims[d], w.Dims[d])
			}
		}
		for k, v := range g.Measures {
			x, ok := w.Measures[k]
			if !ok || math.Float64bits(v) != math.Float64bits(x) {
				return fmt.Errorf("tuple %d: %s is %v, executed %v (present %v)", i, k, v, x, ok)
			}
		}
	}
	return nil
}

// diffCube is one dataset to explore in the differential test.
type diffCube struct {
	name    string
	triples []rdf.Triple
	cfg     qb.Config
}

func collect(spec datagen.Spec) []rdf.Triple {
	var ts []rdf.Triple
	spec.Generate(func(t rdf.Triple) { ts = append(ts, t) })
	return ts
}

func diffCubes(t *testing.T, seed int64) []diffCube {
	eu := datagen.EurostatLike(300)
	eu.Seed = seed
	db := datagen.DBpediaLike(300)
	db.Seed = seed
	var shrink func(ls []datagen.LevelSpec)
	shrink = func(ls []datagen.LevelSpec) {
		for i := range ls {
			ls[i].Members = max(2, ls[i].Members/400)
			shrink(ls[i].Children)
		}
	}
	for i := range db.Dimensions {
		db.Dimensions[i].Members = max(2, db.Dimensions[i].Members/400)
		shrink(db.Dimensions[i].Children)
	}
	return []diffCube{
		{"testkg", testkg.Build(t, nil).Triples(), testkg.Config()},
		{"testkg with n/a measures", withNonNumeric(testkg.Build(t, nil).Triples()), testkg.Config()},
		{"eurostat", collect(eu), eu.Config()},
		{"dbpedia", collect(db), db.Config()},
	}
}

// withNonNumeric adds observations whose measure is the string "n/a":
// two for a destination with no other observation (its SUM and AVG
// unbound, its MIN and MAX the string) and one for Sweden, mixed in
// with numbers.
func withNonNumeric(ts []rdf.Triple) []rdf.Triple {
	for i, dest := range []string{"xx", "xx", "se"} {
		obs := testkg.IRI(fmt.Sprintf("na%d", i))
		ts = append(ts,
			rdf.NewTriple(obs, rdf.NewIRI(rdf.RDFType), testkg.IRI("Observation")),
			rdf.NewTriple(obs, testkg.IRI("origin"), testkg.IRI("sy")),
			rdf.NewTriple(obs, testkg.IRI("dest"), testkg.IRI(dest)),
			rdf.NewTriple(obs, testkg.IRI("refPeriod"), testkg.IRI("m2014-01")),
			rdf.NewTriple(obs, testkg.IRI("sex"), testkg.IRI("male")),
			rdf.NewTriple(obs, testkg.IRI("numApplicants"), rdf.NewString("n/a")))
	}
	return ts
}

// load builds a store over the triples: compacted, or with every
// triple still pending in the write layers.
func load(t *testing.T, ts []rdf.Triple, compact bool) *store.Store {
	st := store.New()
	for _, tr := range ts {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	if compact {
		st.Compact()
	}
	return st
}

// startQuery groups by one or two random levels and anchors the example
// on a random tuple of the ungrouped answer.
func startQuery(ctx context.Context, t *testing.T, e *core.Engine, g *vgraph.Graph, cfg qb.Config, rng *rand.Rand) *core.OLAPQuery {
	dims := g.Dimensions()
	n := 1 + rng.Intn(min(2, len(dims)))
	var levels []*vgraph.Level
	for _, di := range rng.Perm(len(dims))[:n] {
		ls := g.LevelsOf(dims[di])
		levels = append(levels, ls[rng.Intn(len(ls))])
	}
	q := core.NewOLAPQuery(cfg.ObservationClass, levels, nil, g.Measures)
	rs, err := e.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() == 0 {
		return nil
	}
	tp := rs.Tuples[rng.Intn(rs.Len())]
	for i := range q.Dims {
		ex := tp.Dims[i]
		q.Dims[i].Example = &ex
	}
	return q
}

// TestDeriveMatchesExecution walks random sessions over the testkg
// fixture and the datagen eurostat and dbpedia cubes, on compacted and
// pending stores, with one and several executor workers. At every step
// it applies options of every kind; each Apply that issued no query is
// checked against executing the refinement, row for row.
func TestDeriveMatchesExecution(t *testing.T) {
	ctx := context.Background()
	derived := map[refine.Kind]int{}
	for seed := int64(1); seed <= 3; seed++ {
		for _, cube := range diffCubes(t, seed) {
			for _, compact := range []bool{true, false} {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("seed %d %s compact=%v workers=%d", seed, cube.name, compact, workers)
					st := load(t, cube.triples, compact)
					cli := endpoint.NewInProcess(st, endpoint.WithWorkers(workers))
					g, err := vgraph.Bootstrap(ctx, cli, cube.cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					e := core.NewEngine(cli, g, cube.cfg)
					rng := rand.New(rand.NewSource(seed*100 + int64(workers)))
					for s := 0; s < 2; s++ {
						q := startQuery(ctx, t, e, g, cube.cfg, rng)
						if q == nil {
							continue
						}
						walk(ctx, t, name, New(e, g), cli, q, rng, derived)
					}
				}
			}
		}
	}
	for k := range derivable {
		if derived[k] == 0 {
			t.Errorf("no %s step was derived", k)
		}
	}
	t.Logf("derived steps: %v", derived)
}

func walk(ctx context.Context, t *testing.T, name string, s *Session, cli *endpoint.InProcess, q *core.OLAPQuery, rng *rand.Rand, derived map[refine.Kind]int) {
	t.Helper()
	if _, err := s.Start(ctx, q); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for depth := 0; depth < 3; depth++ {
		var next []refine.Refinement
		for _, kind := range allKinds {
			opts, err := s.Options(ctx, kind)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, r := range opts {
				if i >= 2 {
					break
				}
				before := cli.QueryCount()
				got, err := s.Apply(ctx, r)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, r, err)
				}
				sent := cli.QueryCount() - before
				s.Backtrack()
				switch {
				case sent == 0 && !derivable[kind]:
					t.Errorf("%s: %s was derived", name, r)
				case sent == 0:
					derived[kind]++
					want, err := s.Engine.ExecuteTagged(ctx, r.Query, "check")
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := sameAnswer(got, want); err != nil {
						t.Errorf("%s: %s: derived answer differs: %v\n%s", name, r, err, r.Query.ToSPARQL())
					}
				case sent != 1:
					t.Errorf("%s: %s sent %d queries", name, r, sent)
				}
			}
			next = append(next, opts...)
		}
		if len(next) == 0 {
			return
		}
		if _, err := s.Apply(ctx, next[rng.Intn(len(next))]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// topKOption returns the first Top-K option at the current step.
func topKOption(t *testing.T, s *Session) refine.Refinement {
	t.Helper()
	opts, err := s.Options(context.Background(), refine.KindTopK)
	if err != nil || len(opts) == 0 {
		t.Fatalf("no top-k option: %v", err)
	}
	return opts[0]
}

// destSession is newSession over a fresh fixture whose engine reaches
// the in-process client through wrap.
func destSession(t *testing.T, wrap func(endpoint.Client) endpoint.Client) (*Session, *core.OLAPQuery, *store.Store, *endpoint.InProcess) {
	t.Helper()
	st, cli, g := testkg.BootstrapFixture(t, nil)
	s, q := newSession(t)
	s.Engine = core.NewEngine(wrap(cli), g, testkg.Config())
	s.Graph = g
	q.Dims[0].Level = g.LevelByKey(q.Dims[0].Level.Key())
	return s, q, st, cli
}

func direct(c endpoint.Client) endpoint.Client { return c }

// TestDeriveSendsAfterWrite: a store write between Start and Apply
// changes the generation, so the Top-K step is executed and its answer
// shows the write.
func TestDeriveSendsAfterWrite(t *testing.T) {
	ctx := context.Background()
	s, q, st, cli := destSession(t, direct)
	if _, err := s.Start(ctx, q); err != nil {
		t.Fatal(err)
	}
	r := topKOption(t, s)
	obs := testkg.IRI("late")
	for _, tr := range []rdf.Triple{
		rdf.NewTriple(obs, rdf.NewIRI(rdf.RDFType), testkg.IRI("Observation")),
		rdf.NewTriple(obs, testkg.IRI("dest"), testkg.IRI("de")),
		rdf.NewTriple(obs, testkg.IRI("numApplicants"), rdf.NewInteger(1000)),
	} {
		if err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	before := cli.QueryCount()
	got, err := s.Apply(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if sent := cli.QueryCount() - before; sent != 1 {
		t.Fatalf("Apply after a write sent %d queries, want 1", sent)
	}
	want, err := s.Engine.Execute(ctx, r.Query)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAnswer(got, want); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, tp := range got.Tuples {
		if tp.Dims[0] == testkg.IRI("de") {
			sum = tp.Measures[sumColumn(r.Query)]
		}
	}
	if sum != 1488 {
		t.Errorf("Germany's total after the write = %v, want 1488", sum)
	}
}

func sumColumn(q *core.OLAPQuery) string {
	for _, a := range q.Aggregates {
		if a.Func == "SUM" {
			return a.OutVar
		}
	}
	return ""
}

// TestDeriveSendsStaleRefinement: a Top-K option computed on a
// disaggregated step no longer extends the step Backtrack returns to,
// so applying it there executes it.
func TestDeriveSendsStaleRefinement(t *testing.T) {
	ctx := context.Background()
	s, q, _, cli := destSession(t, direct)
	if _, err := s.Start(ctx, q); err != nil {
		t.Fatal(err)
	}
	dis, err := s.Options(ctx, refine.KindDisaggregate)
	if err != nil || len(dis) == 0 {
		t.Fatal(dis, err)
	}
	var stale refine.Refinement
	for _, d := range dis {
		if _, err := s.Apply(ctx, d); err != nil {
			t.Fatal(err)
		}
		if opts, _ := s.Options(ctx, refine.KindTopK); len(opts) > 0 {
			stale = opts[0]
			break
		}
		s.Backtrack()
	}
	if stale.Query == nil {
		t.Fatal("no disaggregation offers a top-k option")
	}
	s.Backtrack()
	before := cli.QueryCount()
	got, err := s.Apply(ctx, stale)
	if err != nil {
		t.Fatal(err)
	}
	if sent := cli.QueryCount() - before; sent != 1 {
		t.Fatalf("stale refinement sent %d queries, want 1", sent)
	}
	if len(got.Query.Dims) != len(stale.Query.Dims) {
		t.Error("stale refinement answered with the current step's dimensions")
	}
}

// plainClient hides the in-process client's generation: it can only
// run queries.
type plainClient struct{ inner endpoint.Client }

func (c plainClient) Query(ctx context.Context, q string) (*sparql.Results, error) {
	return c.inner.Query(ctx, q)
}

// TestDeriveSendsWithoutGeneration: a client that cannot report its
// store generation before a query never derives.
func TestDeriveSendsWithoutGeneration(t *testing.T) {
	ctx := context.Background()
	s, q, _, cli := destSession(t, func(c endpoint.Client) endpoint.Client { return plainClient{c} })
	if _, err := s.Start(ctx, q); err != nil {
		t.Fatal(err)
	}
	r := topKOption(t, s)
	before := cli.QueryCount()
	if _, err := s.Apply(ctx, r); err != nil {
		t.Fatal(err)
	}
	if sent := cli.QueryCount() - before; sent != 1 {
		t.Fatalf("Apply without a generation source sent %d queries, want 1", sent)
	}
}
