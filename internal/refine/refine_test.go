package refine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"re2xolap/internal/core"
	"re2xolap/internal/rdf"
	"re2xolap/internal/testkg"
	"re2xolap/internal/vgraph"
)

// destQuery synthesizes the "Germany as destination" query from the
// fixture and returns the engine, graph, query, and its results.
func destQuery(t *testing.T) (*core.Engine, *vgraph.Graph, *core.OLAPQuery, *core.ResultSet) {
	t.Helper()
	_, c, g := testkg.BootstrapFixture(t, nil)
	e := core.NewEngine(c, g, testkg.Config())
	ctx := context.Background()
	cands, err := e.Synthesize(ctx, core.Keywords("Germany"))
	if err != nil {
		t.Fatal(err)
	}
	var q *core.OLAPQuery
	for _, cand := range cands {
		if cand.Query.Dims[0].Level.String() == "dest" {
			q = cand.Query
		}
	}
	if q == nil {
		t.Fatal("destination interpretation missing")
	}
	rs, err := e.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	return e, g, q, rs
}

func sumCol(q *core.OLAPQuery) string {
	for _, a := range q.Aggregates {
		if a.Func == "SUM" {
			return a.OutVar
		}
	}
	return ""
}

func TestDisaggregateCandidates(t *testing.T) {
	_, g, q, _ := destQuery(t)
	refs := Disaggregate(g, q)
	// Levels: origin, origin/inContinent, refPeriod, refPeriod/inYear,
	// sex are addable; dest is present; dest/inContinent is coarser and
	// must be discarded.
	if len(refs) != 5 {
		for _, r := range refs {
			t.Logf("ref: %s", r.Why)
		}
		t.Fatalf("refinements = %d, want 5", len(refs))
	}
	for _, r := range refs {
		if r.Kind != KindDisaggregate {
			t.Errorf("kind = %s", r.Kind)
		}
		if len(r.Query.Dims) != len(q.Dims)+1 {
			t.Errorf("dims = %d, want %d", len(r.Query.Dims), len(q.Dims)+1)
		}
		if strings.Contains(r.Why, "dest / In Continent") {
			t.Errorf("coarser level proposed: %s", r.Why)
		}
		// The original example anchor must survive.
		if r.Query.Dims[0].Example == nil {
			t.Error("example anchor lost")
		}
	}
}

func TestDisaggregateDrillDownWithinDimension(t *testing.T) {
	// Build a query grouped at origin/inContinent, then check that the
	// finer origin level is proposed as a drill-down.
	_, c, g := testkg.BootstrapFixture(t, nil)
	e := core.NewEngine(c, g, testkg.Config())
	cands, err := e.Synthesize(context.Background(), core.Keywords("Asia"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates for Asia")
	}
	q := cands[0].Query
	if q.Dims[0].Level.String() != "origin/inContinent" {
		t.Fatalf("unexpected level %s", q.Dims[0].Level)
	}
	refs := Disaggregate(g, q)
	found := false
	for _, r := range refs {
		if strings.Contains(r.Why, "drill down") {
			found = true
			if len(r.Query.Dims) != 2 {
				t.Errorf("drill-down dims = %d", len(r.Query.Dims))
			}
		}
	}
	if !found {
		t.Error("within-dimension drill-down not proposed")
	}
}

func TestDisaggregatedQueryExecutes(t *testing.T) {
	e, g, q, rs := destQuery(t)
	refs := Disaggregate(g, q)
	for _, r := range refs {
		rs2, err := e.Execute(context.Background(), r.Query)
		if err != nil {
			t.Fatalf("refined query failed: %v\n%s", err, r.Query.ToSPARQL())
		}
		// Disaggregation cannot shrink below the original group count
		// and must keep the example.
		if rs2.Len() < rs.Len() {
			t.Errorf("refined result smaller: %d < %d (%s)", rs2.Len(), rs.Len(), r.Why)
		}
		if len(rs2.ExampleTuples()) == 0 {
			t.Errorf("example lost after %s", r.Why)
		}
	}
}

func TestTopK(t *testing.T) {
	e, _, q, rs := destQuery(t)
	refs := TopK(rs)
	if len(refs) == 0 {
		t.Fatal("no top-k refinements")
	}
	col := sumCol(q)
	var descRef *Refinement
	for i := range refs {
		if refs[i].Kind != KindTopK {
			t.Errorf("kind = %s", refs[i].Kind)
		}
		if strings.Contains(refs[i].Why, col) && strings.Contains(refs[i].Why, "descending") {
			descRef = &refs[i]
		}
	}
	if descRef == nil {
		t.Fatal("no descending sum refinement")
	}
	// Germany has the highest total (488), so descending top-k keeps
	// only Germany (top-1 above threshold 133).
	if !strings.Contains(descRef.Why, "top-1") {
		t.Errorf("why = %s, want top-1", descRef.Why)
	}
	rs2, err := e.Execute(context.Background(), descRef.Query)
	if err != nil {
		t.Fatalf("top-k query failed: %v\n%s", err, descRef.Query.ToSPARQL())
	}
	if rs2.Len() != 1 {
		t.Fatalf("top-k rows = %d, want 1\n%s", rs2.Len(), descRef.Query.ToSPARQL())
	}
	if rs2.Tuples[0].Dims[0] != testkg.IRI("de") {
		t.Errorf("kept tuple = %v", rs2.Tuples[0].Dims)
	}
	if len(rs2.ExampleTuples()) != 1 {
		t.Error("example lost in top-k refinement")
	}
}

func TestTopKNoExampleNoRefinement(t *testing.T) {
	_, _, _, rs := destQuery(t)
	// Strip the example anchors: no refinements possible.
	q2 := rs.Query.Clone()
	for i := range q2.Dims {
		q2.Dims[i].Example = nil
	}
	rs2 := &core.ResultSet{Query: q2, Tuples: rs.Tuples}
	// With no anchors every tuple "matches", so there is never a
	// matching tuple followed by a non-matching one... every tuple
	// matches: cut never happens.
	if refs := TopK(rs2); len(refs) != 0 {
		t.Errorf("refinements without example = %d, want 0", len(refs))
	}
}

func TestPercentile(t *testing.T) {
	e, _, q, rs := destQuery(t)
	refs := Percentile(rs)
	if len(refs) == 0 {
		t.Fatal("no percentile refinements")
	}
	col := sumCol(q)
	for _, r := range refs {
		if r.Kind != KindPercentile {
			t.Errorf("kind = %s", r.Kind)
		}
		rs2, err := e.Execute(context.Background(), r.Query)
		if err != nil {
			t.Fatalf("percentile query failed: %v\n%s", err, r.Query.ToSPARQL())
		}
		if len(rs2.ExampleTuples()) == 0 {
			t.Errorf("example lost in %s", r.Why)
		}
		if rs2.Len() >= rs.Len() && len(r.Query.Having) > 0 {
			// Germany is the maximum, so its interval (above 90th) is a
			// strict subset.
			if strings.Contains(r.Why, col) && strings.Contains(r.Why, "above") && rs2.Len() == rs.Len() {
				t.Errorf("percentile did not restrict: %s", r.Why)
			}
		}
	}
}

func TestPercentileEmptyResults(t *testing.T) {
	_, _, q, _ := destQuery(t)
	empty := &core.ResultSet{Query: q}
	if refs := Percentile(empty); len(refs) != 0 {
		t.Errorf("refinements on empty = %d", len(refs))
	}
}

func TestSimilarity(t *testing.T) {
	e, g, q, _ := destQuery(t)
	ctx := context.Background()
	// Add the year dimension so there are features to compare on.
	var q2 *core.OLAPQuery
	for _, r := range Disaggregate(g, q) {
		for _, d := range r.Query.Dims {
			if d.Level.String() == "refPeriod/inYear" {
				q2 = r.Query
			}
		}
	}
	if q2 == nil {
		t.Fatal("year disaggregation missing")
	}
	rs2, err := e.Execute(ctx, q2)
	if err != nil {
		t.Fatal(err)
	}
	refs := Similarity(rs2, 1)
	if len(refs) == 0 {
		t.Fatal("no similarity refinements")
	}
	var sumRef *Refinement
	for i := range refs {
		if refs[i].Kind != KindSimilarity {
			t.Errorf("kind = %s", refs[i].Kind)
		}
		if strings.Contains(refs[i].Why, sumCol(q2)) {
			sumRef = &refs[i]
		}
	}
	if sumRef == nil {
		t.Fatal("no sum-based similarity refinement")
	}
	// Sweden's per-year profile (73, 60) is directionally closest to
	// Germany's (258, 230); France (70, 5) is skewed. Top-1 = Sweden.
	if !strings.Contains(sumRef.Why, "se") {
		t.Errorf("most similar should be Sweden: %s", sumRef.Why)
	}
	rs3, err := e.Execute(ctx, sumRef.Query)
	if err != nil {
		t.Fatalf("similarity query failed: %v\n%s", err, sumRef.Query.ToSPARQL())
	}
	// Only Germany and Sweden remain, each with 2 year groups.
	dests := map[string]bool{}
	for _, tp := range rs3.Tuples {
		dests[tp.Dims[0].Value] = true
	}
	if len(dests) != 2 || !dests[testkg.NS+"de"] || !dests[testkg.NS+"se"] {
		t.Errorf("remaining destinations = %v", dests)
	}
	if len(rs3.ExampleTuples()) == 0 {
		t.Error("example lost in similarity refinement")
	}
}

func TestSimilarityNeedsFeatures(t *testing.T) {
	_, _, _, rs := destQuery(t)
	// Query has only the example dimension: no features → no refinement.
	if refs := Similarity(rs, 3); len(refs) != 0 {
		t.Errorf("refinements without features = %d", len(refs))
	}
}

func TestCosine(t *testing.T) {
	tests := []struct {
		a, b map[int]float64
		want float64
	}{
		{map[int]float64{0: 1}, map[int]float64{0: 1}, 1},
		{map[int]float64{0: 1}, map[int]float64{1: 1}, 0},
		{map[int]float64{0: 1, 1: 0}, map[int]float64{0: 2, 1: 0}, 1},
		{map[int]float64{}, map[int]float64{0: 1}, 0},
	}
	for i, tt := range tests {
		a := make([]float64, 2)
		var na float64
		for f, x := range tt.a {
			a[f] = x
			na += x * x
		}
		var fs []int
		var xs []float64
		for f := 0; f < 2; f++ {
			if x, ok := tt.b[f]; ok {
				fs, xs = append(fs, f), append(xs, x)
			}
		}
		got := cosine(a, na, fs, xs)
		if got < tt.want-1e-9 || got > tt.want+1e-9 {
			t.Errorf("case %d: cosine = %v, want %v", i, got, tt.want)
		}
	}
}

func TestPercentileValue(t *testing.T) {
	vals := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {75, 40},
	}
	for _, tt := range tests {
		if got := percentileValue(vals, tt.p); got != tt.want {
			t.Errorf("percentile %v = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := percentileValue(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestStrictlyFiner(t *testing.T) {
	base := &vgraph.Level{Path: []string{"a"}}
	coarse := &vgraph.Level{Path: []string{"a", "b"}}
	other := &vgraph.Level{Path: []string{"c", "b"}}
	if !strictlyFiner(base, coarse) {
		t.Error("base should be finer than coarse")
	}
	if strictlyFiner(coarse, base) {
		t.Error("coarse is not finer than base")
	}
	if strictlyFiner(base, base) {
		t.Error("level is not finer than itself")
	}
	if strictlyFiner(other, coarse) {
		t.Error("different hierarchy cannot be finer")
	}
}

func TestCluster(t *testing.T) {
	e, _, q, rs := destQuery(t)
	refs := Cluster(rs, 2)
	if len(refs) == 0 {
		t.Fatal("no cluster refinements")
	}
	for _, r := range refs {
		if r.Kind != KindCluster {
			t.Errorf("kind = %s", r.Kind)
		}
		rs2, err := e.Execute(context.Background(), r.Query)
		if err != nil {
			t.Fatalf("cluster query failed: %v\n%s", err, r.Query.ToSPARQL())
		}
		if len(rs2.ExampleTuples()) == 0 {
			t.Errorf("example lost in %s", r.Why)
		}
		if rs2.Len() >= rs.Len() {
			t.Errorf("cluster did not restrict: %d >= %d (%s)", rs2.Len(), rs.Len(), r.Why)
		}
	}
	_ = q
}

func TestClusterTooFewTuples(t *testing.T) {
	_, _, _, rs := destQuery(t)
	if refs := Cluster(rs, 10); refs != nil { // only 3 tuples
		t.Errorf("refinements = %v", refs)
	}
}

func TestKMeans1D(t *testing.T) {
	values := []float64{1, 2, 3, 100, 101, 102}
	assign, centers := kmeans1D(values, 2)
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Errorf("low cluster split: %v", assign)
	}
	if assign[3] != assign[4] || assign[4] != assign[5] {
		t.Errorf("high cluster split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Error("clusters merged")
	}
	lo, hi := centers[assign[0]], centers[assign[3]]
	if lo > 3 || hi < 100 {
		t.Errorf("centers = %v", centers)
	}
}

func TestRollUp(t *testing.T) {
	e, g, q, _ := destQuery(t)
	ctx := context.Background()

	// On the initial query (only the anchored dest dim), nothing can
	// roll up.
	if refs := RollUp(g, q); len(refs) != 0 {
		t.Errorf("rollup on anchored-only query = %d refinements", len(refs))
	}

	// Add the refPeriod month level, then roll up.
	var q2 *core.OLAPQuery
	for _, r := range Disaggregate(g, q) {
		for _, d := range r.Query.Dims {
			if d.Level.String() == "refPeriod" {
				q2 = r.Query
			}
		}
	}
	if q2 == nil {
		t.Fatal("refPeriod disaggregation missing")
	}
	refs := RollUp(g, q2)
	// Expected: drop refPeriod entirely, or coarsen month → year.
	if len(refs) != 2 {
		for _, r := range refs {
			t.Logf("ref: %s", r.Why)
		}
		t.Fatalf("rollup refinements = %d, want 2", len(refs))
	}
	rs2, err := e.Execute(ctx, q2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if r.Kind != KindRollUp {
			t.Errorf("kind = %s", r.Kind)
		}
		rs3, err := e.Execute(ctx, r.Query)
		if err != nil {
			t.Fatalf("rollup failed: %v\n%s", err, r.Query.ToSPARQL())
		}
		if rs3.Len() > rs2.Len() {
			t.Errorf("rollup grew results: %d > %d (%s)", rs3.Len(), rs2.Len(), r.Why)
		}
		if len(rs3.ExampleTuples()) == 0 {
			t.Errorf("example lost in %s", r.Why)
		}
	}
}

func TestRollUpReindexesFilters(t *testing.T) {
	e, g, q, _ := destQuery(t)
	ctx := context.Background()
	// dest (anchored) + refPeriod + sex, with a VALUES filter on sex.
	var q2 *core.OLAPQuery
	for _, r := range Disaggregate(g, q) {
		for _, d := range r.Query.Dims {
			if d.Level.String() == "refPeriod" {
				q2 = r.Query
			}
		}
	}
	var q3 *core.OLAPQuery
	for _, r := range Disaggregate(g, q2) {
		for _, d := range r.Query.Dims {
			if d.Level.String() == "sex" {
				q3 = r.Query
			}
		}
	}
	if q3 == nil {
		t.Fatal("sex disaggregation missing")
	}
	q3.DimFilters = append(q3.DimFilters, core.DimValuesFilter{
		DimIdx: []int{2}, // the sex dimension
		Rows:   [][]rdf.Term{{testkg.IRI("male")}},
	})
	refs := RollUp(g, q3)
	// Rolling up refPeriod (index 1) must keep the sex filter working
	// (reindexed to 1).
	for _, r := range refs {
		if r.Why == `roll up: aggregate away "Reference Period"` {
			if len(r.Query.DimFilters) != 1 || r.Query.DimFilters[0].DimIdx[0] != 1 {
				t.Fatalf("filter not reindexed: %+v", r.Query.DimFilters)
			}
			rs, err := e.Execute(ctx, r.Query)
			if err != nil {
				t.Fatalf("reindexed query failed: %v", err)
			}
			for _, tp := range rs.Tuples {
				if tp.Dims[1] != testkg.IRI("male") {
					t.Errorf("filter lost: %v", tp.Dims)
				}
			}
			return
		}
	}
	t.Fatal("aggregate-away refPeriod refinement missing")
}

// TestSimilarityDeterministic: the example's vector mixes magnitudes
// (1e16, 1, -1e16), so the dot product with item "a" is 0 or 1 depending
// on the order it is summed in, and "a" either ties item "b" (sim 0,
// and "b" comes first) or beats it. With k = 1 the summation order
// picks the refinement; it must be one order, every run.
func TestSimilarityDeterministic(t *testing.T) {
	ex := rdf.NewIRI("http://x/item/e")
	q := &core.OLAPQuery{
		ObsClass: "http://x/Obs",
		Dims: []core.DimRef{
			{Level: &vgraph.Level{Path: []string{"http://x/item"}}, Var: "item", Example: &ex},
			{Level: &vgraph.Level{Path: []string{"http://x/feat"}}, Var: "feat"},
		},
		Measures:   []core.MeasureRef{{Predicate: "http://x/m", Var: "m"}},
		Aggregates: []core.AggColumn{{Func: "SUM", OutVar: "sum_m"}},
	}
	rs := &core.ResultSet{Query: q}
	add := func(item string, vals ...float64) {
		for f, v := range vals {
			rs.Tuples = append(rs.Tuples, core.Tuple{
				Dims:     []rdf.Term{rdf.NewIRI("http://x/item/" + item), rdf.NewIRI(fmt.Sprintf("http://x/feat/%d", f))},
				Measures: map[string]float64{"sum_m": v},
			})
		}
	}
	add("e", 1e16, 1, -1e16)
	add("b", 0, 0, 0)
	add("a", 1, 1, 1)
	first := Similarity(rs, 1)
	if len(first) != 1 {
		t.Fatalf("refinements = %d, want 1", len(first))
	}
	for i := 0; i < 200; i++ {
		got := Similarity(rs, 1)
		if len(got) != 1 || got[0].Why != first[0].Why {
			t.Fatalf("run %d: %v, first run %q", i, got, first[0].Why)
		}
	}
}
