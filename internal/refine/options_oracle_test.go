package refine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"re2xolap/internal/core"
	"re2xolap/internal/rdf"
	"re2xolap/internal/vgraph"
)

// The options oracles: TopK, Percentile, Cluster and Similarity as they
// were written over per-tuple Measures maps, before the options read
// the result set's columns. The options must match them in Kind, Why
// and SPARQL on every result set (Similarity on sets whose vector sums
// are exact, where the oracle's map-order sums cannot differ).

func oracleOptions(rs *core.ResultSet) []Refinement {
	var out []Refinement
	for _, agg := range rs.Query.Aggregates {
		for _, desc := range []bool{true, false} {
			if r, ok := oracleTopKOne(rs, agg.OutVar, desc); ok {
				out = append(out, r)
			}
		}
	}
	if len(rs.Tuples) > 0 {
		for _, agg := range rs.Query.Aggregates {
			out = append(out, oraclePercentileOne(rs, agg.OutVar)...)
		}
	}
	if len(rs.Tuples) >= 3 {
		for _, agg := range rs.Query.Aggregates {
			if r, ok := oracleClusterOne(rs, agg.OutVar, 3); ok {
				out = append(out, r)
			}
		}
	}
	var itemDims, featureDims []int
	for i, d := range rs.Query.Dims {
		if d.Example != nil {
			itemDims = append(itemDims, i)
		} else {
			featureDims = append(featureDims, i)
		}
	}
	if len(itemDims) > 0 && len(featureDims) > 0 {
		for _, agg := range rs.Query.Aggregates {
			if r, ok := oracleSimilarityOne(rs, itemDims, featureDims, agg.OutVar, 2); ok {
				out = append(out, r)
			}
		}
	}
	return out
}

func options(rs *core.ResultSet) []Refinement {
	out := append(TopK(rs), Percentile(rs)...)
	out = append(out, Cluster(rs, 3)...)
	return append(out, Similarity(rs, 2)...)
}

func sameOptions(t *testing.T, name string, got, want []Refinement) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d options, oracle %d", name, len(got), len(want))
		return
	}
	for i := range got {
		if got[i].Kind != want[i].Kind || got[i].Why != want[i].Why ||
			got[i].Query.ToSPARQL() != want[i].Query.ToSPARQL() {
			t.Errorf("%s: option %d is [%s] %s\n%s\noracle [%s] %s\n%s", name, i,
				got[i].Kind, got[i].Why, got[i].Query.ToSPARQL(),
				want[i].Kind, want[i].Why, want[i].Query.ToSPARQL())
		}
	}
}

// randomResult is a hand-built result set over two dimensions — an
// example dimension and a feature dimension — and two aggregate
// columns, with values from a small range so ties at a cut are common,
// some measures absent, and zero, one or more example tuples.
func randomResult(rng *rand.Rand) *core.ResultSet {
	ex := rdf.NewIRI("http://x/item/0")
	q := &core.OLAPQuery{
		ObsClass: "http://x/Obs",
		Dims: []core.DimRef{
			{Level: &vgraph.Level{Path: []string{"http://x/item"}}, Var: "item", Example: &ex},
			{Level: &vgraph.Level{Path: []string{"http://x/feat"}}, Var: "feat"},
		},
		Measures: []core.MeasureRef{{Predicate: "http://x/m", Var: "m"}},
		Aggregates: []core.AggColumn{
			{Func: "SUM", OutVar: "sum_m"},
			{Func: "MAX", Measure: 0, OutVar: "max_m"},
		},
	}
	rs := &core.ResultSet{Query: q}
	n := rng.Intn(13)
	items, feats := 1+rng.Intn(4), 1+rng.Intn(4)
	seen := map[[2]int]bool{}
	for len(rs.Tuples) < n && len(seen) < items*feats {
		key := [2]int{rng.Intn(items), rng.Intn(feats)}
		if seen[key] {
			continue
		}
		seen[key] = true
		tp := core.Tuple{
			Dims: []rdf.Term{
				rdf.NewIRI(fmt.Sprintf("http://x/item/%d", key[0])),
				rdf.NewIRI(fmt.Sprintf("http://x/feat/%d", key[1])),
			},
			Measures: map[string]float64{},
		}
		for _, a := range q.Aggregates {
			if rng.Intn(6) > 0 {
				tp.Measures[a.OutVar] = float64(rng.Intn(5) - 1)
			}
		}
		rs.Tuples = append(rs.Tuples, tp)
	}
	return rs
}

func TestOptionsMatchOracles(t *testing.T) {
	e, g, q, rs := destQuery(t)
	sameOptions(t, "dest", options(rs), oracleOptions(rs))
	for _, r := range Disaggregate(g, q) {
		rs2, err := e.Execute(context.Background(), r.Query)
		if err != nil {
			t.Fatal(err)
		}
		sameOptions(t, r.Why, options(rs2), oracleOptions(rs2))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		rs := randomResult(rng)
		sameOptions(t, fmt.Sprintf("random set %d", i), options(rs), oracleOptions(rs))
	}
}

func TestOptionsMatchOraclesAtTies(t *testing.T) {
	ex := rdf.NewIRI("http://x/item/0")
	q := &core.OLAPQuery{
		ObsClass:   "http://x/Obs",
		Dims:       []core.DimRef{{Level: &vgraph.Level{Path: []string{"http://x/item"}}, Var: "item", Example: &ex}},
		Measures:   []core.MeasureRef{{Predicate: "http://x/m", Var: "m"}},
		Aggregates: []core.AggColumn{{Func: "SUM", OutVar: "sum_m"}},
	}
	build := func(vals ...float64) *core.ResultSet {
		rs := &core.ResultSet{Query: q}
		for i, v := range vals {
			m := map[string]float64{"sum_m": v}
			if math.IsNaN(v) { // NaN marks an absent measure
				m = map[string]float64{}
			}
			rs.Tuples = append(rs.Tuples, core.Tuple{
				Dims:     []rdf.Term{rdf.NewIRI(fmt.Sprintf("http://x/item/%d", i))},
				Measures: m,
			})
		}
		return rs
	}
	absent := math.NaN()
	for name, rs := range map[string]*core.ResultSet{
		"tie below the example":       build(5, 5, 3, 7),
		"tie above the example":       build(5, 7, 7, 3),
		"tie across the example":      build(5, 5, 5, 5),
		"example ties its neighbours": build(2, 9, 2, 2, 9),
		"absent measures":             build(absent, 4, absent, 0, 1),
		"one tuple":                   build(3),
		"empty":                       build(),
	} {
		sameOptions(t, name, options(rs), oracleOptions(rs))
	}
	none := build(1, 2, 3, 4)
	for i := range none.Tuples {
		none.Tuples[i].Dims[0] = rdf.NewIRI(fmt.Sprintf("http://x/other/%d", i))
	}
	sameOptions(t, "no tuple matches the example", options(none), oracleOptions(none))
}

// --- oracles ---------------------------------------------------------

func oracleTopKOne(rs *core.ResultSet, col string, desc bool) (Refinement, bool) {
	idx := make([]int, len(rs.Tuples))
	vals := make([]float64, len(rs.Tuples)) // the column, read out of the maps once
	for i := range idx {
		idx[i] = i
		vals[i] = rs.Tuples[i].Measures[col]
	}
	sort.SliceStable(idx, func(a, b int) bool {
		va, vb := vals[idx[a]], vals[idx[b]]
		if desc {
			return va > vb
		}
		return va < vb
	})
	// Find the cut: the first example tuple followed by a non-example
	// tuple. Everything up to and including it is the top-k.
	cut := -1
	for i, ti := range idx {
		if !rs.MatchesExample(rs.Tuples[ti]) {
			continue
		}
		if i+1 < len(idx) && !rs.MatchesExample(rs.Tuples[idx[i+1]]) {
			cut = i
			break
		}
	}
	if cut < 0 {
		// No example in the results, or no non-matching tuple after it:
		// there is nothing meaningful to cut.
		return Refinement{}, false
	}
	threshold, kept := vals[idx[cut+1]], vals[idx[cut]]
	if threshold == kept {
		// Tie between the last kept tuple and the first excluded one: a
		// pure value filter cannot separate them.
		return Refinement{}, false
	}
	op := ">"
	dir := "descending"
	if !desc {
		op = "<"
		dir = "ascending"
	}
	k := cut + 1
	nq := rs.Query.Clone()
	why := fmt.Sprintf("top-%d tuples by %s (%s)", k, col, dir)
	nq.Having = append(nq.Having, core.MeasureFilter{Col: col, Op: op, Value: threshold, Why: why})
	nq.Description = nq.Describe()
	return Refinement{Kind: KindTopK, Query: nq, Why: why}, true
}

func oraclePercentileOne(rs *core.ResultSet, col string) []Refinement {
	values := make([]float64, len(rs.Tuples))
	for i, t := range rs.Tuples {
		values[i] = t.Measures[col]
	}
	sort.Float64s(values)
	cuts := make([]float64, len(percentileRanks))
	for i, p := range percentileRanks {
		cuts[i] = percentileValue(values, p)
	}
	// Intervals: (-inf, c0], (c0, c1], ..., (c3, +inf).
	type interval struct {
		lo, hi       float64
		hasLo, hasHi bool
		name         string
	}
	var ivs []interval
	ivs = append(ivs, interval{hi: cuts[0], hasHi: true, name: fmt.Sprintf("below the %.0fth percentile", percentileRanks[0])})
	for i := 1; i < len(cuts); i++ {
		ivs = append(ivs, interval{
			lo: cuts[i-1], hasLo: true, hi: cuts[i], hasHi: true,
			name: fmt.Sprintf("between the %.0fth and %.0fth percentile", percentileRanks[i-1], percentileRanks[i]),
		})
	}
	ivs = append(ivs, interval{lo: cuts[len(cuts)-1], hasLo: true, name: fmt.Sprintf("above the %.0fth percentile", percentileRanks[len(percentileRanks)-1])})

	var out []Refinement
	for _, iv := range ivs {
		hasExample := false
		for _, t := range rs.Tuples {
			if !rs.MatchesExample(t) {
				continue
			}
			v := t.Measures[col]
			if (!iv.hasLo || v > iv.lo) && (!iv.hasHi || v <= iv.hi) {
				hasExample = true
				break
			}
		}
		if !hasExample {
			continue
		}
		nq := rs.Query.Clone()
		why := fmt.Sprintf("%s of %s", iv.name, col)
		if iv.hasLo {
			nq.Having = append(nq.Having, core.MeasureFilter{Col: col, Op: ">", Value: iv.lo, Why: why})
		}
		if iv.hasHi {
			nq.Having = append(nq.Having, core.MeasureFilter{Col: col, Op: "<=", Value: iv.hi, Why: why})
		}
		nq.Description = nq.Describe()
		out = append(out, Refinement{Kind: KindPercentile, Query: nq, Why: why})
	}
	return out
}

func oracleClusterOne(rs *core.ResultSet, col string, k int) (Refinement, bool) {
	values := make([]float64, len(rs.Tuples))
	for i, t := range rs.Tuples {
		values[i] = t.Measures[col]
	}
	assign, centers := kmeans1D(values, k)
	// Find the cluster of the first example-matching tuple.
	cluster := -1
	for i, t := range rs.Tuples {
		if rs.MatchesExample(t) {
			cluster = assign[i]
			break
		}
	}
	if cluster < 0 {
		return Refinement{}, false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	n := 0
	for i, c := range assign {
		if c != cluster {
			continue
		}
		n++
		if values[i] < lo {
			lo = values[i]
		}
		if values[i] > hi {
			hi = values[i]
		}
	}
	if n == len(rs.Tuples) {
		return Refinement{}, false // no restriction
	}
	nq := rs.Query.Clone()
	why := fmt.Sprintf(
		"the k-means cluster (k=%d, centroid %.1f) of %s containing the example: %d tuples with values in [%.1f, %.1f]",
		k, centers[cluster], col, n, lo, hi)
	nq.Having = append(nq.Having,
		core.MeasureFilter{Col: col, Op: ">=", Value: lo, Why: why},
		core.MeasureFilter{Col: col, Op: "<=", Value: hi, Why: why},
	)
	nq.Description = nq.Describe()
	return Refinement{Kind: KindCluster, Query: nq, Why: why}, true
}

func oracleSimilarityOne(rs *core.ResultSet, itemDims, featureDims []int, col string, k int) (Refinement, bool) {
	q := rs.Query
	key := func(t core.Tuple, dims []int) string {
		parts := make([]string, len(dims))
		for i, d := range dims {
			parts[i] = t.Dims[d].String()
		}
		return strings.Join(parts, "\x00")
	}
	// Collect feature coordinates and item vectors.
	featIdx := map[string]int{}
	type item struct {
		members []rdf.Term
		vec     map[int]float64
	}
	items := map[string]*item{}
	var order []string
	for _, t := range rs.Tuples {
		fk := key(t, featureDims)
		if _, ok := featIdx[fk]; !ok {
			featIdx[fk] = len(featIdx)
		}
		ik := key(t, itemDims)
		it, ok := items[ik]
		if !ok {
			members := make([]rdf.Term, len(itemDims))
			for i, d := range itemDims {
				members[i] = t.Dims[d]
			}
			it = &item{members: members, vec: map[int]float64{}}
			items[ik] = it
			order = append(order, ik)
		}
		it.vec[featIdx[fk]] += t.Measures[col]
	}
	// The example item's vector anchors the similarity.
	exampleMembers := make([]rdf.Term, len(itemDims))
	for i, d := range itemDims {
		exampleMembers[i] = *q.Dims[d].Example
	}
	exKey := func() string {
		parts := make([]string, len(exampleMembers))
		for i, m := range exampleMembers {
			parts[i] = m.String()
		}
		return strings.Join(parts, "\x00")
	}()
	ex, ok := items[exKey]
	if !ok {
		return Refinement{}, false
	}
	type scored struct {
		key string
		sim float64
	}
	var scores []scored
	for _, ik := range order {
		if ik == exKey {
			continue
		}
		scores = append(scores, scored{key: ik, sim: oracleCosine(ex.vec, items[ik].vec)})
	}
	if len(scores) == 0 {
		return Refinement{}, false
	}
	sort.SliceStable(scores, func(i, j int) bool { return scores[i].sim > scores[j].sim })
	if len(scores) > k {
		scores = scores[:k]
	}
	rows := [][]rdf.Term{exampleMembers}
	var names []string
	for _, s := range scores {
		rows = append(rows, items[s.key].members)
		names = append(names, displayMembers(items[s.key].members))
	}
	nq := q.Clone()
	why := fmt.Sprintf("the %d member combinations most similar to %s by %s: %s",
		len(scores), displayMembers(exampleMembers), col, strings.Join(names, "; "))
	nq.DimFilters = append(nq.DimFilters, core.DimValuesFilter{
		DimIdx: append([]int(nil), itemDims...),
		Rows:   rows,
		Why:    why,
	})
	nq.Description = nq.Describe()
	return Refinement{Kind: KindSimilarity, Query: nq, Why: why}, true
}

func oracleCosine(a, b map[int]float64) float64 {
	var dot, na, nb float64
	for i, va := range a {
		na += va * va
		if vb, ok := b[i]; ok {
			dot += va * vb
		}
	}
	for _, vb := range b {
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}
