package refine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"re2xolap/internal/core"
	"re2xolap/internal/rdf"
	"re2xolap/internal/vgraph"
)

func TestRankOrdersSubsetsByFocus(t *testing.T) {
	e, _, q, rs := destQuery(t)
	_ = e
	refs := append(TopK(rs), Percentile(rs)...)
	if len(refs) < 2 {
		t.Fatalf("refs = %d", len(refs))
	}
	scored := Rank(rs, refs)
	if len(scored) != len(refs) {
		t.Fatalf("scored = %d, want %d", len(scored), len(refs))
	}
	for i := 1; i < len(scored); i++ {
		if scored[i-1].Score < scored[i].Score {
			t.Errorf("not sorted: %v then %v", scored[i-1].Score, scored[i].Score)
		}
	}
	for _, s := range scored {
		if s.Score < 0 || s.Score > 1 {
			t.Errorf("score %v out of range for %s", s.Score, s.Why)
		}
	}
	_ = q
}

func TestRankPrefersModerateDisaggregation(t *testing.T) {
	_, g, q, rs := destQuery(t)
	refs := Disaggregate(g, q)
	scored := Rank(rs, refs)
	// The level with the smallest member count should not rank below a
	// much larger one (log penalty on fan-out).
	var bestMembers, worstMembers int
	for i, s := range scored {
		added := s.Query.Dims[len(s.Query.Dims)-1]
		if i == 0 {
			bestMembers = added.Level.MemberCount
		}
		if i == len(scored)-1 {
			worstMembers = added.Level.MemberCount
		}
	}
	if bestMembers > worstMembers {
		t.Errorf("ranking prefers larger fan-out: best=%d worst=%d", bestMembers, worstMembers)
	}
}

func TestRankDeterministic(t *testing.T) {
	_, g, q, rs := destQuery(t)
	refs := append(Disaggregate(g, q), TopK(rs)...)
	a := Rank(rs, refs)
	// Shuffle the input; ranking must be stable in content.
	shuffled := append([]Refinement(nil), refs...)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b := Rank(rs, shuffled)
	for i := range a {
		if a[i].Why != b[i].Why {
			t.Fatalf("rank %d differs: %q vs %q", i, a[i].Why, b[i].Why)
		}
	}
}

func TestKeptFractionExact(t *testing.T) {
	e, _, _, rs := destQuery(t)
	ctx := context.Background()
	refs := TopK(rs)
	for _, r := range refs {
		f := keptFraction(rs, r.Query)
		rs2, err := e.Execute(ctx, r.Query)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(rs2.Len()) / float64(rs.Len())
		if f != got {
			t.Errorf("keptFraction = %v, executed = %v (%s)", f, got, r.Why)
		}
	}
}

// Property: the cut evaluator compares a numeric measure the way Go
// compares float64.
func TestQuickSatisfies(t *testing.T) {
	q := &core.OLAPQuery{
		Measures:   []core.MeasureRef{{Var: "m"}},
		Aggregates: []core.AggColumn{{Func: "SUM", OutVar: "s"}},
	}
	keeps := func(v float64, op string, th float64) bool {
		rs := &core.ResultSet{Query: q, Tuples: []core.Tuple{{Measures: map[string]float64{"s": v}}}}
		nq := q.Clone()
		nq.Having = append(nq.Having, core.MeasureFilter{Col: "s", Op: op, Value: th})
		kept, ok := rs.Cut(nq)
		return ok && len(kept) == 1
	}
	f := func(v, th float64) bool {
		return keeps(v, "<", th) == (v < th) &&
			keeps(v, "<=", th) == (v <= th) &&
			keeps(v, ">", th) == (v > th) &&
			keeps(v, ">=", th) == (v >= th) &&
			keeps(v, "=", th) == (v == th)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInValues(t *testing.T) {
	de := rdf.NewIRI("http://x/de")
	fr := rdf.NewIRI("http://x/fr")
	lvl := &vgraph.Level{}
	q := &core.OLAPQuery{Dims: []core.DimRef{{Level: lvl, Var: "a"}, {Level: lvl, Var: "b"}}}
	rs := &core.ResultSet{Query: q, Tuples: []core.Tuple{{Dims: []rdf.Term{de, fr}}}}
	keeps := func(f core.DimValuesFilter) bool {
		nq := q.Clone()
		nq.DimFilters = append(nq.DimFilters, f)
		kept, ok := rs.Cut(nq)
		return ok && len(kept) == 1
	}
	if !keeps(core.DimValuesFilter{DimIdx: []int{0}, Rows: [][]rdf.Term{{de}}}) {
		t.Error("matching row rejected")
	}
	if keeps(core.DimValuesFilter{DimIdx: []int{0}, Rows: [][]rdf.Term{{fr}}}) {
		t.Error("non-matching row accepted")
	}
	if keeps(core.DimValuesFilter{DimIdx: []int{5}, Rows: [][]rdf.Term{{de}}}) {
		t.Error("out-of-range dim accepted")
	}
}

func TestScoreEdgeCases(t *testing.T) {
	_, _, q, rs := destQuery(t)
	// A refinement that keeps everything scores low but nonzero.
	noop := Refinement{Kind: KindTopK, Query: q.Clone(), Why: "noop"}
	if s := score(rs, noop); s != 0.05 {
		t.Errorf("no-reduction score = %v, want 0.05", s)
	}
	// Disaggregation score falls with member count.
	mk := func(members int) Refinement {
		nq := q.Clone()
		nq.Dims = append(nq.Dims, core.DimRef{Level: &vgraph.Level{MemberCount: members}, Var: "x"})
		return Refinement{Kind: KindDisaggregate, Query: nq}
	}
	if score(rs, mk(5)) <= score(rs, mk(5000)) {
		t.Error("larger fan-out not penalized")
	}
}

// Property: for synthetic result sets, every TopK refinement keeps the
// example tuple and its threshold excludes at least one tuple.
func TestQuickTopKInvariant(t *testing.T) {
	_, _, q, _ := destQuery(t)
	sumCol := ""
	for _, a := range q.Aggregates {
		if a.Func == "SUM" {
			sumCol = a.OutVar
		}
	}
	f := func(vals []uint16, exampleIdx uint8) bool {
		if len(vals) < 3 {
			return true
		}
		if len(vals) > 40 {
			vals = vals[:40]
		}
		rs := &core.ResultSet{Query: q.Clone()}
		ei := int(exampleIdx) % len(vals)
		for i, v := range vals {
			member := rdf.NewIRI(fmt.Sprintf("http://m/%d", i))
			if i == ei {
				member = *q.Dims[0].Example
			}
			rs.Tuples = append(rs.Tuples, core.Tuple{
				Dims:     []rdf.Term{member},
				Measures: map[string]float64{sumCol: float64(v)},
			})
		}
		for _, r := range TopK(rs) {
			kept, excluded := 0, 0
			for _, tp := range rs.Tuples {
				ok := true
				for _, h := range r.Query.Having {
					if h.Col != sumCol {
						ok = false // only the sum column exists here
						break
					}
					v := tp.Measures[h.Col]
					switch h.Op {
					case ">":
						ok = ok && v > h.Value
					case "<":
						ok = ok && v < h.Value
					}
				}
				if !ok {
					excluded++
					continue
				}
				kept++
			}
			if r.Why == "" {
				return false
			}
			// Only check refinements on the sum column (others use
			// measures this synthetic set doesn't fill consistently).
			if len(r.Query.Having) == 1 && r.Query.Having[0].Col == sumCol {
				if excluded == 0 {
					return false // a top-k must cut something
				}
				// The example tuple must survive the filter.
				h := r.Query.Having[0]
				ev := rs.Tuples[ei].Measures[sumCol]
				if h.Op == ">" && !(ev > h.Value) {
					return false
				}
				if h.Op == "<" && !(ev < h.Value) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: percentileValue is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(vals []uint16, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		sorted := make([]float64, len(vals))
		for i, v := range vals {
			sorted[i] = float64(v)
		}
		sort.Float64s(sorted)
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return percentileValue(sorted, pa) <= percentileValue(sorted, pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
