package refine

import (
	"math"
	"sort"

	"re2xolap/internal/core"
)

// The paper's Section 8 calls for "a method for ranking the suggested
// query reformulations to help the user prioritize among them" when
// many refinements are produced. Rank implements a deterministic
// heuristic ranking built on the paper's two solution criteria
// (simplicity and explainability) plus focus:
//
//   - Subset refinements (top-k, percentile, similarity) are scored by
//     the fraction of the current tuples they keep, computed exactly
//     against the current result set; the sweet spot is a focused but
//     non-trivial subset (around 20% kept), per the user study's
//     preference for small inspectable groups.
//   - Disaggregations are scored by the granularity of the added
//     level: moderate fan-out beats exploding the result set.
//   - Refinements with fewer added conditions (simplicity) win ties.

// Scored pairs a refinement with its ranking score in [0, 1].
type Scored struct {
	Refinement
	Score float64
}

// targetKeptFraction is the kept-fraction a subset refinement is
// rewarded for approaching.
const targetKeptFraction = 0.2

// Rank scores the refinements against the current result set and
// returns them ordered best-first. The ordering is deterministic:
// ties break on fewer added conditions, then on the Why text.
func Rank(rs *core.ResultSet, refs []Refinement) []Scored {
	out := make([]Scored, 0, len(refs))
	for _, r := range refs {
		out = append(out, Scored{Refinement: r, Score: score(rs, r)})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		ci, cj := conditionCount(out[i].Query), conditionCount(out[j].Query)
		if ci != cj {
			return ci < cj
		}
		return out[i].Why < out[j].Why
	})
	return out
}

func conditionCount(q *core.OLAPQuery) int {
	return len(q.Having) + len(q.DimFilters)
}

func score(rs *core.ResultSet, r Refinement) float64 {
	if r.Kind == KindDisaggregate {
		// The added dimension is the last one; moderate member counts
		// are preferred (1 is a no-op, 10^5 floods the user).
		added := r.Query.Dims[len(r.Query.Dims)-1]
		g := float64(added.Level.MemberCount)
		if g < 1 {
			g = 1
		}
		return 1 / (1 + math.Log2(1+g)/4)
	}
	f := keptFraction(rs, r.Query)
	switch {
	case f <= 0:
		return 0 // would lose everything (should not happen: example kept)
	case f >= 1:
		return 0.05 // no reduction: least useful subset
	}
	// Peak at targetKeptFraction, linear falloff on both sides.
	if f <= targetKeptFraction {
		return f / targetKeptFraction
	}
	return 1 - (f-targetKeptFraction)/(1-targetKeptFraction)
}

// keptFraction is the fraction of the current tuples the refined
// query's appended conditions keep (core.ResultSet.Cut); 1 when the
// query does not extend the current one.
func keptFraction(rs *core.ResultSet, q *core.OLAPQuery) float64 {
	if len(rs.Tuples) == 0 {
		return 1
	}
	kept, ok := rs.Cut(q)
	if !ok {
		return 1
	}
	return float64(len(kept)) / float64(len(rs.Tuples))
}
