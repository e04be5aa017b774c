package refine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"re2xolap/internal/core"
)

// TopK solves Problem 2b with the top-k strategy of Section 6.2: for
// every aggregate column and both orderings, it sorts the result
// tuples, walks the ordering until the last example-matching tuple
// before a non-matching one, and derives a value threshold that keeps
// the example inside the top-k while cutting the rest. It produces at
// most two refinements (ascending and descending) per aggregate
// column, matching Figure 9b's fixed refinement count.
func TopK(rs *core.ResultSet) []Refinement {
	var out []Refinement
	mask := rs.ExampleMask()
	for i, agg := range rs.Query.Aggregates {
		vals := rs.Column(i)
		asc := ascending(vals)
		for _, desc := range []bool{true, false} {
			order := asc
			if desc {
				order = descending(vals, asc)
			}
			if r, ok := topKOne(rs, agg.OutVar, vals, mask, order, desc); ok {
				out = append(out, r)
			}
		}
	}
	return out
}

// ascending returns the tuple indices ordered by (value, index): the
// order sort.SliceStable by ascending value gives.
func ascending(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Or(cmp.Compare(vals[a], vals[b]), a-b) })
	return idx
}

// descending turns the ascending order into the one sort.SliceStable
// by descending value gives: the blocks of equal values from the top,
// each block in index order.
func descending(vals []float64, asc []int) []int {
	out := make([]int, 0, len(asc))
	for end := len(asc); end > 0; {
		start := end - 1
		for start > 0 && vals[asc[start-1]] == vals[asc[end-1]] {
			start--
		}
		out = append(out, asc[start:end]...)
		end = start
	}
	return out
}

// topKOne cuts the tuples in the given order after the first example
// tuple followed by a non-example tuple.
func topKOne(rs *core.ResultSet, col string, vals []float64, mask []bool, order []int, desc bool) (Refinement, bool) {
	// Find the cut: the first example tuple followed by a non-example
	// tuple. Everything up to and including it is the top-k.
	cut := -1
	for i, ti := range order {
		if mask[ti] && i+1 < len(order) && !mask[order[i+1]] {
			cut = i
			break
		}
	}
	if cut < 0 {
		// No example in the results, or no non-matching tuple after it:
		// there is nothing meaningful to cut.
		return Refinement{}, false
	}
	threshold, kept := vals[order[cut+1]], vals[order[cut]]
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

// percentileRanks are the cut points used by the percentile strategy.
var percentileRanks = []float64{25, 50, 75, 90}

// Percentile solves Problem 2b with the percentile strategy of Section
// 6.2: for every aggregate column it computes the 25/50/75/90th
// percentile values, splits the value range into intervals, and emits
// one refinement for each interval that contains a tuple matching the
// user example. The number of refinements therefore varies with how
// the example's values cluster (Figure 9b).
func Percentile(rs *core.ResultSet) []Refinement {
	var out []Refinement
	if len(rs.Tuples) == 0 {
		return nil
	}
	mask := rs.ExampleMask()
	for i, agg := range rs.Query.Aggregates {
		out = append(out, percentileOne(rs, agg.OutVar, rs.Column(i), mask)...)
	}
	return out
}

func percentileOne(rs *core.ResultSet, col string, vals []float64, mask []bool) []Refinement {
	values := append([]float64(nil), vals...)
	sort.Float64s(values)
	cuts := make([]float64, len(percentileRanks))
	for i, p := range percentileRanks {
		cuts[i] = percentileValue(values, p)
	}
	var examples []float64
	for i, v := range vals {
		if mask[i] {
			examples = append(examples, v)
		}
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
		for _, v := range examples {
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

// percentileValue returns the p-th percentile of sorted values using
// nearest-rank interpolation.
func percentileValue(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
