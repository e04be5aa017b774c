package refine

import (
	"fmt"
	"math"
	"sort"

	"re2xolap/internal/core"
)

// Cluster is the clustering-based refinement the paper's preliminary
// prototype offered (Section 7.2, after [48]) before the user study
// replaced it with the simpler top-k: a 1-D k-means over the aggregate
// values of each column; the refinement restricts the query to the
// value range of the cluster containing the user example. The study
// found users could not follow complex clustering conditions — this
// implementation exists so the comparison can be reproduced, and its
// Why string shows how much harder the condition is to explain.
func Cluster(rs *core.ResultSet, k int) []Refinement {
	if k < 2 {
		k = 3
	}
	if len(rs.Tuples) < k {
		return nil
	}
	var out []Refinement
	mask := rs.ExampleMask()
	for i, agg := range rs.Query.Aggregates {
		if r, ok := clusterOne(rs, agg.OutVar, rs.Column(i), mask, k); ok {
			out = append(out, r)
		}
	}
	return out
}

func clusterOne(rs *core.ResultSet, col string, values []float64, mask []bool, k int) (Refinement, bool) {
	assign, centers := kmeans1D(values, k)
	// Find the cluster of the first example-matching tuple.
	cluster := -1
	for i, ok := range mask {
		if ok {
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

// kmeans1D runs k-means on scalar values with deterministic
// quantile-based initialization, returning the assignment and the
// final centroids.
func kmeans1D(values []float64, k int) ([]int, []float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	centers := make([]float64, k)
	for i := range centers {
		centers[i] = sorted[(i*2+1)*len(sorted)/(2*k)]
	}
	assign := make([]int, len(values))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, v := range values {
			best, bestDist := 0, math.Abs(v-centers[0])
			for c := 1; c < k; c++ {
				if d := math.Abs(v - centers[c]); d < bestDist {
					best, bestDist = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, v := range values {
			sums[assign[i]] += v
			counts[assign[i]]++
		}
		for c := range centers {
			if counts[c] > 0 {
				centers[c] = sums[c] / float64(counts[c])
			}
		}
	}
	return assign, centers
}
