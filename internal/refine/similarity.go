package refine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"re2xolap/internal/core"
	"re2xolap/internal/rdf"
)

// DefaultSimilarK is the number of most-similar member combinations a
// similarity refinement keeps.
const DefaultSimilarK = 5

// Similarity solves Problem 2c following Figure 5: the dimensions
// matching the user example identify "items"; the remaining (refined-in)
// dimensions identify feature coordinates; each item's feature vector
// holds the measure value per feature combination (zero when absent).
// The refinement keeps the k items whose vectors are most
// cosine-similar to the example item's vector, restricting the query
// with a VALUES filter over those member combinations. One refinement
// is produced per aggregate column.
func Similarity(rs *core.ResultSet, k int) []Refinement {
	if k <= 0 {
		k = DefaultSimilarK
	}
	q := rs.Query
	var itemDims, featureDims []int
	for i, d := range q.Dims {
		if d.Example != nil {
			itemDims = append(itemDims, i)
		} else {
			featureDims = append(featureDims, i)
		}
	}
	if len(itemDims) == 0 || len(featureDims) == 0 {
		// Without added dimensions there are no features to compare on;
		// without example dimensions there is no anchor item.
		return nil
	}
	v := newVectors(rs, itemDims, featureDims)
	if v.example < 0 {
		return nil
	}
	var out []Refinement
	for i, agg := range q.Aggregates {
		if r, ok := similarityOne(rs, v, itemDims, rs.Column(i), agg.OutVar, k); ok {
			out = append(out, r)
		}
	}
	return out
}

// vectors lays the result out as item vectors over feature indexes,
// both numbered in order of first appearance. byItem orders the tuples
// by (item, feature, index), so a vector sums in feature-index order
// whatever the column.
type vectors struct {
	feature []int // per tuple
	nFeat   int
	first   []int // per item, its first tuple
	start   []int // per item, where its tuples begin in byItem; one extra entry
	byItem  []int
	example int // the item of the example members, -1 if none
}

func newVectors(rs *core.ResultSet, itemDims, featureDims []int) *vectors {
	item, first := intern(rs.Tuples, itemDims)
	feature, feats := intern(rs.Tuples, featureDims)
	v := &vectors{feature: feature, nFeat: len(feats), first: first, example: -1}
	v.byItem = make([]int, len(item))
	v.start = make([]int, len(first)+1)
	for j, it := range item {
		v.byItem[j] = j
		v.start[it+1]++
	}
	for i := 1; i < len(v.start); i++ {
		v.start[i] += v.start[i-1]
	}
	slices.SortFunc(v.byItem, func(a, b int) int {
		return cmp.Or(item[a]-item[b], feature[a]-feature[b], a-b)
	})
	ex := rs.Query.Dims
items:
	for it, j := range first {
		for _, d := range itemDims {
			if rs.Tuples[j].Dims[d] != *ex[d].Example {
				continue items
			}
		}
		v.example = it
		break
	}
	return v
}

// intern numbers the distinct member combinations of dims over the
// tuples in order of first appearance. It returns each tuple's number
// and, per number, the first tuple holding it.
func intern(tuples []core.Tuple, dims []int) (ids, first []int) {
	type node struct {
		parent int
		member rdf.Term
	}
	nodes := map[node]int{}
	var dense []int // per node, its combination's number; -1 for an inner node
	ids = make([]int, len(tuples))
	for j, t := range tuples {
		n := -1
		for _, d := range dims {
			k := node{n, t.Dims[d]}
			id, ok := nodes[k]
			if !ok {
				id = len(dense)
				nodes[k] = id
				dense = append(dense, -1)
			}
			n = id
		}
		if dense[n] < 0 {
			dense[n] = len(first)
			first = append(first, j)
		}
		ids[j] = dense[n]
	}
	return ids, first
}

// vector appends item it's vector over the column to fs and xs: its
// features in ascending index order and their summed values.
func (v *vectors) vector(it int, vals []float64, fs []int, xs []float64) ([]int, []float64) {
	seg := v.byItem[v.start[it]:v.start[it+1]]
	for i := 0; i < len(seg); {
		f, x := v.feature[seg[i]], vals[seg[i]]
		for i++; i < len(seg) && v.feature[seg[i]] == f; i++ {
			x += vals[seg[i]]
		}
		fs, xs = append(fs, f), append(xs, x)
	}
	return fs, xs
}

// cosine is the cosine similarity of the dense vector a, whose squared
// norm is na, and the vector with values xs at the ascending feature
// indexes fs. It sums in feature-index order, so one input always gives
// one score.
func cosine(a []float64, na float64, fs []int, xs []float64) float64 {
	var dot, nb float64
	for i, f := range fs {
		dot += a[f] * xs[i]
		nb += xs[i] * xs[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

func similarityOne(rs *core.ResultSet, v *vectors, itemDims []int, vals []float64, col string, k int) (Refinement, bool) {
	// The example item's vector, dense, anchors the similarity.
	ex := make([]float64, v.nFeat)
	fs, xs := v.vector(v.example, vals, nil, nil)
	for i, f := range fs {
		ex[f] = xs[i]
	}
	var na float64
	for _, x := range ex {
		na += x * x
	}
	type scored struct {
		item int
		sim  float64
	}
	scores := make([]scored, 0, len(v.first))
	for it := range v.first {
		if it == v.example {
			continue
		}
		fs, xs = v.vector(it, vals, fs[:0], xs[:0])
		scores = append(scores, scored{item: it, sim: cosine(ex, na, fs, xs)})
	}
	if len(scores) == 0 {
		return Refinement{}, false
	}
	sort.SliceStable(scores, func(i, j int) bool { return scores[i].sim > scores[j].sim })
	if len(scores) > k {
		scores = scores[:k]
	}
	members := func(it int) []rdf.Term {
		t := rs.Tuples[v.first[it]]
		ms := make([]rdf.Term, len(itemDims))
		for i, d := range itemDims {
			ms[i] = t.Dims[d]
		}
		return ms
	}
	exampleMembers := members(v.example)
	rows := [][]rdf.Term{exampleMembers}
	var names []string
	for _, s := range scores {
		ms := members(s.item)
		rows = append(rows, ms)
		names = append(names, displayMembers(ms))
	}
	nq := rs.Query.Clone()
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

func displayMembers(ms []rdf.Term) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		v := m.Value
		if j := strings.LastIndexAny(v, "/#"); j >= 0 && j+1 < len(v) {
			v = v[j+1:]
		}
		parts[i] = v
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
