package core

import (
	"context"
	"fmt"
	"sort"

	"re2xolap/internal/rdf"
	"re2xolap/internal/vgraph"
)

// This file implements the extensions the paper lists as future work
// (Section 8): synthesis with negative examples, and contrasting the
// measure values of two different example sets.

// SynthesizeWithNegatives runs ReOLAP synthesis over the positive
// tuples and then discards every candidate whose result would also
// cover one of the negative tuples: an interpretation is rejected when
// a negative tuple is witnessed by some observation at the candidate's
// levels. The paper's example use case: "countries like Germany but
// not like Hungary".
func (e *Engine) SynthesizeWithNegatives(ctx context.Context, positives []ExampleTuple, negatives []ExampleTuple) ([]Candidate, error) {
	cands, err := e.SynthesizeAll(ctx, positives)
	if err != nil {
		return nil, err
	}
	if len(negatives) == 0 {
		return cands, nil
	}
	var out []Candidate
	for _, cand := range cands {
		rejected := false
		for _, neg := range negatives {
			hit, err := e.negativeWitnessed(ctx, cand, neg)
			if err != nil {
				return nil, err
			}
			if hit {
				rejected = true
				break
			}
		}
		if !rejected {
			out = append(out, cand)
		}
	}
	return out, nil
}

// negativeWitnessed reports whether the negative tuple is witnessed by
// the data at the candidate's levels: whether the witness query over the
// candidate's first len(neg) levels, with the members each negative item
// matches there, finds an observation. Negative tuples longer than the
// candidate's dimensionality never hit.
func (e *Engine) negativeWitnessed(ctx context.Context, cand Candidate, neg ExampleTuple) (bool, error) {
	if len(neg) == 0 || len(neg) > len(cand.Query.Dims) {
		return false, nil
	}
	levels := make([]*vgraph.Level, len(neg))
	members := make([][][]Match, len(neg))
	for i, item := range neg {
		ms, err := e.MatchItem(ctx, item)
		if err != nil {
			return false, err
		}
		levels[i] = cand.Query.Dims[i].Level
		var at []Match
		for _, m := range ms {
			if m.Level.Key() == levels[i].Key() {
				at = append(at, m)
			}
		}
		if len(at) == 0 {
			return false, nil // negative item not at this level: no hit
		}
		members[i] = [][]Match{at}
	}
	w, err := e.witness(ctx, levels, members, 0)
	return w != nil, err
}

// ContrastRow is one measure comparison between the two example
// anchors of a contrast query.
type ContrastRow struct {
	// Column is the aggregate output column compared.
	Column string
	// A and B are the aggregated values for the first and second
	// example anchors.
	A, B float64
	// Ratio is A/B (0 when B is 0).
	Ratio float64
}

// Contrast is the result of comparing two example sets under one
// shared interpretation.
type Contrast struct {
	// Query is the shared-interpretation query (grouping both
	// anchors' dimensions).
	Query *OLAPQuery
	// AnchorA and AnchorB are the resolved member combinations.
	AnchorA, AnchorB []rdf.Term
	// Rows holds one comparison per aggregate column.
	Rows []ContrastRow
}

// ContrastSets implements the "contrasting the measure values of two
// different sets of examples" use case: it synthesizes the
// interpretations shared by both example tuples (same levels), runs
// each query once, and reports the aggregated measures of the two
// anchors side by side. One Contrast is returned per shared
// interpretation.
func (e *Engine) ContrastSets(ctx context.Context, a, b ExampleTuple) ([]Contrast, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("core: contrast tuples must have the same arity (%d vs %d)", len(a), len(b))
	}
	// Shared interpretations: synthesize with both tuples as input;
	// SynthesizeAll already forces item i of both to the same level.
	cands, err := e.SynthesizeAll(ctx, []ExampleTuple{a, b})
	if err != nil {
		return nil, err
	}
	var out []Contrast
	for _, cand := range cands {
		// Validation witnessed both tuples at the candidate's levels;
		// their witnesses are the anchors.
		anchorA, anchorB := cand.witnesses[0], cand.witnesses[1]
		rs, err := e.Execute(ctx, cand.Query)
		if err != nil {
			return nil, err
		}
		ta := findTuple(rs, anchorA)
		tb := findTuple(rs, anchorB)
		if ta == nil || tb == nil {
			continue
		}
		c := Contrast{Query: cand.Query, AnchorA: anchorA, AnchorB: anchorB}
		var cols []string
		for _, agg := range cand.Query.Aggregates {
			cols = append(cols, agg.OutVar)
		}
		sort.Strings(cols)
		for _, col := range cols {
			va, vb := ta.Measures[col], tb.Measures[col]
			ratio := 0.0
			if vb != 0 {
				ratio = va / vb
			}
			c.Rows = append(c.Rows, ContrastRow{Column: col, A: va, B: vb, Ratio: ratio})
		}
		out = append(out, c)
	}
	return out, nil
}

// findTuple locates the result tuple whose dimension members equal the
// anchor.
func findTuple(rs *ResultSet, anchor []rdf.Term) *Tuple {
	for i := range rs.Tuples {
		t := &rs.Tuples[i]
		if len(t.Dims) != len(anchor) {
			continue
		}
		match := true
		for j := range anchor {
			if t.Dims[j] != anchor[j] {
				match = false
				break
			}
		}
		if match {
			return t
		}
	}
	return nil
}
