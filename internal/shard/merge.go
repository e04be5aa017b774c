package shard

import (
	"errors"
	"fmt"
	"slices"

	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
)

// unionResults concatenates per-shard result sets (nil slots are
// degraded-mode skips). Row order is irrelevant — the caller applies
// sparql.MergeFinalize — but CONSTRUCT graphs are deduplicated and
// canonically sorted here, since MergeFinalize leaves them alone.
func unionResults(q *sparql.Query, results []*sparql.Results) (*sparql.Results, error) {
	if q.Construct != nil {
		return unionGraphs(results)
	}
	merged := &sparql.Results{}
	rows := 0
	for _, r := range results {
		if r == nil {
			continue
		}
		if merged.Vars == nil {
			merged.Vars = r.Vars
		} else if !slices.Equal(merged.Vars, r.Vars) {
			// Shards parse identical query text, so diverging headers
			// mean a backend is not answering the query we sent.
			return nil, fmt.Errorf("shard: result header mismatch: %v vs %v", merged.Vars, r.Vars)
		}
		rows += len(r.Rows)
	}
	if merged.Vars == nil {
		return nil, errors.New("shard: no shard results")
	}
	merged.Rows = make([][]rdf.Term, 0, rows)
	for _, r := range results {
		if r != nil {
			merged.Rows = append(merged.Rows, r.Rows...)
		}
	}
	return merged, nil
}

// unionGraphs merges CONSTRUCT outputs: a graph is a set, so the
// shard graphs are united, deduplicated, and canonically ordered.
func unionGraphs(results []*sparql.Results) (*sparql.Results, error) {
	all := newGatherPart(0, 0)
	any := false
	for _, r := range results {
		if r == nil {
			continue
		}
		any = true
		for _, t := range r.Triples {
			all.add(t)
		}
	}
	if !any {
		return nil, errors.New("shard: no shard results")
	}
	terms, triples := all.canonical()
	merged := &sparql.Results{IsConstruct: true}
	for _, t := range triples {
		merged.Triples = append(merged.Triples, rdf.Triple{S: terms[t[0]], P: terms[t[1]], O: terms[t[2]]})
	}
	return merged, nil
}
