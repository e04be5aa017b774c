package core

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/sparql"
)

// Cut evaluates, against rs's tuples, the conditions q appends to
// rs.Query — HAVING conditions on aggregate columns and VALUES
// restrictions on group-key dimensions — and returns the indices of the
// tuples q keeps, in rs order. ok is false when q does not extend
// rs.Query (see extends); then the cut says nothing about q's answer.
//
// A HAVING condition is evaluated as the SPARQL executor evaluates it:
// a numeric aggregate compares in float64 against the threshold, an
// unbound one fails, and a bound non-numeric one compares its lexical
// form against the threshold's. Both cuts commute with grouping, so the
// kept tuples are exactly the groups q's answer has; a HAVING cut also
// keeps the executor's group order (see Engine.Derive).
func (rs *ResultSet) Cut(q *OLAPQuery) (kept []int, ok bool) {
	p := rs.Query
	if !extends(p, q) {
		return nil, false
	}
	having := q.Having[len(p.Having):]
	cols := make([]column, len(having))
	for i, h := range having {
		cols[i] = rs.column(q.aggIndex(h.Col))
	}
	values := q.DimFilters[len(p.DimFilters):]
	kept = make([]int, 0, len(rs.Tuples))
rows:
	for j, t := range rs.Tuples {
		for i, h := range having {
			if !cols[i].satisfies(j, h.Op, h.Value) {
				continue rows
			}
		}
		for _, f := range values {
			if !inValues(t, f) {
				continue rows
			}
		}
		kept = append(kept, j)
	}
	return kept, true
}

// satisfies reports whether row j of the column passes HAVING
// (aggregate op threshold).
func (c column) satisfies(j int, op string, threshold float64) bool {
	if c.other != nil {
		if t, odd := c.other[j]; odd {
			if !sparql.Bound(t) || op == "=" {
				// An unbound operand is an error, which fails the
				// condition; a non-numeric term never equals a number.
				return false
			}
			// The executor compares a non-numeric term with a number
			// by lexical form, and the threshold's lexical form is the
			// one ToSPARQL writes.
			return compareOp(strings.Compare(t.Value, formatFloat(threshold)), op)
		}
	}
	v := c.vals[j]
	if math.IsNaN(v) {
		return false // NaN compares false under every operator
	}
	return compareOp(cmp.Compare(v, threshold), op)
}

// compareOp applies a MeasureFilter operator to a three-way comparison
// result.
func compareOp(c int, op string) bool {
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	case "=":
		return c == 0
	}
	return false
}

func inValues(t Tuple, f DimValuesFilter) bool {
	for _, row := range f.Rows {
		match := true
		for i, di := range f.DimIdx {
			if di >= len(t.Dims) || t.Dims[di] != row[i] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// extends reports whether q is p with conditions appended: the same
// observation class, dimensions (level, variable and example),
// measures and aggregate columns, with p's HAVING and VALUES conditions
// a prefix of q's. Every appended HAVING names one of the aggregate
// columns and has a finite threshold, the only kind ToSPARQL can write.
func extends(p, q *OLAPQuery) bool {
	if p == nil || q == nil || q.ObsClass != p.ObsClass || len(q.Dims) != len(p.Dims) ||
		!slices.Equal(q.Measures, p.Measures) || !slices.Equal(q.Aggregates, p.Aggregates) ||
		len(q.Having) < len(p.Having) || len(q.DimFilters) < len(p.DimFilters) {
		return false
	}
	for i, d := range q.Dims {
		pd := p.Dims[i]
		if d.Var != pd.Var || d.Level.Key() != pd.Level.Key() ||
			(d.Example == nil) != (pd.Example == nil) ||
			d.Example != nil && *d.Example != *pd.Example {
			return false
		}
	}
	for i, h := range p.Having {
		if g := q.Having[i]; g.Col != h.Col || g.Op != h.Op || g.Value != h.Value {
			return false
		}
	}
	for _, h := range q.Having[len(p.Having):] {
		if q.aggIndex(h.Col) < 0 || math.IsInf(h.Value, 0) || math.IsNaN(h.Value) {
			return false
		}
	}
	for i, f := range p.DimFilters {
		g := q.DimFilters[i]
		if !slices.Equal(g.DimIdx, f.DimIdx) || !slices.EqualFunc(g.Rows, f.Rows, slices.Equal) {
			return false
		}
	}
	return true
}

// aggIndex returns the index of the aggregate column named out, or -1.
func (q *OLAPQuery) aggIndex(out string) int {
	for i := range q.Aggregates {
		if q.Aggregates[i].OutVar == out {
			return i
		}
	}
	return -1
}

// Derive answers q from parent without a query when q is parent's
// query with only HAVING conditions appended (a Top-K, Percentile or
// Cluster refinement) and the store is provably unchanged since parent
// was computed: the client reports its generation before any query
// (endpoint.GenerationOf), it is non-zero, and it equals the one
// parent's answer carried. The answer is parent's tuples that pass the
// appended conditions, in parent's order — the order the executor's
// HAVING, which filters groups in first-appearance order, returns them
// in. A VALUES condition changes the join and so the group order; such
// a q is never derived. ok false means the caller must execute q.
//
// The derived tuples share their Dims and Measures with parent's.
func (e *Engine) Derive(parent *ResultSet, q *OLAPQuery) (rs *ResultSet, ok bool) {
	if parent == nil || parent.gen == 0 || q == nil ||
		len(q.DimFilters) != len(parent.Query.DimFilters) {
		return nil, false
	}
	if gen, ok := endpoint.GenerationOf(e.Client); !ok || gen != parent.gen {
		return nil, false
	}
	kept, ok := parent.Cut(q)
	if !ok {
		return nil, false
	}
	return parent.subset(q, kept), true
}

// subset is the result set of q holding rs's tuples at the kept
// indices, with their columns and example mask.
func (rs *ResultSet) subset(q *OLAPQuery, kept []int) *ResultSet {
	out := &ResultSet{
		Query:   q,
		Tuples:  make([]Tuple, len(kept)),
		gen:     rs.gen,
		cols:    make([]column, len(rs.cols)),
		example: make([]bool, len(kept)),
	}
	for k, j := range kept {
		out.Tuples[k] = rs.Tuples[j]
		out.example[k] = rs.example[j]
	}
	for i, c := range rs.cols {
		nc := column{vals: make([]float64, len(kept))}
		for k, j := range kept {
			nc.vals[k] = c.vals[j]
			if t, odd := c.other[j]; odd {
				nc.setOther(k, t)
			}
		}
		out.cols[i] = nc
	}
	return out
}
