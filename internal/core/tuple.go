// Package core implements ReOLAP, the paper's query synthesis
// algorithm (Section 5): it reverse-engineers SPARQL OLAP queries from
// example tuples of dimension-member attribute values, using the
// virtual schema graph to avoid touching the triplestore for structure
// and the endpoint's full-text facilities to resolve keywords to
// members. It also defines the structured OLAP query representation
// that the refinement suite in internal/refine manipulates.
package core

import (
	"fmt"
	"strings"

	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/vgraph"
)

// ExampleItem is one component a_i of an example tuple: either a
// keyword to be resolved against member attributes ("Germany", "2014")
// or a concrete member IRI the user already knows.
type ExampleItem struct {
	Keyword string
	IRI     string // set instead of Keyword for direct member references
}

// NewKeyword returns a keyword example item.
func NewKeyword(kw string) ExampleItem { return ExampleItem{Keyword: kw} }

// NewMemberIRI returns a direct-IRI example item.
func NewMemberIRI(iri string) ExampleItem { return ExampleItem{IRI: iri} }

// String renders the item for display.
func (e ExampleItem) String() string {
	if e.IRI != "" {
		return "<" + e.IRI + ">"
	}
	return fmt.Sprintf("%q", e.Keyword)
}

// ExampleTuple is one example tuple t_E: ⟨a_1, ..., a_k⟩.
type ExampleTuple []ExampleItem

// Keywords builds an example tuple from keyword strings.
func Keywords(kws ...string) ExampleTuple {
	t := make(ExampleTuple, len(kws))
	for i, kw := range kws {
		t[i] = NewKeyword(kw)
	}
	return t
}

// String renders the tuple as ⟨"a", "b"⟩.
func (t ExampleTuple) String() string {
	parts := make([]string, len(t))
	for i, e := range t {
		parts[i] = e.String()
	}
	return "⟨" + strings.Join(parts, ", ") + "⟩"
}

// Match records one interpretation of an example item: a dimension
// member at a specific level, together with the attribute that matched.
type Match struct {
	// Member is the dimension member IRI.
	Member rdf.Term
	// Level is the virtual-graph level the member belongs to.
	Level *vgraph.Level
	// Attribute is the predicate whose literal matched the keyword
	// (empty for direct IRI items).
	Attribute string
	// MatchedText is the literal value that matched.
	MatchedText string
}

// Tuple is one answer tuple of an OLAP query: dimension member values
// aligned with the query's dimensions, plus the aggregated measures
// keyed by output column name.
type Tuple struct {
	Dims     []rdf.Term
	Measures map[string]float64
}

// ResultSet is the decoded output of executing an OLAPQuery.
type ResultSet struct {
	// Query is the query that produced the results.
	Query *OLAPQuery
	// Tuples holds one entry per GROUP BY group.
	Tuples []Tuple

	// gen is the store generation the answer was computed at: zero when
	// the client reported none or the answer is incomplete, which rules
	// out deriving from it (see Engine.Derive).
	gen uint64
	// cols holds one column per entry of Query.Aggregates and example
	// the example-match mask, both aligned with Tuples. DecodeResults
	// and a derivation fill them; for a ResultSet built by hand the
	// accessors compute them from Tuples.
	cols    []column
	example []bool
}

// column is one aggregate column: the values as Tuple.Measures holds
// them (0 where the aggregate is not a number) and, for the rows where
// it is not, the term the engine returned there (the zero Term when the
// aggregate is unbound).
type column struct {
	vals  []float64
	other map[int]rdf.Term
}

// setOther records that row j holds the non-numeric term t.
func (c *column) setOther(j int, t rdf.Term) {
	if c.other == nil {
		c.other = map[int]rdf.Term{}
	}
	c.other[j] = t
}

// Len returns the number of tuples.
func (rs *ResultSet) Len() int { return len(rs.Tuples) }

// Column returns aggregate column i (an index into Query.Aggregates),
// aligned with Tuples, reading a measure absent from Tuple.Measures as
// 0. The slice is shared with the result set: do not modify it.
func (rs *ResultSet) Column(i int) []float64 { return rs.column(i).vals }

func (rs *ResultSet) column(i int) column {
	if rs.cols != nil {
		return rs.cols[i]
	}
	col := rs.Query.Aggregates[i].OutVar
	c := column{vals: make([]float64, len(rs.Tuples))}
	for j, t := range rs.Tuples {
		v, ok := t.Measures[col]
		if !ok {
			c.setOther(j, rdf.Term{})
		}
		c.vals[j] = v
	}
	return c
}

// ExampleMask reports, per tuple, whether MatchesExample holds. The
// slice is shared with the result set: do not modify it.
func (rs *ResultSet) ExampleMask() []bool {
	if rs.example != nil {
		return rs.example
	}
	return rs.exampleMask()
}

func (rs *ResultSet) exampleMask() []bool {
	mask := make([]bool, len(rs.Tuples))
	for i, t := range rs.Tuples {
		mask[i] = rs.MatchesExample(t)
	}
	return mask
}

// MatchesExample reports whether the tuple contains every example
// member of the query in its corresponding dimension position — the
// per-tuple subsumption check T_E ⊑ t used throughout the refinement
// methods.
func (rs *ResultSet) MatchesExample(t Tuple) bool {
	for di, d := range rs.Query.Dims {
		if d.Example == nil {
			continue
		}
		if di >= len(t.Dims) || t.Dims[di] != *d.Example {
			return false
		}
	}
	return true
}

// ExampleTuples returns the indices of tuples matching the example.
func (rs *ResultSet) ExampleTuples() []int {
	var out []int
	for i, ok := range rs.ExampleMask() {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// DecodeResults converts raw SPARQL results into a ResultSet for q. The
// result columns must be the ones produced by q.ToSPARQL.
func DecodeResults(q *OLAPQuery, res *sparql.Results) (*ResultSet, error) {
	rs := &ResultSet{Query: q}
	dimCols := make([]int, len(q.Dims))
	for i, d := range q.Dims {
		c := res.Column(d.Var)
		if c < 0 {
			return nil, fmt.Errorf("core: result column ?%s missing", d.Var)
		}
		dimCols[i] = c
	}
	aggCols := make([]int, len(q.Aggregates))
	for i, a := range q.Aggregates {
		c := res.Column(a.OutVar)
		if c < 0 {
			return nil, fmt.Errorf("core: result column ?%s missing", a.OutVar)
		}
		aggCols[i] = c
	}
	rs.Tuples = make([]Tuple, 0, len(res.Rows))
	rs.cols = make([]column, len(aggCols))
	for i := range rs.cols {
		rs.cols[i].vals = make([]float64, len(res.Rows))
	}
	for j, row := range res.Rows {
		t := Tuple{Dims: make([]rdf.Term, len(dimCols)), Measures: make(map[string]float64, len(aggCols))}
		for i, c := range dimCols {
			t.Dims[i] = row[c]
		}
		for i, c := range aggCols {
			if n, ok := row[c].Numeric(); ok {
				t.Measures[q.Aggregates[i].OutVar] = n
				rs.cols[i].vals[j] = n
			} else {
				rs.cols[i].setOther(j, row[c])
			}
		}
		rs.Tuples = append(rs.Tuples, t)
	}
	rs.example = rs.exampleMask()
	return rs, nil
}
