package core

import (
	"fmt"
	"strings"

	"re2xolap/internal/rdf"
	"re2xolap/internal/vgraph"
)

// AggFuncs are the aggregation functions ReOLAP instantiates for every
// measure, per Section 5.1.
var AggFuncs = []string{"SUM", "MIN", "MAX", "AVG"}

// DimRef is one grouped dimension of an OLAP query: a hierarchy level
// whose members form a GROUP BY column.
type DimRef struct {
	// Level identifies the dimension, hierarchy path, and granularity.
	Level *vgraph.Level
	// Var is the SPARQL variable name of the column.
	Var string
	// Example is the member from the user example that anchored this
	// dimension, if any (used by subsumption checks and refinements).
	Example *rdf.Term
}

// MeasureRef is one measure bound in the query body.
type MeasureRef struct {
	Predicate string
	Label     string
	// Var is the raw per-observation value variable.
	Var string
}

// AggColumn is one aggregated output column.
type AggColumn struct {
	// Func is SUM, MIN, MAX, or AVG.
	Func string
	// Measure indexes into OLAPQuery.Measures.
	Measure int
	// OutVar is the output column name, e.g. "sum_numApplicants".
	OutVar string
}

// MeasureFilter is a HAVING-style condition on an aggregate column,
// produced by the subset refinements.
type MeasureFilter struct {
	// Col is the OutVar of the filtered aggregate column.
	Col string
	// Op is one of "<", "<=", ">", ">=", "=".
	Op string
	// Value is the threshold.
	Value float64
	// Why explains the filter to the user (paper: explainability),
	// e.g. "top-3 by sum_numApplicants (descending)".
	Why string
}

// DimValuesFilter restricts a set of dimension columns to specific
// member combinations via a VALUES block, produced by the similarity
// refinement.
type DimValuesFilter struct {
	// DimIdx are indices into OLAPQuery.Dims.
	DimIdx []int
	// Rows are the allowed member combinations, aligned with DimIdx.
	Rows [][]rdf.Term
	// Why explains the restriction to the user.
	Why string
}

// OLAPQuery is the structured form of a reverse-engineered analytical
// query: a SELECT...WHERE...GROUP BY over observations, as produced by
// GetQuery and refined by the ExRef suite. The SPARQL text is derived,
// never stored, so refinements manipulate structure rather than
// strings.
type OLAPQuery struct {
	// ObsClass is the observation class IRI.
	ObsClass string
	// Dims are the grouped dimensions, in output order.
	Dims []DimRef
	// Measures are the bound measure predicates.
	Measures []MeasureRef
	// Aggregates are the aggregated output columns.
	Aggregates []AggColumn
	// Having are aggregate-value conditions (dice on measures).
	Having []MeasureFilter
	// DimFilters are member-combination restrictions (dice on members).
	DimFilters []DimValuesFilter
	// Description is a natural-language rendering (see Describe).
	Description string
}

// Clone returns a deep copy; refinements clone before mutating so the
// exploration history stays intact (backtracking, Figure 3).
func (q *OLAPQuery) Clone() *OLAPQuery {
	c := *q
	c.Dims = append([]DimRef(nil), q.Dims...)
	c.Measures = append([]MeasureRef(nil), q.Measures...)
	c.Aggregates = append([]AggColumn(nil), q.Aggregates...)
	c.Having = append([]MeasureFilter(nil), q.Having...)
	c.DimFilters = make([]DimValuesFilter, len(q.DimFilters))
	for i, f := range q.DimFilters {
		nf := f
		nf.DimIdx = append([]int(nil), f.DimIdx...)
		nf.Rows = make([][]rdf.Term, len(f.Rows))
		for j, r := range f.Rows {
			nf.Rows[j] = append([]rdf.Term(nil), r...)
		}
		c.DimFilters[i] = nf
	}
	return &c
}

// HasLevel reports whether the query already groups by the given level.
func (q *OLAPQuery) HasLevel(l *vgraph.Level) bool {
	for _, d := range q.Dims {
		if d.Level.Key() == l.Key() {
			return true
		}
	}
	return false
}

// DimOfDimension returns the index of the dimension grouped on the
// given dimension predicate, or -1.
func (q *OLAPQuery) DimOfDimension(dimension string) int {
	for i, d := range q.Dims {
		if d.Level.Dimension == dimension {
			return i
		}
	}
	return -1
}

// AggColumnFor returns the output column for (func, measure index), or
// nil.
func (q *OLAPQuery) AggColumnFor(fn string, measure int) *AggColumn {
	for i := range q.Aggregates {
		a := &q.Aggregates[i]
		if a.Func == fn && a.Measure == measure {
			return a
		}
	}
	return nil
}

// varName sanitizes an IRI local-name sequence into a SPARQL variable
// name.
func varName(parts ...string) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte('_')
		}
		for _, r := range p {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' {
				b.WriteRune(r)
			}
		}
	}
	s := b.String()
	if s == "" || s[0] >= '0' && s[0] <= '9' {
		s = "v_" + s
	}
	return s
}

func localName(iri string) string {
	if i := strings.LastIndexByte(iri, '#'); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	if i := strings.LastIndexByte(iri, '/'); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	return iri
}

// NewOLAPQuery assembles a query over the given levels and measures,
// instantiating every aggregation function for every measure and
// assigning unique variable names.
func NewOLAPQuery(obsClass string, levels []*vgraph.Level, examples []*rdf.Term, measures []vgraph.Measure) *OLAPQuery {
	q := &OLAPQuery{ObsClass: obsClass}
	used := map[string]int{}
	uniq := func(name string) string {
		n := used[name]
		used[name]++
		if n == 0 {
			return name
		}
		return fmt.Sprintf("%s_%d", name, n)
	}
	for i, l := range levels {
		parts := make([]string, len(l.Path))
		for j, p := range l.Path {
			parts[j] = localName(p)
		}
		d := DimRef{Level: l, Var: uniq(varName(parts...))}
		if examples != nil && examples[i] != nil {
			d.Example = examples[i]
		}
		q.Dims = append(q.Dims, d)
	}
	for i, m := range measures {
		mv := uniq(varName("m", localName(m.Predicate)))
		q.Measures = append(q.Measures, MeasureRef{Predicate: m.Predicate, Label: m.Label, Var: mv})
		for _, fn := range AggFuncs {
			q.Aggregates = append(q.Aggregates, AggColumn{
				Func:    fn,
				Measure: i,
				OutVar:  uniq(varName(strings.ToLower(fn), localName(m.Predicate))),
			})
		}
	}
	return q
}

// AddDim appends a grouped dimension for the given level, assigning a
// variable name unique within the query, and returns its index.
func (q *OLAPQuery) AddDim(l *vgraph.Level) int {
	parts := make([]string, len(l.Path))
	for j, p := range l.Path {
		parts[j] = localName(p)
	}
	name := varName(parts...)
	taken := func(v string) bool {
		for _, d := range q.Dims {
			if d.Var == v {
				return true
			}
		}
		for _, m := range q.Measures {
			if m.Var == v {
				return true
			}
		}
		for _, a := range q.Aggregates {
			if a.OutVar == v {
				return true
			}
		}
		return false
	}
	v := name
	for i := 1; taken(v); i++ {
		v = fmt.Sprintf("%s_%d", name, i)
	}
	q.Dims = append(q.Dims, DimRef{Level: l, Var: v})
	return len(q.Dims) - 1
}

// ToSPARQL renders the query as executable SPARQL text.
func (q *OLAPQuery) ToSPARQL() string {
	var b strings.Builder
	b.WriteString("SELECT")
	for _, d := range q.Dims {
		b.WriteString(" ?" + d.Var)
	}
	for _, a := range q.Aggregates {
		m := q.Measures[a.Measure]
		fmt.Fprintf(&b, " (%s(?%s) AS ?%s)", a.Func, m.Var, a.OutVar)
	}
	b.WriteString(" WHERE {\n")
	fmt.Fprintf(&b, "  ?obs a <%s> .\n", q.ObsClass)
	for _, d := range q.Dims {
		fmt.Fprintf(&b, "  ?obs %s ?%s .\n", pathExpr(d.Level.Path), d.Var)
	}
	for _, m := range q.Measures {
		fmt.Fprintf(&b, "  ?obs <%s> ?%s .\n", m.Predicate, m.Var)
	}
	for _, f := range q.DimFilters {
		b.WriteString("  VALUES (")
		for i, di := range f.DimIdx {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString("?" + q.Dims[di].Var)
		}
		b.WriteString(") {")
		for _, row := range f.Rows {
			b.WriteString(" (")
			for i, t := range row {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(t.String())
			}
			b.WriteString(")")
		}
		b.WriteString(" }\n")
	}
	b.WriteString("}")
	if len(q.Dims) > 0 {
		b.WriteString(" GROUP BY")
		for _, d := range q.Dims {
			b.WriteString(" ?" + d.Var)
		}
	}
	for i, h := range q.Having {
		if i == 0 {
			b.WriteString(" HAVING")
		}
		col := q.Aggregates[q.aggIndex(h.Col)]
		m := q.Measures[col.Measure]
		fmt.Fprintf(&b, " (%s(?%s) %s %s)", col.Func, m.Var, h.Op, formatFloat(h.Value))
	}
	return b.String()
}

func formatFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

func pathExpr(path []string) string {
	parts := make([]string, len(path))
	for i, p := range path {
		parts[i] = "<" + p + ">"
	}
	return strings.Join(parts, "/")
}

// Describe renders the natural-language description of the query in
// the templated style of Section 5.1, e.g.
//
//	Return SUM(Num Applicants) grouped by "Country Origin / In
//	Continent" and "Country Destination" where sum_numApplicants > 100.
func (q *OLAPQuery) Describe() string {
	var b strings.Builder
	b.WriteString("Return ")
	for i, m := range q.Measures {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "SUM/MIN/MAX/AVG(%s)", m.Label)
	}
	if len(q.Dims) > 0 {
		b.WriteString(" grouped by ")
		for i, d := range q.Dims {
			if i > 0 {
				b.WriteString(" and ")
			}
			fmt.Fprintf(&b, "%q", levelDescription(d.Level))
		}
	}
	for _, h := range q.Having {
		fmt.Fprintf(&b, ", keeping %s", h.Why)
	}
	for _, f := range q.DimFilters {
		fmt.Fprintf(&b, ", restricted to %s", f.Why)
	}
	return b.String()
}

// levelDescription renders a level as "Dimension / Sub Level" using the
// labels collected at bootstrap.
func levelDescription(l *vgraph.Level) string {
	var labels []string
	for cur := l; cur != nil; cur = cur.Parent {
		labels = append([]string{cur.Label}, labels...)
	}
	return strings.Join(labels, " / ")
}
