// Package sparql implements a lexer, parser, and executor for the
// SPARQL fragment that RE2xOLAP generates and the bootstrap crawler
// needs: basic graph patterns with sequence/inverse property paths,
// FILTER expressions, VALUES, OPTIONAL, GROUP BY with the standard
// aggregates, HAVING, ORDER BY, DISTINCT, LIMIT/OFFSET, and ASK.
//
// Queries execute directly against internal/store with greedy,
// selectivity-based join ordering; keyword filters of the form
// CONTAINS(LCASE(STR(?x)), "kw") are rewritten into full-text index
// scans.
package sparql

import (
	"fmt"
	"slices"
	"strings"

	"re2xolap/internal/rdf"
)

// Node is a subject, predicate, or object position in a triple pattern:
// either a concrete RDF term or a variable.
type Node struct {
	// Var holds the variable name (without '?') when IsVar is true;
	// otherwise Term holds a concrete RDF term.
	Var   string
	Term  rdf.Term
	IsVar bool
}

// NewVarNode returns a variable node.
func NewVarNode(name string) Node { return Node{Var: name, IsVar: true} }

// NewTermNode returns a concrete-term node.
func NewTermNode(t rdf.Term) Node { return Node{Term: t} }

// String renders the node in SPARQL syntax.
func (n Node) String() string {
	if n.IsVar {
		return "?" + n.Var
	}
	return n.Term.String()
}

// TriplePattern is a single BGP pattern. Sequence property paths are
// expanded by the parser into chains of TriplePatterns over fresh
// internal variables, so P here is always a single IRI or variable.
type TriplePattern struct {
	S, P, O Node
}

// String renders the pattern in SPARQL syntax.
func (tp TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s .", tp.S, tp.P, tp.O)
}

// PatternElement is one element of a group graph pattern.
type PatternElement interface{ patternElement() }

// FilterElement wraps a FILTER constraint.
type FilterElement struct{ Expr Expr }

// ValuesElement is an inline VALUES data block. Each row assigns one
// term per variable; a nil term is the SPARQL UNDEF placeholder.
type ValuesElement struct {
	Vars []string
	Rows [][]*rdf.Term
}

// OptionalElement is an OPTIONAL { ... } block containing triple
// patterns and filters (no nesting).
type OptionalElement struct {
	Patterns []TriplePattern
	Filters  []Expr
}

// UnionElement is { branch } UNION { branch } ...; each branch is a
// flat group of triple patterns and filters.
type UnionElement struct {
	Branches [][]PatternElement
}

// BindElement is BIND (expr AS ?var): it computes a value per solution
// and binds it to a fresh variable.
type BindElement struct {
	Expr Expr
	Var  string
}

// SubSelectElement is a nested { SELECT ... } group: the inner query
// runs first and its solutions join with the outer pattern.
type SubSelectElement struct {
	Query *Query
}

// ClosurePattern is a transitive property-path pattern: S <p>+ O (one
// or more steps) or S <p>* O (zero or more steps).
type ClosurePattern struct {
	S, O Node
	// Pred is the closed-over predicate IRI.
	Pred rdf.Term
	// MinZero is true for '*' (zero steps allowed).
	MinZero bool
}

// String renders the closure pattern in SPARQL syntax.
func (cp ClosurePattern) String() string {
	mod := "+"
	if cp.MinZero {
		mod = "*"
	}
	return fmt.Sprintf("%s %s%s %s .", cp.S, cp.Pred, mod, cp.O)
}

func (TriplePattern) patternElement()    {}
func (ClosurePattern) patternElement()   {}
func (SubSelectElement) patternElement() {}
func (BindElement) patternElement()      {}
func (FilterElement) patternElement()    {}
func (ValuesElement) patternElement()    {}
func (OptionalElement) patternElement()  {}
func (UnionElement) patternElement()     {}

// SelectItem is one projection entry: a plain variable, or an
// expression with an alias (expr AS ?name).
type SelectItem struct {
	Var  string // result column name
	Expr Expr   // nil for a plain variable projection
}

// cell is the expression the item projects: its own, or its variable.
func (it SelectItem) cell() Expr {
	if it.Expr == nil {
		return VarExpr{Name: it.Var}
	}
	return it.Expr
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// Query is a parsed SPARQL query.
type Query struct {
	// Ask is true for ASK queries; Select items are then empty.
	Ask bool
	// Construct holds the template of a CONSTRUCT query; nil otherwise.
	Construct []TriplePattern

	Distinct bool
	// Star is true for SELECT *.
	Star   bool
	Select []SelectItem

	Where []PatternElement

	GroupBy []string
	Having  []Expr
	OrderBy []OrderKey

	// Limit < 0 means no limit; Offset 0 means none.
	Limit  int
	Offset int

	// Prefixes records the prologue for serialization.
	Prefixes map[string]string
}

// IsAggregate reports whether the query needs grouping: it has a GROUP
// BY clause or any aggregate in projection or HAVING.
func (q *Query) IsAggregate() bool {
	return len(q.GroupBy) > 0 || len(q.Having) > 0 ||
		slices.ContainsFunc(q.Select, func(s SelectItem) bool { return s.Expr != nil && contains[AggExpr](s.Expr) })
}

// internalVarPrefix marks variables generated during property-path
// expansion; they are excluded from SELECT * projection.
const internalVarPrefix = "_path"

// String serializes the query back to SPARQL text.
func (q *Query) String() string {
	var b strings.Builder
	if q.Construct != nil {
		b.WriteString("CONSTRUCT {\n")
		for _, tp := range q.Construct {
			b.WriteString("  " + tp.String() + "\n")
		}
		b.WriteString("}")
	} else if q.Ask {
		b.WriteString("ASK")
	} else {
		b.WriteString("SELECT ")
		if q.Distinct {
			b.WriteString("DISTINCT ")
		}
		if q.Star {
			b.WriteString("*")
		} else {
			for i, s := range q.Select {
				if i > 0 {
					b.WriteByte(' ')
				}
				if s.Expr == nil {
					b.WriteString("?" + s.Var)
				} else {
					fmt.Fprintf(&b, "(%s AS ?%s)", s.Expr, s.Var)
				}
			}
		}
	}
	b.WriteString(" WHERE {\n")
	writePatternElements(&b, q.Where, "  ")
	b.WriteString("}")
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY")
		for _, v := range q.GroupBy {
			b.WriteString(" ?" + v)
		}
	}
	for i, h := range q.Having {
		if i == 0 {
			b.WriteString(" HAVING")
		}
		fmt.Fprintf(&b, " (%s)", h)
	}
	for i, o := range q.OrderBy {
		if i == 0 {
			b.WriteString(" ORDER BY")
		}
		if o.Desc {
			fmt.Fprintf(&b, " DESC(%s)", o.Expr)
		} else {
			fmt.Fprintf(&b, " ASC(%s)", o.Expr)
		}
	}
	if q.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	if q.Offset > 0 {
		fmt.Fprintf(&b, " OFFSET %d", q.Offset)
	}
	return b.String()
}

func writePatternElements(b *strings.Builder, elems []PatternElement, indent string) {
	for _, e := range elems {
		switch el := e.(type) {
		case TriplePattern:
			b.WriteString(indent)
			b.WriteString(el.String())
			b.WriteByte('\n')
		case ClosurePattern:
			b.WriteString(indent)
			b.WriteString(el.String())
			b.WriteByte('\n')
		case FilterElement:
			fmt.Fprintf(b, "%sFILTER (%s)\n", indent, el.Expr)
		case ValuesElement:
			b.WriteString(indent)
			b.WriteString("VALUES (")
			for i, v := range el.Vars {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString("?" + v)
			}
			b.WriteString(") {")
			for _, row := range el.Rows {
				b.WriteString(" (")
				for i, t := range row {
					if i > 0 {
						b.WriteByte(' ')
					}
					if t == nil {
						b.WriteString("UNDEF")
					} else {
						b.WriteString(t.String())
					}
				}
				b.WriteString(")")
			}
			b.WriteString(" }\n")
		case UnionElement:
			for i, br := range el.Branches {
				if i > 0 {
					b.WriteString(indent)
					b.WriteString("UNION\n")
				}
				b.WriteString(indent)
				b.WriteString("{\n")
				writePatternElements(b, br, indent+"  ")
				b.WriteString(indent + "}\n")
			}
		case BindElement:
			fmt.Fprintf(b, "%sBIND (%s AS ?%s)\n", indent, el.Expr, el.Var)
		case SubSelectElement:
			b.WriteString(indent)
			b.WriteString("{ ")
			b.WriteString(el.Query.String())
			b.WriteString(" }\n")
		case OptionalElement:
			b.WriteString(indent)
			b.WriteString("OPTIONAL {\n")
			for _, tp := range el.Patterns {
				b.WriteString(indent + "  ")
				b.WriteString(tp.String())
				b.WriteByte('\n')
			}
			for _, f := range el.Filters {
				fmt.Fprintf(b, "%s  FILTER (%s)\n", indent, f)
			}
			b.WriteString(indent + "}\n")
		}
	}
}
