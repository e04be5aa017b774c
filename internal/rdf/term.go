// Package rdf implements the RDF data model used throughout the
// repository: terms (IRIs, literals, blank nodes), triples, and
// parsers/serializers for the N-Triples and a practical Turtle subset.
//
// The model follows the paper's Definition 3.1: an RDF graph is a set of
// <s p o> triples where subjects are IRIs or blank nodes, predicates are
// IRIs, and objects are IRIs, blank nodes, or literals.
package rdf

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

// The three RDF term kinds.
const (
	TermIRI TermKind = iota
	TermBlank
	TermLiteral
)

// Well-known datatype IRIs used by the store and the SPARQL engine.
const (
	XSDInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal  = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble   = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean  = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDString   = "http://www.w3.org/2001/XMLSchema#string"
	XSDDate     = "http://www.w3.org/2001/XMLSchema#date"
	XSDDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"
	XSDGYear    = "http://www.w3.org/2001/XMLSchema#gYear"

	// RDFType is the rdf:type predicate, abbreviated "a" in Turtle and
	// SPARQL.
	RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	// RDFSLabel is the standard human-readable label predicate.
	RDFSLabel = "http://www.w3.org/2000/01/rdf-schema#label"
)

// Term is a single RDF term. The zero value is the empty IRI, which is
// not a valid term; use the constructors below.
//
// For IRIs, Value holds the IRI string. For blank nodes, Value holds the
// local identifier (without the "_:" prefix). For literals, Value holds
// the lexical form, Datatype the datatype IRI (empty means xsd:string),
// and Lang the optional language tag.
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: TermIRI, Value: iri} }

// NewBlank returns a blank-node term with the given local name.
func NewBlank(id string) Term { return Term{Kind: TermBlank, Value: id} }

// NewString returns a plain string literal.
func NewString(s string) Term { return Term{Kind: TermLiteral, Value: s} }

// NewLangString returns a language-tagged string literal.
func NewLangString(s, lang string) Term {
	return Term{Kind: TermLiteral, Value: s, Lang: lang}
}

// NewTyped returns a literal with an explicit datatype IRI.
func NewTyped(lexical, datatype string) Term {
	return Term{Kind: TermLiteral, Value: lexical, Datatype: datatype}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Term {
	return Term{Kind: TermLiteral, Value: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// NewDouble returns an xsd:double literal: the shortest lexical form
// that parses back to v, and INF, -INF and NaN for the special values.
func NewDouble(v float64) Term {
	s := "NaN"
	switch {
	case math.IsInf(v, 1):
		s = "INF"
	case math.IsInf(v, -1):
		s = "-INF"
	case !math.IsNaN(v):
		s = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return Term{Kind: TermLiteral, Value: s, Datatype: XSDDouble}
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Term {
	return Term{Kind: TermLiteral, Value: strconv.FormatBool(v), Datatype: XSDBoolean}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == TermIRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == TermBlank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == TermLiteral }

// IsNumeric reports whether the term is a literal with a numeric XSD
// datatype.
func (t Term) IsNumeric() bool {
	if t.Kind != TermLiteral {
		return false
	}
	switch t.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble:
		return true
	}
	return false
}

// Numeric returns the term's numeric value. The second result reports
// whether the term is a numeric literal with a parseable lexical form.
func (t Term) Numeric() (float64, bool) {
	if !t.IsNumeric() {
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// Equal reports whether two terms are identical (same kind, value,
// datatype, and language tag).
func (t Term) Equal(u Term) bool { return t == u }

// String renders the term in N-Triples syntax. IRIs are wrapped in angle
// brackets, blank nodes prefixed with "_:", and literals quoted with
// escaping plus their datatype or language tag.
func (t Term) String() string {
	switch t.Kind {
	case TermIRI:
		return "<" + t.Value + ">"
	case TermBlank:
		return "_:" + t.Value
	default:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" && t.Datatype != XSDString {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	}
}

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Triple is a single RDF statement <s p o>.
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple from its three terms.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple as one N-Triples line (without newline).
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// Validate reports an error if the triple violates the RDF model:
// literal subjects, non-IRI predicates, or empty term values.
func (t Triple) Validate() error {
	if t.S.Kind == TermLiteral {
		return fmt.Errorf("rdf: literal subject %s", t.S)
	}
	if t.P.Kind != TermIRI {
		return fmt.Errorf("rdf: non-IRI predicate %s", t.P)
	}
	if t.S.Value == "" || t.P.Value == "" {
		return fmt.Errorf("rdf: empty term in triple %s", t)
	}
	return nil
}
