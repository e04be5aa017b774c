package rdf

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructors(t *testing.T) {
	tests := []struct {
		name string
		term Term
		kind TermKind
		str  string
	}{
		{"iri", NewIRI("http://ex.org/a"), TermIRI, "<http://ex.org/a>"},
		{"blank", NewBlank("b0"), TermBlank, "_:b0"},
		{"string", NewString("hi"), TermLiteral, `"hi"`},
		{"lang", NewLangString("hi", "en"), TermLiteral, `"hi"@en`},
		{"typed", NewTyped("5", XSDInteger), TermLiteral, `"5"^^<` + XSDInteger + `>`},
		{"int", NewInteger(-42), TermLiteral, `"-42"^^<` + XSDInteger + `>`},
		{"double", NewDouble(2.5), TermLiteral, `"2.5"^^<` + XSDDouble + `>`},
		{"bool", NewBoolean(true), TermLiteral, `"true"^^<` + XSDBoolean + `>`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.term.Kind != tt.kind {
				t.Errorf("kind = %v, want %v", tt.term.Kind, tt.kind)
			}
			if got := tt.term.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
		})
	}
}

func TestTermPredicates(t *testing.T) {
	iri := NewIRI("http://ex.org/a")
	if !iri.IsIRI() || iri.IsBlank() || iri.IsLiteral() {
		t.Errorf("IRI predicates wrong: %v %v %v", iri.IsIRI(), iri.IsBlank(), iri.IsLiteral())
	}
	b := NewBlank("x")
	if b.IsIRI() || !b.IsBlank() || b.IsLiteral() {
		t.Error("blank predicates wrong")
	}
	l := NewString("x")
	if l.IsIRI() || l.IsBlank() || !l.IsLiteral() {
		t.Error("literal predicates wrong")
	}
}

func TestNumeric(t *testing.T) {
	tests := []struct {
		term Term
		want float64
		ok   bool
	}{
		{NewInteger(7), 7, true},
		{NewDouble(1.5), 1.5, true},
		{NewTyped("3.25", XSDDecimal), 3.25, true},
		{NewString("7"), 0, false},
		{NewIRI("http://7"), 0, false},
		{NewTyped("abc", XSDInteger), 0, false},
	}
	for _, tt := range tests {
		got, ok := tt.term.Numeric()
		if got != tt.want || ok != tt.ok {
			t.Errorf("%s.Numeric() = %v,%v want %v,%v", tt.term, got, ok, tt.want, tt.ok)
		}
	}
}

// TestDoubleSpecialValues: the special values take their xsd:double
// lexical forms, which parse back to the same value.
func TestDoubleSpecialValues(t *testing.T) {
	for _, tt := range []struct {
		v    float64
		want string
	}{{math.Inf(1), "INF"}, {math.Inf(-1), "-INF"}, {math.NaN(), "NaN"}, {1e300, "1e+300"}, {-0.5, "-0.5"}} {
		term := NewDouble(tt.v)
		if term.Value != tt.want {
			t.Errorf("NewDouble(%v) = %q, want %q", tt.v, term.Value, tt.want)
		}
		got, ok := term.Numeric()
		if !ok || got != tt.v && !(math.IsNaN(got) && math.IsNaN(tt.v)) {
			t.Errorf("%s.Numeric() = %v,%v, want %v", term, got, ok, tt.v)
		}
	}
}

func TestLiteralEscaping(t *testing.T) {
	raw := "line1\nline2\t\"quoted\" back\\slash"
	term := NewString(raw)
	s := term.String()
	if strings.Contains(s, "\n") {
		t.Errorf("String() contains raw newline: %q", s)
	}
	got, err := parseLiteralToken(s)
	if err != nil {
		t.Fatalf("parseLiteralToken(%q): %v", s, err)
	}
	if got.Value != raw {
		t.Errorf("round trip = %q, want %q", got.Value, raw)
	}
}

func TestTripleValidate(t *testing.T) {
	good := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewString("o"))
	if err := good.Validate(); err != nil {
		t.Errorf("valid triple rejected: %v", err)
	}
	bad := []Triple{
		NewTriple(NewString("s"), NewIRI("http://p"), NewString("o")),
		NewTriple(NewIRI("http://s"), NewString("p"), NewString("o")),
		NewTriple(NewIRI("http://s"), NewBlank("p"), NewString("o")),
		NewTriple(NewIRI(""), NewIRI("http://p"), NewString("o")),
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad triple %d accepted", i)
		}
	}
}

func TestTripleString(t *testing.T) {
	tr := NewTriple(NewIRI("http://s"), NewIRI("http://p"), NewInteger(3))
	want := `<http://s> <http://p> "3"^^<` + XSDInteger + `> .`
	if got := tr.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: any string literal survives a String()→parse round trip.
func TestQuickLiteralRoundTrip(t *testing.T) {
	f := func(s string) bool {
		term := NewString(s)
		got, err := parseLiteralToken(term.String())
		return err == nil && got.Value == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
