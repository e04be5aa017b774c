package sparql

import (
	"testing"
	"testing/quick"
	"unsafe"

	"re2xolap/internal/rdf"
)

// mapBinding is a test row given by variable name; it is also a
// binding of the reference evaluator.
type mapBinding map[string]rdf.Term

func (m mapBinding) value(name string) Value {
	if t, ok := m[name]; ok {
		return boundValue(t)
	}
	return Value{}
}

// terms lays m out as a term row.
func (m mapBinding) terms() (cols []string, row []rdf.Term) {
	for name, t := range m {
		cols = append(cols, name)
		row = append(row, t)
	}
	return cols, row
}

// evalString compiles the filter expression src against m's columns
// and evaluates it over m.
func evalString(t *testing.T, src string, m mapBinding) (Value, error) {
	t.Helper()
	full := "SELECT ?x WHERE { ?x <http://p> ?y . FILTER (" + src + ") }"
	q, err := Parse(full)
	if err != nil {
		t.Fatalf("parse filter %q: %v", src, err)
	}
	var f Expr
	for _, el := range q.Where {
		if fe, ok := el.(FilterElement); ok {
			f = fe.Expr
		}
	}
	cols, row := m.terms()
	return termCompiler(cols).value(f)(nil, nil, row)
}

func TestEvalArithmetic(t *testing.T) {
	b := mapBinding{"v": rdf.NewInteger(10)}
	tests := []struct {
		src  string
		want float64
	}{
		{"?v + 5", 15},
		{"?v - 5", 5},
		{"?v * 3", 30},
		{"?v / 4", 2.5},
		{"-?v", -10},
		{"?v + 0.5", 10.5},
		{"ABS(-3)", 3},
		{"FLOOR(2.7)", 2},
		{"CEIL(2.1)", 3},
		{"ROUND(2.5)", 3},
		{"STRLEN(\"abcd\")", 4},
	}
	for _, tt := range tests {
		v, err := evalString(t, tt.src, b)
		if err != nil {
			t.Errorf("%s: %v", tt.src, err)
			continue
		}
		n, ok := v.Term.Numeric()
		if !ok || n != tt.want {
			t.Errorf("%s = %v, want %v", tt.src, v.Term, tt.want)
		}
	}
}

func TestEvalBooleans(t *testing.T) {
	b := mapBinding{
		"v": rdf.NewInteger(10),
		"s": rdf.NewString("Hello World"),
		"i": rdf.NewIRI("http://ex.org/x"),
	}
	tests := []struct {
		src  string
		want bool
	}{
		{"?v = 10", true},
		{"?v = 10.0", true}, // numeric coercion
		{"?v != 11", true},
		{"?v < 11 && ?v > 9", true},
		{"?v < 9 || ?v > 9", true},
		{"!(?v = 10)", false},
		{"CONTAINS(?s, \"World\")", true},
		{"CONTAINS(LCASE(?s), \"world\")", true},
		{"STRSTARTS(?s, \"Hello\")", true},
		{"STRENDS(?s, \"World\")", true},
		{"REGEX(?s, \"^hello\", \"i\")", true},
		{"REGEX(?s, \"^hello\")", false},
		{"?v IN (5, 10, 15)", true},
		{"?v NOT IN (5, 15)", true},
		{"BOUND(?v)", true},
		{"BOUND(?missing)", false},
		{"ISIRI(?i)", true},
		{"ISIRI(?s)", false},
		{"ISLITERAL(?s)", true},
		{"ISNUMERIC(?v)", true},
		{"ISNUMERIC(?s)", false},
		{"IF(?v > 5, true, false)", true},
		{"COALESCE(?missing, ?v) = 10", true},
		{"\"b\" > \"a\"", true}, // string comparison
		{"?i = <http://ex.org/x>", true},
	}
	for _, tt := range tests {
		v, err := evalString(t, tt.src, b)
		if err != nil {
			t.Errorf("%s: error %v", tt.src, err)
			continue
		}
		got, err := v.ebv()
		if err != nil {
			t.Errorf("%s: ebv error %v", tt.src, err)
			continue
		}
		if got != tt.want {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	b := mapBinding{"s": rdf.NewString("x")}
	bad := []string{
		"?missing = 1", // unbound
		"?s + 1",       // non-numeric arithmetic
		"1 / 0",        // division by zero
		"LANG(5)",      // LANG of numeric literal is fine actually; keep others
	}
	for _, src := range bad[:3] {
		if v, err := evalString(t, src, b); err == nil {
			if ok, eerr := v.ebv(); eerr == nil && ok {
				t.Errorf("%s evaluated to true, want error", src)
			}
		}
	}
}

func TestEvalErrorPropagationInOr(t *testing.T) {
	// SPARQL: true || error = true; false && error = false
	b := mapBinding{"v": rdf.NewInteger(1)}
	v, err := evalString(t, "?v = 1 || ?missing = 2", b)
	if err != nil {
		t.Fatalf("true||error should not error: %v", err)
	}
	if ok, _ := v.ebv(); !ok {
		t.Error("true||error = false")
	}
	v, err = evalString(t, "?v = 2 && ?missing = 2", b)
	if err != nil {
		t.Fatalf("false&&error should not error: %v", err)
	}
	if ok, _ := v.ebv(); ok {
		t.Error("false&&error = true")
	}
}

func TestEvalLangAndDatatype(t *testing.T) {
	b := mapBinding{
		"l": rdf.NewLangString("ciao", "it"),
		"n": rdf.NewInteger(5),
	}
	v, err := evalString(t, "LANG(?l) = \"it\"", b)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := v.ebv(); !ok {
		t.Error("LANG mismatch")
	}
	v, err = evalString(t, "DATATYPE(?n) = <"+rdf.XSDInteger+">", b)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := v.ebv(); !ok {
		t.Error("DATATYPE mismatch")
	}
}

func TestOrderLess(t *testing.T) {
	unb := Value{}
	iri := boundValue(rdf.NewIRI("http://a"))
	s1 := boundValue(rdf.NewString("a"))
	n5 := boundValue(rdf.NewInteger(5))
	n10 := boundValue(rdf.NewInteger(10))
	tests := []struct {
		a, b Value
		want bool
	}{
		{unb, iri, true},
		{iri, s1, true},
		{n5, n10, true},
		{n10, n5, false},
		{n5, s1, true}, // numerics before plain strings
		{s1, n5, false},
	}
	for i, tt := range tests {
		if got := orderLess(tt.a, tt.b); got != tt.want {
			t.Errorf("case %d: orderLess = %v, want %v", i, got, tt.want)
		}
	}
}

// Property: numValue produces terms whose Numeric round-trips.
func TestQuickNumValueRoundTrip(t *testing.T) {
	f := func(n int32) bool {
		v := numValue(float64(n))
		got, ok := v.Term.Numeric()
		return ok && got == float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: compareValues is antisymmetric for integers.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int16) bool {
		va := boundValue(rdf.NewInteger(int64(a)))
		vb := boundValue(rdf.NewInteger(int64(b)))
		c1, err1 := compareValues(va, vb)
		c2, err2 := compareValues(vb, va)
		return err1 == nil && err2 == nil && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestValueStaysInlineCopyable pins the size of Value: up to 72 bytes
// the compiler copies it with inline moves; the next size up (80) goes
// through duffcopy, which showed as 7% of the federated workload's CPU.
func TestValueStaysInlineCopyable(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size > 72 {
		t.Fatalf("Value is %d bytes, want at most 72", size)
	}
}
