package sparql

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"

	"re2xolap/internal/rdf"
)

// Value is the runtime value of an expression: an RDF term or unbound.
type Value struct {
	Term  rdf.Term
	Bound bool
	// numState and num carry Term.Numeric() when the producer already
	// knows it — a value bound from a row takes it from the dictionary's
	// cache — so arithmetic, comparison and aggregation over stored
	// literals never re-parse a lexical form. numState 0 means unknown.
	// numState shares Bound's word: at 72 bytes a Value is still copied
	// with inline moves, at 80 the compiler switches to duffcopy, which
	// cost the federated workload 7% of its CPU.
	numState int8
	num      float64
}

const (
	numYes int8 = 1
	numNo  int8 = -1
)

// number is Term.Numeric(), from the carried copy when there is one.
func (v Value) number() (float64, bool) {
	if v.numState != 0 {
		return v.num, v.numState == numYes
	}
	return v.Term.Numeric()
}

// errExprError marks an expression evaluation error; per SPARQL
// semantics a FILTER whose constraint errors removes the row.
var errExprError = errors.New("sparql: expression error")

func boundValue(t rdf.Term) Value { return Value{Term: t, Bound: true} }

// constValue is boundValue with the numeric state worked out once, for
// a constant evaluated row after row.
func constValue(t rdf.Term) Value {
	v := Value{Term: t, Bound: true, numState: numNo}
	if n, ok := t.Numeric(); ok {
		v.num, v.numState = n, numYes
	}
	return v
}

// numValue is the value of a computed number, rendered.
func numValue(f float64) Value { return pendingNumber(f).rendered() }

// pendingNumber is the value of a computed number whose term is not
// rendered yet: a literal with no lexical form. It carries f, which is
// exactly what the rendered term parses back to. Only an aggregate's
// finalized value is left pending (aggPartial.finalize); emit renders
// it where a kept cell or a term-reading expression needs the term.
func pendingNumber(f float64) Value {
	if integral(f) {
		f = float64(int64(f)) // -0 renders, and so parses back, as 0
	}
	return Value{Term: rdf.Term{Kind: rdf.TermLiteral}, Bound: true, numState: numYes, num: f}
}

// pending reports whether v is a pendingNumber.
func (v Value) pending() bool { return v.numState == numYes && v.Term.Value == "" }

// rendered is v with its term, rendering a pending number.
func (v Value) rendered() Value {
	if v.pending() {
		var buf [32]byte
		b, dt := appendNumber(buf[:0], v.num)
		v.Term = rdf.Term{Kind: rdf.TermLiteral, Value: string(b), Datatype: dt}
	}
	return v
}

// appendNumber is the one number formatter: it appends the lexical
// form of the computed number f to dst and returns f's datatype. An
// integral |f| <= 1e15 is an xsd:integer; any other value is the
// shortest xsd:double that parses back to f; the three special values
// are INF, -INF and NaN.
func appendNumber(dst []byte, f float64) ([]byte, string) {
	switch {
	case integral(f):
		return strconv.AppendInt(dst, int64(f), 10), rdf.XSDInteger
	case math.IsInf(f, 0) || math.IsNaN(f):
		return append(dst, rdf.NewDouble(f).Value...), rdf.XSDDouble
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64), rdf.XSDDouble
}

// integral reports whether f renders as an xsd:integer.
func integral(f float64) bool { return f == float64(int64(f)) && f >= -1e15 && f <= 1e15 }

func boolValue(b bool) Value { return boundValue(rdf.NewBoolean(b)) }

// ebv computes the SPARQL effective boolean value.
func (v Value) ebv() (bool, error) {
	if !v.Bound {
		return false, errExprError
	}
	t := v.Term
	if t.Kind != rdf.TermLiteral {
		return false, errExprError
	}
	if t.Datatype == rdf.XSDBoolean {
		return t.Value == "true" || t.Value == "1", nil
	}
	if n, ok := v.number(); ok {
		return n != 0, nil
	}
	if t.Datatype == "" || t.Datatype == rdf.XSDString {
		return t.Value != "", nil
	}
	return false, errExprError
}

func (v Value) numeric() (float64, error) {
	if !v.Bound {
		return 0, errExprError
	}
	if n, ok := v.number(); ok {
		return n, nil
	}
	return 0, errExprError
}

func (v Value) str() (string, error) {
	if !v.Bound {
		return "", errExprError
	}
	return v.Term.Value, nil
}

// equalValues implements SPARQL '=' with numeric coercion.
func equalValues(a, b Value) (bool, error) {
	if !a.Bound || !b.Bound {
		return false, errExprError
	}
	if an, aok := a.number(); aok {
		if bn, bok := b.number(); bok {
			return an == bn, nil
		}
	}
	return a.Term == b.Term, nil
}

// compareValues returns -1, 0, or 1. Numeric comparison applies when
// both sides are numeric; otherwise string-valued literals and IRIs
// compare lexically.
func compareValues(a, b Value) (int, error) {
	if !a.Bound || !b.Bound {
		return 0, errExprError
	}
	if an, aok := a.number(); aok {
		if bn, bok := b.number(); bok {
			switch {
			case an < bn:
				return -1, nil
			case an > bn:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	return strings.Compare(a.Term.Value, b.Term.Value), nil
}

// comparisons are the relational operators.
var comparisons = map[string]func(a, b Value) (bool, error){
	"=": equalValues,
	"!=": func(a, b Value) (bool, error) {
		eq, err := equalValues(a, b)
		return !eq && err == nil, err
	},
	"<":  func(a, b Value) (bool, error) { c, err := compareValues(a, b); return c < 0, err },
	">":  func(a, b Value) (bool, error) { c, err := compareValues(a, b); return c > 0, err },
	"<=": func(a, b Value) (bool, error) { c, err := compareValues(a, b); return c <= 0, err },
	">=": func(a, b Value) (bool, error) { c, err := compareValues(a, b); return c >= 0, err },
}

// orderCompare is the order ORDER BY and MIN/MAX use over mixed terms:
// unbound < blanks < IRIs < literals; numerics by value; otherwise
// lexical. It is 0 for values it cannot tell apart, distinct terms
// among them ("1" and "1.0"^^xsd:decimal).
func orderCompare(a, b Value) int {
	rank := func(v Value) int {
		if !v.Bound {
			return 0
		}
		switch v.Term.Kind {
		case rdf.TermBlank:
			return 1
		case rdf.TermIRI:
			return 2
		default:
			return 3
		}
	}
	ra, rb := rank(a), rank(b)
	if ra != rb {
		return ra - rb
	}
	if ra == 3 {
		an, aok := a.number()
		bn, bok := b.number()
		switch {
		case aok && bok && an < bn:
			return -1
		case aok && bok && an > bn:
			return 1
		case aok && bok:
			return 0
		case aok != bok:
			return b2i(bok) - b2i(aok) // numerics sort before strings
		}
	}
	return strings.Compare(a.Term.Value, b.Term.Value)
}

func orderLess(a, b Value) bool { return orderCompare(a, b) < 0 }

// unaryFuncs are the one-argument builtins, over the argument's value.
var unaryFuncs = map[string]func(Value) (Value, error){
	"STR": func(a Value) (Value, error) {
		if !a.Bound {
			return Value{}, errExprError
		}
		return boundValue(rdf.NewString(a.Term.Value)), nil
	},
	"LCASE": stringFunc(strings.ToLower),
	"UCASE": stringFunc(strings.ToUpper),
	"STRLEN": func(a Value) (Value, error) {
		s, err := a.str()
		if err != nil {
			return Value{}, err
		}
		return numValue(float64(len([]rune(s)))), nil
	},
	"ABS": numberFunc(func(n float64) float64 {
		if n < 0 {
			return -n
		}
		return n
	}),
	"ROUND": numberFunc(func(n float64) float64 {
		if n >= 0 {
			return float64(int64(n + 0.5))
		}
		return float64(int64(n - 0.5))
	}),
	"FLOOR": numberFunc(func(n float64) float64 {
		f := float64(int64(n))
		if n < 0 && f != n {
			f--
		}
		return f
	}),
	"CEIL": numberFunc(func(n float64) float64 {
		f := float64(int64(n))
		if n > 0 && f != n {
			f++
		}
		return f
	}),
	"ISIRI":     termTest(rdf.Term.IsIRI),
	"ISURI":     termTest(rdf.Term.IsIRI),
	"ISLITERAL": termTest(rdf.Term.IsLiteral),
	"ISBLANK":   termTest(rdf.Term.IsBlank),
	"ISNUMERIC": termTest(rdf.Term.IsNumeric),
	"LANG": func(a Value) (Value, error) {
		if !a.Bound || !a.Term.IsLiteral() {
			return Value{}, errExprError
		}
		return boundValue(rdf.NewString(a.Term.Lang)), nil
	},
	"DATATYPE": func(a Value) (Value, error) {
		if !a.Bound || !a.Term.IsLiteral() {
			return Value{}, errExprError
		}
		dt := a.Term.Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return boundValue(rdf.NewIRI(dt)), nil
	},
}

func stringFunc(f func(string) string) func(Value) (Value, error) {
	return func(a Value) (Value, error) {
		s, err := a.str()
		if err != nil {
			return Value{}, err
		}
		return boundValue(rdf.NewString(f(s))), nil
	}
}

func numberFunc(f func(float64) float64) func(Value) (Value, error) {
	return func(a Value) (Value, error) {
		n, err := a.numeric()
		if err != nil {
			return Value{}, err
		}
		return numValue(f(n)), nil
	}
}

func termTest(f func(rdf.Term) bool) func(Value) (Value, error) {
	return func(a Value) (Value, error) {
		if !a.Bound {
			return Value{}, errExprError
		}
		return boolValue(f(a.Term)), nil
	}
}

// binaryFuncs are the two-argument builtins, over two strings.
var binaryFuncs = map[string]func(s, sub string) Value{
	"CONTAINS":  func(s, sub string) Value { return boolValue(strings.Contains(s, sub)) },
	"STRSTARTS": func(s, sub string) Value { return boolValue(strings.HasPrefix(s, sub)) },
	"STRENDS":   func(s, sub string) Value { return boolValue(strings.HasSuffix(s, sub)) },
	"STRBEFORE": func(s, sub string) Value {
		if i := strings.Index(s, sub); i >= 0 {
			return boundValue(rdf.NewString(s[:i]))
		}
		return boundValue(rdf.NewString(""))
	},
	"STRAFTER": func(s, sub string) Value {
		if i := strings.Index(s, sub); i >= 0 {
			return boundValue(rdf.NewString(s[i+len(sub):]))
		}
		return boundValue(rdf.NewString(""))
	},
}

// concat is CONCAT over its evaluated arguments.
func concat(args []Value) (Value, error) {
	var b strings.Builder
	for _, a := range args {
		s, err := a.str()
		if err != nil {
			return Value{}, err
		}
		b.WriteString(s)
	}
	return boundValue(rdf.NewString(b.String())), nil
}

// substr is SPARQL's 1-based SUBSTR over two or three evaluated
// arguments.
func substr(args []Value) (Value, error) {
	s, err := args[0].str()
	if err != nil {
		return Value{}, err
	}
	startF, err := args[1].numeric()
	if err != nil {
		return Value{}, err
	}
	runes := []rune(s)
	start := min(max(int(startF)-1, 0), len(runes))
	end := len(runes)
	if len(args) == 3 {
		lengthF, err := args[2].numeric()
		if err != nil {
			return Value{}, err
		}
		end = max(min(start+int(lengthF), end), start)
	}
	return boundValue(rdf.NewString(string(runes[start:end]))), nil
}

// compileRegex compiles a REGEX or REPLACE pattern; flags containing
// "i" make it case-insensitive. A bad pattern is an expression error.
func compileRegex(pat, flags string) (*regexp.Regexp, error) {
	if strings.Contains(flags, "i") {
		pat = "(?i)" + pat
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, fmt.Errorf("%w: bad regex: %v", errExprError, err)
	}
	return re, nil
}
