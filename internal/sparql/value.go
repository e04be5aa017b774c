package sparql

import (
	"errors"
	"fmt"
	"regexp"
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

func numValue(f float64) Value {
	if f == float64(int64(f)) && f >= -1e15 && f <= 1e15 {
		return boundValue(rdf.NewInteger(int64(f)))
	}
	return boundValue(rdf.NewDouble(f))
}

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

// orderLess is a total order used by ORDER BY and MIN/MAX over mixed
// terms: unbound < blanks < IRIs < literals; numerics by value;
// otherwise lexical.
func orderLess(a, b Value) bool {
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
		return ra < rb
	}
	if ra == 3 {
		an, aok := a.number()
		bn, bok := b.number()
		if aok && bok {
			return an < bn
		}
		if aok != bok {
			return aok // numerics sort before strings
		}
	}
	return a.Term.Value < b.Term.Value
}

// binding provides variable values during expression evaluation.
type binding interface {
	value(name string) Value
}

// existsEvaluator is implemented by bindings that can evaluate
// EXISTS sub-patterns (row bindings during query execution).
type existsEvaluator interface {
	exists(e ExistsExpr) bool
}

// evalExpr evaluates e under b. An aggregate has a value only as the
// aggRef aggSpec resolved it to, under emit's groupBinding; anywhere
// else it is an error.
func evalExpr(e Expr, b binding) (Value, error) {
	switch x := e.(type) {
	case VarExpr:
		return b.value(x.Name), nil
	case ConstExpr:
		return boundValue(x.Term), nil
	case UnaryExpr:
		v, err := evalExpr(x.E, b)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "!":
			t, err := v.ebv()
			if err != nil {
				return Value{}, err
			}
			return boolValue(!t), nil
		case "-":
			n, err := v.numeric()
			if err != nil {
				return Value{}, err
			}
			return numValue(-n), nil
		}
		return Value{}, fmt.Errorf("%w: unknown unary %q", errExprError, x.Op)
	case BinaryExpr:
		return evalBinary(x, b)
	case InExpr:
		v, err := evalExpr(x.E, b)
		if err != nil {
			return Value{}, err
		}
		found := false
		for _, item := range x.List {
			iv, err := evalExpr(item, b)
			if err != nil {
				continue
			}
			if eq, err := equalValues(v, iv); err == nil && eq {
				found = true
				break
			}
		}
		return boolValue(found != x.Not), nil
	case FuncExpr:
		return evalFunc(x, b)
	case ExistsExpr:
		ev, ok := b.(existsEvaluator)
		if !ok {
			return Value{}, fmt.Errorf("%w: EXISTS outside pattern context", errExprError)
		}
		return boolValue(ev.exists(x) != x.Not), nil
	case aggRef:
		if g, ok := b.(*groupBinding); ok {
			return g.vals[x], nil
		}
	case AggExpr:
		return Value{}, fmt.Errorf("%w: aggregate outside grouping context", errExprError)
	}
	return Value{}, fmt.Errorf("%w: unknown expression %T", errExprError, e)
}

func evalBinary(x BinaryExpr, b binding) (Value, error) {
	switch x.Op {
	case "||":
		l, lerr := evalBool(x.L, b)
		r, rerr := evalBool(x.R, b)
		// SPARQL: true || error = true
		if lerr == nil && l || rerr == nil && r {
			return boolValue(true), nil
		}
		if lerr != nil || rerr != nil {
			return Value{}, errExprError
		}
		return boolValue(false), nil
	case "&&":
		l, lerr := evalBool(x.L, b)
		r, rerr := evalBool(x.R, b)
		if lerr == nil && !l || rerr == nil && !r {
			return boolValue(false), nil
		}
		if lerr != nil || rerr != nil {
			return Value{}, errExprError
		}
		return boolValue(true), nil
	}
	l, err := evalExpr(x.L, b)
	if err != nil {
		return Value{}, err
	}
	r, err := evalExpr(x.R, b)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "=":
		eq, err := equalValues(l, r)
		if err != nil {
			return Value{}, err
		}
		return boolValue(eq), nil
	case "!=":
		eq, err := equalValues(l, r)
		if err != nil {
			return Value{}, err
		}
		return boolValue(!eq), nil
	case "<", ">", "<=", ">=":
		c, err := compareValues(l, r)
		if err != nil {
			return Value{}, err
		}
		var res bool
		switch x.Op {
		case "<":
			res = c < 0
		case ">":
			res = c > 0
		case "<=":
			res = c <= 0
		default:
			res = c >= 0
		}
		return boolValue(res), nil
	case "+", "-", "*", "/":
		ln, err := l.numeric()
		if err != nil {
			return Value{}, err
		}
		rn, err := r.numeric()
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "+":
			return numValue(ln + rn), nil
		case "-":
			return numValue(ln - rn), nil
		case "*":
			return numValue(ln * rn), nil
		default:
			if rn == 0 {
				return Value{}, fmt.Errorf("%w: division by zero", errExprError)
			}
			return numValue(ln / rn), nil
		}
	}
	return Value{}, fmt.Errorf("%w: unknown operator %q", errExprError, x.Op)
}

func evalBool(e Expr, b binding) (bool, error) {
	v, err := evalExpr(e, b)
	if err != nil {
		return false, err
	}
	return v.ebv()
}

func evalFunc(x FuncExpr, b binding) (Value, error) {
	// BOUND and COALESCE/IF need special unbound handling.
	switch x.Name {
	case "BOUND":
		v, ok := x.Args[0].(VarExpr)
		if !ok {
			return Value{}, fmt.Errorf("%w: BOUND requires a variable", errExprError)
		}
		return boolValue(b.value(v.Name).Bound), nil
	case "COALESCE":
		for _, a := range x.Args {
			v, err := evalExpr(a, b)
			if err == nil && v.Bound {
				return v, nil
			}
		}
		return Value{}, errExprError
	case "IF":
		c, err := evalBool(x.Args[0], b)
		if err != nil {
			return Value{}, err
		}
		if c {
			return evalExpr(x.Args[1], b)
		}
		return evalExpr(x.Args[2], b)
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := evalExpr(a, b)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	switch x.Name {
	case "STR":
		if !args[0].Bound {
			return Value{}, errExprError
		}
		return boundValue(rdf.NewString(args[0].Term.Value)), nil
	case "LCASE":
		s, err := args[0].str()
		if err != nil {
			return Value{}, err
		}
		return boundValue(rdf.NewString(strings.ToLower(s))), nil
	case "UCASE":
		s, err := args[0].str()
		if err != nil {
			return Value{}, err
		}
		return boundValue(rdf.NewString(strings.ToUpper(s))), nil
	case "STRLEN":
		s, err := args[0].str()
		if err != nil {
			return Value{}, err
		}
		return numValue(float64(len([]rune(s)))), nil
	case "CONTAINS", "STRSTARTS", "STRENDS":
		s, err := args[0].str()
		if err != nil {
			return Value{}, err
		}
		sub, err := args[1].str()
		if err != nil {
			return Value{}, err
		}
		var res bool
		switch x.Name {
		case "CONTAINS":
			res = strings.Contains(s, sub)
		case "STRSTARTS":
			res = strings.HasPrefix(s, sub)
		default:
			res = strings.HasSuffix(s, sub)
		}
		return boolValue(res), nil
	case "REGEX":
		if len(args) < 2 || len(args) > 3 {
			return Value{}, fmt.Errorf("%w: REGEX arity", errExprError)
		}
		s, err := args[0].str()
		if err != nil {
			return Value{}, err
		}
		pat, err := args[1].str()
		if err != nil {
			return Value{}, err
		}
		if len(args) == 3 {
			flags, _ := args[2].str()
			if strings.Contains(flags, "i") {
				pat = "(?i)" + pat
			}
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad regex: %v", errExprError, err)
		}
		return boolValue(re.MatchString(s)), nil
	case "ABS", "ROUND", "FLOOR", "CEIL":
		n, err := args[0].numeric()
		if err != nil {
			return Value{}, err
		}
		switch x.Name {
		case "ABS":
			if n < 0 {
				n = -n
			}
		case "ROUND":
			if n >= 0 {
				n = float64(int64(n + 0.5))
			} else {
				n = float64(int64(n - 0.5))
			}
		case "FLOOR":
			f := float64(int64(n))
			if n < 0 && f != n {
				f--
			}
			n = f
		default: // CEIL
			f := float64(int64(n))
			if n > 0 && f != n {
				f++
			}
			n = f
		}
		return numValue(n), nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			s, err := a.str()
			if err != nil {
				return Value{}, err
			}
			b.WriteString(s)
		}
		return boundValue(rdf.NewString(b.String())), nil
	case "STRBEFORE", "STRAFTER":
		s, err := args[0].str()
		if err != nil {
			return Value{}, err
		}
		sub, err := args[1].str()
		if err != nil {
			return Value{}, err
		}
		i := strings.Index(s, sub)
		if i < 0 {
			return boundValue(rdf.NewString("")), nil
		}
		if x.Name == "STRBEFORE" {
			return boundValue(rdf.NewString(s[:i])), nil
		}
		return boundValue(rdf.NewString(s[i+len(sub):])), nil
	case "REPLACE":
		if len(args) != 3 {
			return Value{}, fmt.Errorf("%w: REPLACE arity", errExprError)
		}
		s, err := args[0].str()
		if err != nil {
			return Value{}, err
		}
		pat, err := args[1].str()
		if err != nil {
			return Value{}, err
		}
		repl, err := args[2].str()
		if err != nil {
			return Value{}, err
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return Value{}, fmt.Errorf("%w: bad regex: %v", errExprError, err)
		}
		return boundValue(rdf.NewString(re.ReplaceAllString(s, repl))), nil
	case "SUBSTR":
		if len(args) < 2 || len(args) > 3 {
			return Value{}, fmt.Errorf("%w: SUBSTR arity", errExprError)
		}
		s, err := args[0].str()
		if err != nil {
			return Value{}, err
		}
		startF, err := args[1].numeric()
		if err != nil {
			return Value{}, err
		}
		runes := []rune(s)
		// SPARQL SUBSTR is 1-based.
		start := int(startF) - 1
		if start < 0 {
			start = 0
		}
		if start > len(runes) {
			start = len(runes)
		}
		end := len(runes)
		if len(args) == 3 {
			lengthF, err := args[2].numeric()
			if err != nil {
				return Value{}, err
			}
			if e := start + int(lengthF); e < end {
				end = e
			}
			if end < start {
				end = start
			}
		}
		return boundValue(rdf.NewString(string(runes[start:end]))), nil
	case "ISIRI", "ISURI":
		if !args[0].Bound {
			return Value{}, errExprError
		}
		return boolValue(args[0].Term.IsIRI()), nil
	case "ISLITERAL":
		if !args[0].Bound {
			return Value{}, errExprError
		}
		return boolValue(args[0].Term.IsLiteral()), nil
	case "ISBLANK":
		if !args[0].Bound {
			return Value{}, errExprError
		}
		return boolValue(args[0].Term.IsBlank()), nil
	case "ISNUMERIC":
		if !args[0].Bound {
			return Value{}, errExprError
		}
		return boolValue(args[0].Term.IsNumeric()), nil
	case "LANG":
		if !args[0].Bound || !args[0].Term.IsLiteral() {
			return Value{}, errExprError
		}
		return boundValue(rdf.NewString(args[0].Term.Lang)), nil
	case "DATATYPE":
		if !args[0].Bound || !args[0].Term.IsLiteral() {
			return Value{}, errExprError
		}
		dt := args[0].Term.Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return boundValue(rdf.NewIRI(dt)), nil
	}
	return Value{}, fmt.Errorf("%w: unknown function %s", errExprError, x.Name)
}
