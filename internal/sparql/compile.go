package sparql

import (
	"fmt"
	"regexp"

	"re2xolap/internal/rdf"
)

// Expressions compile once per query into closures over positions.
// Every variable is resolved while compiling — to a slot of the
// executor's ID rows, or to a column of a term row — so evaluating an
// expression per row indexes, and never looks a name up. Both row kinds
// share one compiler and one closure type: a closure compiled for ID
// rows reads r, one compiled for term rows reads t, and the caller
// passes nil for the other.

// evalFn is a compiled expression. ex is the executor evaluating the
// row — the query's, or a worker clone — which EXISTS plans and joins
// on. Term-row closures read it only for an aggregate, from the group
// emit passes in ex.group; every other caller of them may pass nil.
type evalFn func(ex *executor, r row, t []rdf.Term) (Value, error)

// condFn is a compiled expression read for its effective boolean
// value, as FILTER, HAVING, IF, ! and the logical operators read it.
type condFn func(ex *executor, r row, t []rdf.Term) (bool, error)

// compiler resolves variables for one row kind.
type compiler struct {
	slots *slotTable // ID rows: the executor's slot table; nil for term rows
	cols  []string   // term rows: the column names
	// aggBase >= 0 gives an aggRef a value (see aggregate): over term
	// rows of a group's key columns, which emit passes with the group's
	// finalized aggregates in ex.group, or which hold the rendered
	// aggregates from column aggBase on. -1 everywhere else.
	aggBase int
}

// compile compiles e against ex's current slot table.
func (ex *executor) compile(e Expr) evalFn {
	return compiler{slots: &ex.vars, aggBase: -1}.value(e)
}

// compileCond is compile for a filter.
func (ex *executor) compileCond(e Expr) condFn {
	return compiler{slots: &ex.vars, aggBase: -1}.cond(e)
}

// termCompiler compiles against term rows with the given columns.
func termCompiler(cols []string) compiler { return compiler{cols: cols, aggBase: -1} }

var errDivisionByZero = fmt.Errorf("%w: division by zero", errExprError)

// value compiles e for its value.
func (c compiler) value(e Expr) evalFn {
	switch x := e.(type) {
	case VarExpr:
		return c.variable(x.Name)
	case ConstExpr:
		v := constValue(x.Term)
		return func(*executor, row, []rdf.Term) (Value, error) { return v, nil }
	case UnaryExpr:
		switch x.Op {
		case "!":
			return boolOf(c.cond(e))
		case "-":
			arg := c.number(x.E)
			return func(ex *executor, r row, t []rdf.Term) (Value, error) {
				v, err := arg(ex, r, t)
				if err != nil {
					return Value{}, err
				}
				n, err := v.numeric()
				if err != nil {
					return Value{}, err
				}
				return numValue(-n), nil
			}
		}
		return failAfter(fmt.Errorf("%w: unknown unary %q", errExprError, x.Op), c.value(x.E))
	case BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return arithmetic(x.Op[0], c.number(x.L), c.number(x.R))
		case "||", "&&":
			return boolOf(c.cond(e))
		}
		if comparisons[x.Op] != nil {
			return boolOf(c.cond(e))
		}
		return failAfter(fmt.Errorf("%w: unknown operator %q", errExprError, x.Op), c.value(x.L), c.value(x.R))
	case InExpr, ExistsExpr:
		return boolOf(c.cond(e))
	case FuncExpr:
		return c.function(x)
	case aggRef:
		if c.aggBase >= 0 {
			return c.aggregate(int(x), false)
		}
	case AggExpr:
		return failAfter(fmt.Errorf("%w: aggregate outside grouping context", errExprError))
	}
	return failAfter(fmt.Errorf("%w: unknown expression %T", errExprError, e))
}

// cond compiles e for its effective boolean value. The operators that
// yield a boolean compile natively here (value wraps them); everything
// else is its value's ebv.
func (c compiler) cond(e Expr) condFn {
	switch x := e.(type) {
	case BinaryExpr:
		if x.Op == "||" || x.Op == "&&" {
			l, r := c.cond(x.L), c.cond(x.R)
			// Both sides always run: true || error is true, false && error
			// is false, and any other error is the result.
			or := x.Op == "||"
			return func(ex *executor, rw row, t []rdf.Term) (bool, error) {
				a, aerr := l(ex, rw, t)
				b, berr := r(ex, rw, t)
				if aerr == nil && a == or || berr == nil && b == or {
					return or, nil
				}
				if aerr != nil || berr != nil {
					return false, errExprError
				}
				return !or, nil
			}
		}
		if test := comparisons[x.Op]; test != nil {
			l, r := c.operand(x.L, x.R), c.operand(x.R, x.L)
			return func(ex *executor, rw row, t []rdf.Term) (bool, error) {
				a, err := l(ex, rw, t)
				if err != nil {
					return false, err
				}
				b, err := r(ex, rw, t)
				if err != nil {
					return false, err
				}
				return test(a, b)
			}
		}
	case UnaryExpr:
		if x.Op == "!" {
			arg := c.cond(x.E)
			return func(ex *executor, r row, t []rdf.Term) (bool, error) {
				b, err := arg(ex, r, t)
				return !b && err == nil, err
			}
		}
	case InExpr:
		arg, items := c.value(x.E), c.values(x.List)
		return func(ex *executor, r row, t []rdf.Term) (bool, error) {
			v, err := arg(ex, r, t)
			if err != nil {
				return false, err
			}
			for _, item := range items {
				iv, err := item(ex, r, t)
				if err != nil {
					continue
				}
				if eq, err := equalValues(v, iv); err == nil && eq {
					return !x.Not, nil
				}
			}
			return x.Not, nil
		}
	case ExistsExpr:
		if c.slots == nil {
			return ebvOf(failAfter(fmt.Errorf("%w: EXISTS outside pattern context", errExprError)))
		}
		// The group is joined seeded with the row, stopping at the first
		// solution, and planned per row: what the row binds decides the
		// plan.
		return func(ex *executor, r row, _ []rdf.Term) (bool, error) {
			segs := ex.planSeed([]row{r}, x.Patterns, x.Filters, false)
			rows, err := ex.joinSegs(segs, 1)
			return (err == nil && len(rows) > 0) != x.Not, nil
		}
	case FuncExpr:
		if x.Name == "BOUND" {
			// An aggregate stands for its group's value as a variable does:
			// BOUND(AVG(?x)) is false for a group with no numeric ?x.
			var arg evalFn
			if len(x.Args) == 1 {
				switch a := x.Args[0].(type) {
				case VarExpr:
					arg = c.variable(a.Name)
				case aggRef:
					if c.aggBase >= 0 {
						arg = c.aggregate(int(a), true)
					}
				}
			}
			if arg == nil {
				return ebvOf(failAfter(fmt.Errorf("%w: BOUND requires a variable", errExprError)))
			}
			return func(ex *executor, r row, t []rdf.Term) (bool, error) {
				v, _ := arg(ex, r, t)
				return v.Bound, nil
			}
		}
	}
	return ebvOf(c.value(e))
}

// number compiles e where only its number is read — an operand of
// arithmetic — so an aggregate's pending number is not rendered.
func (c compiler) number(e Expr) evalFn {
	if x, ok := e.(aggRef); ok && c.aggBase >= 0 {
		return c.aggregate(int(x), true)
	}
	return c.value(e)
}

// operand compiles e, one side of a comparison, as a number when the
// other side is surely a number or an error — a numeric constant or
// arithmetic — for then the comparison is numeric or fails before it
// reads a term. Against anything else (a string, a variable) it may
// compare lexical forms.
func (c compiler) operand(e, other Expr) evalFn {
	numeric := false
	switch o := other.(type) {
	case ConstExpr:
		_, numeric = o.Term.Numeric()
	case BinaryExpr:
		numeric = o.Op == "+" || o.Op == "-" || o.Op == "*" || o.Op == "/"
	case UnaryExpr:
		numeric = o.Op == "-"
	}
	if numeric {
		return c.number(e)
	}
	return c.value(e)
}

// aggregate reads aggregate i of a group. Under emit it is ex.group[i],
// whose number may be pending: read as a number (numeric) it is
// returned as it is, read as a term it is rendered first. Without a
// group (ex nil) it is the rendered value in column aggBase+i.
func (c compiler) aggregate(i int, numeric bool) evalFn {
	col := columns([]int{c.aggBase + i})
	return func(ex *executor, r row, t []rdf.Term) (Value, error) {
		if ex == nil {
			return col(ex, r, t)
		}
		if numeric {
			return ex.group[i], nil
		}
		return ex.group[i].rendered(), nil
	}
}

func (c compiler) values(es []Expr) []evalFn {
	fns := make([]evalFn, len(es))
	for i, e := range es {
		fns[i] = c.value(e)
	}
	return fns
}

// variable resolves a variable to its slot, or to the columns of that
// name (the first bound one answers); one the rows cannot bind is
// always unbound.
func (c compiler) variable(name string) evalFn {
	if c.slots == nil {
		var cols []int
		for i, v := range c.cols {
			if v == name {
				cols = append(cols, i)
			}
		}
		return columns(cols)
	}
	s, ok := c.slots.lookup(name)
	if !ok {
		return func(*executor, row, []rdf.Term) (Value, error) { return Value{}, nil }
	}
	return func(ex *executor, r row, _ []rdf.Term) (Value, error) { return ex.slotValue(r, s), nil }
}

// columns reads the first bound cell among cols of a term row.
func columns(cols []int) evalFn {
	return func(_ *executor, _ row, t []rdf.Term) (Value, error) {
		for _, col := range cols {
			if Bound(t[col]) {
				return boundValue(t[col]), nil
			}
		}
		return Value{}, nil
	}
}

// function compiles a builtin call. Arguments are evaluated in order
// and the first error is the call's, except where BOUND, COALESCE and
// IF say otherwise.
func (c compiler) function(x FuncExpr) evalFn {
	args := c.values(x.Args)
	switch x.Name {
	case "BOUND":
		return boolOf(c.cond(x))
	case "COALESCE":
		return func(ex *executor, r row, t []rdf.Term) (Value, error) {
			for _, a := range args {
				if v, err := a(ex, r, t); err == nil && v.Bound {
					return v, nil
				}
			}
			return Value{}, errExprError
		}
	case "IF":
		if len(args) == 3 {
			test := c.cond(x.Args[0])
			return func(ex *executor, r row, t []rdf.Term) (Value, error) {
				ok, err := test(ex, r, t)
				if err != nil {
					return Value{}, err
				}
				if ok {
					return args[1](ex, r, t)
				}
				return args[2](ex, r, t)
			}
		}
	case "CONCAT":
		return func(ex *executor, r row, t []rdf.Term) (Value, error) {
			var buf [4]Value
			vals := buf[:0]
			if len(args) > len(buf) {
				vals = make([]Value, 0, len(args))
			}
			vals = vals[:len(args)]
			if err := evalAll(args, ex, r, t, vals); err != nil {
				return Value{}, err
			}
			return concat(vals)
		}
	case "SUBSTR":
		if n := len(args); n < 2 || n > 3 {
			return failAfter(fmt.Errorf("%w: SUBSTR arity", errExprError), args...)
		}
		return func(ex *executor, r row, t []rdf.Term) (Value, error) {
			var vals [3]Value
			if err := evalAll(args, ex, r, t, vals[:len(args)]); err != nil {
				return Value{}, err
			}
			return substr(vals[:len(args)])
		}
	case "REGEX", "REPLACE":
		return c.regex(x, args)
	}
	if f := unaryFuncs[x.Name]; f != nil && len(args) == 1 {
		a := args[0]
		return func(ex *executor, r row, t []rdf.Term) (Value, error) {
			v, err := a(ex, r, t)
			if err != nil {
				return Value{}, err
			}
			return f(v)
		}
	}
	if f := binaryFuncs[x.Name]; f != nil && len(args) == 2 {
		a, b := args[0], args[1]
		return func(ex *executor, r row, t []rdf.Term) (Value, error) {
			av, err := a(ex, r, t)
			if err != nil {
				return Value{}, err
			}
			bv, err := b(ex, r, t)
			if err != nil {
				return Value{}, err
			}
			s, err := av.str()
			if err != nil {
				return Value{}, err
			}
			sub, err := bv.str()
			if err != nil {
				return Value{}, err
			}
			return f(s, sub), nil
		}
	}
	return failAfter(fmt.Errorf("%w: unknown function %s", errExprError, x.Name), args...)
}

// regex compiles REGEX(text, pattern [, flags]) and REPLACE(text,
// pattern, replacement). A constant pattern (with constant flags)
// compiles here, once; a bad one fails every evaluation, exactly as
// compiling it per row would.
func (c compiler) regex(x FuncExpr, args []evalFn) evalFn {
	n, replace := len(args), x.Name == "REPLACE"
	if replace && n != 3 || !replace && (n < 2 || n > 3) {
		return failAfter(fmt.Errorf("%w: %s arity", errExprError, x.Name), args...)
	}
	flagged := !replace && n == 3
	var re *regexp.Regexp
	var reErr error
	pat, constant := x.Args[1].(ConstExpr)
	var flags ConstExpr
	if constant && flagged {
		flags, constant = x.Args[2].(ConstExpr)
	}
	if constant {
		re, reErr = compileRegex(pat.Term.Value, flags.Term.Value)
	}
	return func(ex *executor, r row, t []rdf.Term) (Value, error) {
		var vals [3]Value
		if err := evalAll(args, ex, r, t, vals[:n]); err != nil {
			return Value{}, err
		}
		s, err := vals[0].str()
		if err != nil {
			return Value{}, err
		}
		rx, err := re, reErr
		if !constant {
			var p, f string
			if p, err = vals[1].str(); err != nil {
				return Value{}, err
			}
			if flagged {
				f, _ = vals[2].str()
			}
			rx, err = compileRegex(p, f)
		}
		if err != nil {
			return Value{}, err
		}
		if !replace {
			return boolValue(rx.MatchString(s)), nil
		}
		repl, err := vals[2].str()
		if err != nil {
			return Value{}, err
		}
		return boundValue(rdf.NewString(rx.ReplaceAllString(s, repl))), nil
	}
}

func arithmetic(op byte, l, r evalFn) evalFn {
	return func(ex *executor, rw row, t []rdf.Term) (Value, error) {
		a, err := l(ex, rw, t)
		if err != nil {
			return Value{}, err
		}
		b, err := r(ex, rw, t)
		if err != nil {
			return Value{}, err
		}
		an, err := a.numeric()
		if err != nil {
			return Value{}, err
		}
		bn, err := b.numeric()
		if err != nil {
			return Value{}, err
		}
		switch op {
		case '+':
			return numValue(an + bn), nil
		case '-':
			return numValue(an - bn), nil
		case '*':
			return numValue(an * bn), nil
		}
		if bn == 0 {
			return Value{}, errDivisionByZero
		}
		return numValue(an / bn), nil
	}
}

// evalAll evaluates args into dst, stopping at the first error.
func evalAll(args []evalFn, ex *executor, r row, t []rdf.Term, dst []Value) error {
	for i, a := range args {
		v, err := a(ex, r, t)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// failAfter compiles an expression that fails with err once its
// arguments, evaluated in order, have not failed first.
func failAfter(err error, args ...evalFn) evalFn {
	return func(ex *executor, r row, t []rdf.Term) (Value, error) {
		for _, a := range args {
			if _, aerr := a(ex, r, t); aerr != nil {
				return Value{}, aerr
			}
		}
		return Value{}, err
	}
}

func boolOf(f condFn) evalFn {
	return func(ex *executor, r row, t []rdf.Term) (Value, error) {
		b, err := f(ex, r, t)
		if err != nil {
			return Value{}, err
		}
		return boolValue(b), nil
	}
}

func ebvOf(f evalFn) condFn {
	return func(ex *executor, r row, t []rdf.Term) (bool, error) {
		v, err := f(ex, r, t)
		if err != nil {
			return false, err
		}
		return v.ebv()
	}
}
