package sparql

import (
	"fmt"
	"strings"

	"re2xolap/internal/rdf"
)

// Expr is a SPARQL expression node.
type Expr interface {
	fmt.Stringer
	expr()
}

// VarExpr references a variable.
type VarExpr struct{ Name string }

// ConstExpr is a constant RDF term.
type ConstExpr struct{ Term rdf.Term }

// BinaryExpr applies a binary operator. Op is one of
// "||", "&&", "=", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/".
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies "!" or "-".
type UnaryExpr struct {
	Op string
	E  Expr
}

// InExpr tests membership: E [NOT] IN (list...).
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

// FuncExpr is a builtin function call (STR, LCASE, CONTAINS, REGEX, ...).
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
}

// ExistsExpr is FILTER [NOT] EXISTS { patterns }: it holds when the
// inner group has at least one solution under the current bindings.
type ExistsExpr struct {
	Patterns []TriplePattern
	Filters  []Expr
	Not      bool
}

// AggExpr is an aggregate function application.
type AggExpr struct {
	Fn       string // COUNT, SUM, AVG, MIN, MAX, SAMPLE, GROUP_CONCAT
	Distinct bool
	// Arg is nil for COUNT(*).
	Arg Expr
	// Sep is the GROUP_CONCAT separator (default " ").
	Sep string
}

func (VarExpr) expr()    {}
func (ExistsExpr) expr() {}
func (ConstExpr) expr()  {}
func (BinaryExpr) expr() {}
func (UnaryExpr) expr()  {}
func (InExpr) expr()     {}
func (FuncExpr) expr()   {}
func (AggExpr) expr()    {}

func (e VarExpr) String() string   { return "?" + e.Name }
func (e ConstExpr) String() string { return e.Term.String() }

func (e BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

func (e UnaryExpr) String() string { return e.Op + e.E.String() }

func (e InExpr) String() string {
	var parts []string
	for _, x := range e.List {
		parts = append(parts, x.String())
	}
	not := ""
	if e.Not {
		not = "NOT "
	}
	return fmt.Sprintf("%s %sIN (%s)", e.E, not, strings.Join(parts, ", "))
}

func (e FuncExpr) String() string {
	var parts []string
	for _, a := range e.Args {
		parts = append(parts, a.String())
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(parts, ", "))
}

func (e ExistsExpr) String() string {
	var b strings.Builder
	if e.Not {
		b.WriteString("NOT ")
	}
	b.WriteString("EXISTS {")
	for _, tp := range e.Patterns {
		b.WriteByte(' ')
		b.WriteString(tp.String())
	}
	for _, f := range e.Filters {
		fmt.Fprintf(&b, " FILTER (%s)", f)
	}
	b.WriteString(" }")
	return b.String()
}

func (e AggExpr) String() string {
	var b strings.Builder
	b.WriteString(e.Fn)
	b.WriteByte('(')
	if e.Distinct {
		b.WriteString("DISTINCT ")
	}
	if e.Arg == nil {
		b.WriteByte('*')
	} else {
		b.WriteString(e.Arg.String())
	}
	if e.Fn == "GROUP_CONCAT" && e.Sep != "" {
		fmt.Fprintf(&b, "; SEPARATOR=%q", e.Sep)
	}
	b.WriteByte(')')
	return b.String()
}

// contains reports whether a node of type T — an AggExpr, an
// ExistsExpr — occurs in e.
func contains[T Expr](e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		_, ok := x.(T)
		found = found || ok
		return !found
	})
	return found
}

// exprVars appends the names of the variables e references to dst and
// returns it; aggs says whether to look inside aggregate arguments
// (which an aggregate query evaluates per group member). An EXISTS
// block contributes every variable of its patterns: purely
// existential ones are never bound by the outer query, so scheduling
// defers the filter to the end of the join — after all shared
// variables are bound, which keeps the correlation correct.
func exprVars(e Expr, dst []string, aggs bool) []string {
	WalkExpr(e, func(x Expr) bool {
		if v, ok := x.(VarExpr); ok {
			dst = append(dst, v.Name)
		} else if ex, ok := x.(ExistsExpr); ok {
			dst = appendPatternVars(dst, ex.Patterns)
		}
		_, agg := x.(AggExpr)
		return aggs || !agg
	})
	return dst
}

// appendPatternVars appends the variables of tps, position by position, to
// dst and returns it.
func appendPatternVars(dst []string, tps []TriplePattern) []string {
	for _, tp := range tps {
		for _, n := range [3]Node{tp.S, tp.P, tp.O} {
			if n.IsVar {
				dst = append(dst, n.Var)
			}
		}
	}
	return dst
}
