package sparql

import "slices"

// The one traversal of the query AST: every analysis that needs each
// sub-expression or each triple pattern of a query is a client of
// these two walkers, so a new expression or element type has one walk
// to update.

// WalkExpr calls fn on e and then, pre-order, on every expression
// nested in it: the operands of unary and binary operators, the tested
// expression and the list of IN, the arguments of functions and
// aggregates, and the FILTER expressions of a [NOT] EXISTS block. When
// fn returns false the walk skips that node's children.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if !fn(e) {
		return
	}
	switch x := e.(type) {
	case BinaryExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case UnaryExpr:
		WalkExpr(x.E, fn)
	case InExpr:
		WalkExpr(x.E, fn)
		for _, y := range x.List {
			WalkExpr(y, fn)
		}
	case FuncExpr:
		for _, y := range x.Args {
			WalkExpr(y, fn)
		}
	case AggExpr:
		if x.Arg != nil {
			WalkExpr(x.Arg, fn)
		}
	case ExistsExpr:
		for _, f := range x.Filters {
			WalkExpr(f, fn)
		}
	}
}

// mapExpr returns e with every node f replaces replaced, trying f on a
// node before its children; a replacement is not visited. The walk
// enters what an expression evaluates over the current row — operands,
// IN lists, function arguments — and leaves an aggregate's argument
// and an EXISTS block as they are.
func mapExpr(e Expr, f func(Expr) (Expr, bool)) Expr {
	if y, ok := f(e); ok {
		return y
	}
	switch x := e.(type) {
	case BinaryExpr:
		return BinaryExpr{Op: x.Op, L: mapExpr(x.L, f), R: mapExpr(x.R, f)}
	case UnaryExpr:
		return UnaryExpr{Op: x.Op, E: mapExpr(x.E, f)}
	case InExpr:
		list := make([]Expr, len(x.List))
		for i, y := range x.List {
			list[i] = mapExpr(y, f)
		}
		return InExpr{E: mapExpr(x.E, f), List: list, Not: x.Not}
	case FuncExpr:
		args := make([]Expr, len(x.Args))
		for i, y := range x.Args {
			args[i] = mapExpr(y, f)
		}
		return FuncExpr{Name: x.Name, Args: args}
	}
	return e
}

// WalkPatterns calls fn on every triple pattern, closure pattern and
// subselect reachable from q, in textual order: the elements of
// q.Where, of its OPTIONAL blocks and UNION branches, and of the
// [NOT] EXISTS blocks in its FILTER, BIND, HAVING, SELECT and ORDER BY
// expressions; a subselect is reported and then walked the same way.
// top reports whether el is an element of q.Where itself.
//
// It returns true when q.Where holds a triple pattern or a UNION and
// every branch of its UNIONs holds a triple pattern: then every
// solution of q.Where matches one. Otherwise q.Where may produce rows
// that depend on no data at all (VALUES, BIND, a pattern-free branch).
func WalkPatterns(q *Query, fn func(el PatternElement, top bool)) bool {
	sources, bare := false, false
	exists := func(e Expr) {
		WalkExpr(e, func(x Expr) bool {
			if ex, ok := x.(ExistsExpr); ok {
				for _, tp := range ex.Patterns {
					fn(tp, false)
				}
			}
			return true
		})
	}
	isTriple := func(e PatternElement) bool { _, ok := e.(TriplePattern); return ok }
	var query func(*Query)
	var elems func([]PatternElement, bool)
	elems = func(es []PatternElement, top bool) {
		for _, e := range es {
			switch el := e.(type) {
			case TriplePattern:
				sources = sources || top
				fn(el, top)
			case ClosurePattern:
				fn(el, top)
			case SubSelectElement:
				fn(el, top)
				query(el.Query)
			case OptionalElement:
				for _, tp := range el.Patterns {
					fn(tp, false)
				}
				for _, f := range el.Filters {
					exists(f)
				}
			case UnionElement:
				sources = sources || top
				for _, br := range el.Branches {
					bare = bare || top && !slices.ContainsFunc(br, isTriple)
					elems(br, false)
				}
			case FilterElement:
				exists(el.Expr)
			case BindElement:
				exists(el.Expr)
			}
		}
	}
	query = func(sub *Query) {
		elems(sub.Where, sub == q)
		for _, h := range sub.Having {
			exists(h)
		}
		for _, it := range sub.Select {
			if it.Expr != nil {
				exists(it.Expr)
			}
		}
		for _, o := range sub.OrderBy {
			exists(o.Expr)
		}
	}
	query(q)
	return sources && !bare
}
