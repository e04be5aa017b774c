package sparql

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"re2xolap/internal/datagen"
	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// This file cross-checks the executor against a brute-force reference
// evaluator on randomly generated graphs and BGP queries: same
// solutions, same aggregates, independent of join order, index
// selection, budget, or worker count.

// refBinding is a variable assignment in the reference evaluator.
type refBinding map[string]rdf.Term

// refGraph is the raw triple list in store order. What Match delivers
// for a pattern is the matching sublist of: the compacted triples in
// the key order of the permutation the pattern's bound positions
// select (subject+predicate or nothing bound: SPO; predicate: POS;
// object: OSP; compared by dictionary ID), then the pending triples as
// inserted (fewer than the store's tail holds, so it never sorted them).
type refGraph struct {
	sorted [3][]rdf.Triple
	tail   []rdf.Triple
	// work bounds the triples one evaluation may visit; running out
	// sets overflow and the caller drops the trial.
	work     int
	overflow bool
}

// newRefGraph orders compacted by the IDs dict gave its terms.
func newRefGraph(dict *store.Dict, compacted, tail []rdf.Triple) *refGraph {
	g := &refGraph{tail: tail, work: 1 << 40}
	id := func(t rdf.Term) store.ID { v, _ := dict.Lookup(t); return v }
	keys := [3]func(rdf.Triple) [3]store.ID{
		func(t rdf.Triple) [3]store.ID { return [3]store.ID{id(t.S), id(t.P), id(t.O)} },
		func(t rdf.Triple) [3]store.ID { return [3]store.ID{id(t.P), id(t.O), id(t.S)} },
		func(t rdf.Triple) [3]store.ID { return [3]store.ID{id(t.O), id(t.S), id(t.P)} },
	}
	for i, key := range keys {
		g.sorted[i] = slices.Clone(compacted)
		slices.SortFunc(g.sorted[i], func(a, b rdf.Triple) int {
			ka, kb := key(a), key(b)
			return slices.Compare(ka[:], kb[:])
		})
	}
	return g
}

// scan returns the whole triple list in the order the store visits it
// for a pattern with these positions bound.
func (g *refGraph) scan(s, p, o bool) [2][]rdf.Triple {
	perm := 0
	switch {
	case s && p:
	case p:
		perm = 1
	case o:
		perm = 2
	}
	return [2][]rdf.Triple{g.sorted[perm], g.tail}
}

// The reference expression evaluator: a direct walk of the AST that
// resolves every variable by name, per evaluation, through a binding.
// The executor compiles expressions instead (compile.go); this walk is
// the oracle the compiled closures are checked against.

// binding provides variable values during reference evaluation.
type binding interface {
	value(name string) Value
}

// existsEvaluator is implemented by bindings that can evaluate EXISTS
// sub-patterns.
type existsEvaluator interface {
	exists(e ExistsExpr) bool
}

// refGroup is a group under HAVING: its variables and its finalized
// aggregates, which the aggRefs of a resolved HAVING read.
type refGroup struct {
	binding
	vals []Value
}

// evalExpr evaluates e under b. An aggregate has a value only as an
// aggRef under a refGroup; anywhere else it is an error.
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
		if g, ok := b.(refGroup); ok {
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
		switch a := x.Args[0].(type) {
		case VarExpr:
			return boolValue(b.value(a.Name).Bound), nil
		case aggRef:
			// An aggregate in HAVING or the projection stands for its
			// group's value as a variable does.
			v, err := evalExpr(a, b)
			if err != nil {
				return Value{}, err
			}
			return boolValue(v.Bound), nil
		}
		return Value{}, fmt.Errorf("%w: BOUND requires a variable", errExprError)
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

// refEnv evaluates filters over a reference solution.
type refEnv struct {
	g *refGraph
	b refBinding
}

func (e refEnv) value(name string) Value {
	if t, ok := e.b[name]; ok {
		return boundValue(t)
	}
	return Value{}
}

func (e refEnv) exists(x ExistsExpr) bool {
	return len(refBGP(e.g, []refBinding{e.b}, x.Patterns, nil, x.Filters)) > 0
}

// refMatch extends b so that tp matches tr, if it can.
func refMatch(tp TriplePattern, tr rdf.Triple, b refBinding) (refBinding, bool) {
	nb := b
	for _, pair := range [3]struct {
		n Node
		t rdf.Term
	}{{tp.S, tr.S}, {tp.P, tr.P}, {tp.O, tr.O}} {
		want := pair.n.Term
		if pair.n.IsVar {
			cur, ok := nb[pair.n.Var]
			if !ok {
				ext := refBinding{pair.n.Var: pair.t}
				for k, v := range nb {
					ext[k] = v
				}
				nb = ext
				continue
			}
			want = cur
		}
		if want != pair.t {
			return nil, false
		}
	}
	return nb, true
}

// refBGP is the naive evaluation of a basic graph pattern: for every
// seed solution in turn, nested loops over the raw triple list in
// store order, one loop per pattern, with the filters applied to
// complete solutions only. Patterns nest in the order given, or — the
// engine may order them differently for seeds binding different
// variables — in the order the order function names for the seed.
func refBGP(g *refGraph, seed []refBinding, patterns []TriplePattern, order func(refBinding) []TriplePattern, filters []Expr) []refBinding {
	var out []refBinding
	for _, b0 := range seed {
		ps := patterns
		if order != nil {
			ps = order(b0)
		}
		var rec func(b refBinding, i int)
		rec = func(b refBinding, i int) {
			if i == len(ps) {
				for _, f := range filters {
					if keep, err := evalBool(f, refEnv{g, b}); err != nil || !keep {
						return
					}
				}
				out = append(out, b)
				return
			}
			isBound := func(n Node) bool {
				_, ok := b[n.Var]
				return ok || !n.IsVar
			}
			for _, list := range g.scan(isBound(ps[i].S), isBound(ps[i].P), isBound(ps[i].O)) {
				if g.work -= len(list); g.work < 0 {
					g.overflow = true
					return
				}
				for _, tr := range list {
					if nb, ok := refMatch(ps[i], tr, b); ok {
						rec(nb, i+1)
					}
				}
			}
		}
		rec(b0, 0)
	}
	return out
}

// refSolve enumerates all solutions of the patterns over the triples,
// nesting in syntactic order.
func refSolve(triples []rdf.Triple, patterns []TriplePattern) []refBinding {
	return refBGP(&refGraph{tail: triples, work: 1 << 40}, []refBinding{{}}, patterns, nil, nil)
}

// canonical renders a solution multiset deterministically.
func canonical(vars []string, sols []refBinding) []string {
	out := make([]string, len(sols))
	for i, s := range sols {
		var b strings.Builder
		for _, v := range vars {
			if t, ok := s[v]; ok {
				b.WriteString(t.String())
			}
			b.WriteByte('\x00')
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

// randomGraph builds a small random graph mixing IRIs and numeric
// literals.
func randomGraph(rng *rand.Rand, n int) []rdf.Triple {
	var ts []rdf.Triple
	seen := map[rdf.Triple]bool{}
	for len(ts) < n {
		var obj rdf.Term
		if rng.Intn(3) == 0 {
			obj = rdf.NewInteger(int64(rng.Intn(20)))
		} else {
			obj = rdf.NewIRI(fmt.Sprintf("http://r/n%d", rng.Intn(8)))
		}
		tr := rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://r/n%d", rng.Intn(8))),
			rdf.NewIRI(fmt.Sprintf("http://r/p%d", rng.Intn(4))),
			obj,
		)
		if !seen[tr] {
			seen[tr] = true
			ts = append(ts, tr)
		}
	}
	return ts
}

// randomPatterns builds 1–3 patterns over a shared variable pool so
// joins actually connect.
func randomPatterns(rng *rand.Rand) []TriplePattern {
	vars := []string{"a", "b", "c", "d"}
	node := func(allowLiteral bool) Node {
		switch rng.Intn(3) {
		case 0:
			return NewVarNode(vars[rng.Intn(len(vars))])
		case 1:
			return NewTermNode(rdf.NewIRI(fmt.Sprintf("http://r/n%d", rng.Intn(8))))
		default:
			if allowLiteral && rng.Intn(2) == 0 {
				return NewTermNode(rdf.NewInteger(int64(rng.Intn(20))))
			}
			return NewVarNode(vars[rng.Intn(len(vars))])
		}
	}
	n := 1 + rng.Intn(3)
	ps := make([]TriplePattern, n)
	for i := range ps {
		pred := NewTermNode(rdf.NewIRI(fmt.Sprintf("http://r/p%d", rng.Intn(4))))
		if rng.Intn(4) == 0 {
			pred = NewVarNode(vars[rng.Intn(len(vars))])
		}
		ps[i] = TriplePattern{S: node(false), P: pred, O: node(true)}
	}
	return ps
}

func patternVars(ps []TriplePattern) []string {
	seen := map[string]bool{}
	var out []string
	for _, tp := range ps {
		for _, n := range []Node{tp.S, tp.P, tp.O} {
			if n.IsVar && !seen[n.Var] {
				seen[n.Var] = true
				out = append(out, n.Var)
			}
		}
	}
	sort.Strings(out)
	return out
}

func buildQuerySrc(ps []TriplePattern, vars []string, limit int) string {
	var b strings.Builder
	b.WriteString("SELECT")
	for _, v := range vars {
		b.WriteString(" ?" + v)
	}
	b.WriteString(" WHERE {\n")
	for _, tp := range ps {
		b.WriteString("  " + tp.String() + "\n")
	}
	b.WriteString("}")
	if limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", limit)
	}
	return b.String()
}

func TestExecutorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		triples := randomGraph(rng, 5+rng.Intn(40))
		ps := randomPatterns(rng)
		vars := patternVars(ps)
		if len(vars) == 0 {
			continue
		}
		st := store.New()
		if err := st.AddAll(triples); err != nil {
			t.Fatal(err)
		}
		src := buildQuerySrc(ps, vars, -1)
		res, err := NewEngine(st).QueryString(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		ref := refSolve(triples, ps)

		gotSols := make([]refBinding, len(res.Rows))
		for i, row := range res.Rows {
			b := refBinding{}
			for j, v := range res.Vars {
				if Bound(row[j]) {
					b[v] = row[j]
				}
			}
			gotSols[i] = b
		}
		got := canonical(vars, gotSols)
		want := canonical(vars, ref)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d solutions, reference %d\n%s", trial, len(got), len(want), src)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: solution %d differs\n got %q\nwant %q\n%s", trial, i, got[i], want[i], src)
			}
		}
	}
}

func TestExecutorLimitMatchesReferenceCount(t *testing.T) {
	// The DFS short-circuit path must return exactly min(limit, total)
	// solutions.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		triples := randomGraph(rng, 5+rng.Intn(40))
		ps := randomPatterns(rng)
		vars := patternVars(ps)
		if len(vars) == 0 {
			continue
		}
		st := store.New()
		if err := st.AddAll(triples); err != nil {
			t.Fatal(err)
		}
		total := len(refSolve(triples, ps))
		limit := rng.Intn(5)
		src := buildQuerySrc(ps, vars, limit)
		res, err := NewEngine(st).QueryString(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		want := total
		if limit < want {
			want = limit
		}
		if res.Len() != want {
			t.Fatalf("trial %d: rows = %d, want %d (total %d, limit %d)\n%s",
				trial, res.Len(), want, total, limit, src)
		}
	}
}

func TestExecutorAggregatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		triples := randomGraph(rng, 10+rng.Intn(40))
		st := store.New()
		if err := st.AddAll(triples); err != nil {
			t.Fatal(err)
		}
		pred := fmt.Sprintf("http://r/p%d", rng.Intn(4))
		ps := []TriplePattern{{
			S: NewVarNode("s"),
			P: NewTermNode(rdf.NewIRI(pred)),
			O: NewVarNode("v"),
		}}
		src := fmt.Sprintf(`SELECT ?s (SUM(?v) AS ?sum) (COUNT(?v) AS ?n) WHERE { ?s <%s> ?v . } GROUP BY ?s`, pred)
		res, err := NewEngine(st).QueryString(src)
		if err != nil {
			t.Fatal(err)
		}
		// Reference aggregation.
		sums := map[rdf.Term]float64{}
		counts := map[rdf.Term]int{}
		groups := map[rdf.Term]bool{}
		for _, b := range refSolve(triples, ps) {
			s := b["s"]
			groups[s] = true
			counts[s]++ // COUNT counts bound values, numeric or not
			if n, ok := b["v"].Numeric(); ok {
				sums[s] += n
			}
		}
		if res.Len() != len(groups) {
			t.Fatalf("trial %d: groups = %d, want %d", trial, res.Len(), len(groups))
		}
		si, sumi, ni := res.Column("s"), res.Column("sum"), res.Column("n")
		for _, row := range res.Rows {
			s := row[si]
			gotSum, _ := row[sumi].Numeric()
			gotN, _ := row[ni].Numeric()
			if gotSum != sums[s] {
				t.Fatalf("trial %d: SUM(%v) = %v, want %v", trial, s, gotSum, sums[s])
			}
			if int(gotN) != counts[s] {
				t.Fatalf("trial %d: COUNT(%v) = %v, want %d", trial, s, gotN, counts[s])
			}
		}
	}
}

// refSolveOptional computes the left join of base solutions with an
// optional pattern group, per SPARQL OPTIONAL semantics.
func refSolveOptional(triples []rdf.Triple, base []refBinding, optional []TriplePattern) []refBinding {
	return refLeftJoin(&refGraph{tail: triples, work: 1 << 40}, base, optional, nil)
}

// refLeftJoin extends every base solution by the solutions of the
// group seeded with it that pass the group's filters, or keeps it as
// it is when there are none.
func refLeftJoin(g *refGraph, base []refBinding, patterns []TriplePattern, filters []Expr) []refBinding {
	var out []refBinding
	for _, b := range base {
		if ext := refBGP(g, []refBinding{b}, patterns, nil, filters); len(ext) > 0 {
			out = append(out, ext...)
		} else {
			out = append(out, b)
		}
	}
	return out
}

func TestExecutorOptionalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 150; trial++ {
		triples := randomGraph(rng, 5+rng.Intn(30))
		base := randomPatterns(rng)[:1]
		opt := randomPatterns(rng)[:1]
		vars := patternVars(append(append([]TriplePattern(nil), base...), opt...))
		if len(vars) == 0 {
			continue
		}
		st := store.New()
		if err := st.AddAll(triples); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString("SELECT")
		for _, v := range vars {
			b.WriteString(" ?" + v)
		}
		b.WriteString(" WHERE {\n  " + base[0].String() + "\n  OPTIONAL { " + opt[0].String() + " }\n}")
		src := b.String()
		res, err := NewEngine(st).QueryString(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		ref := refSolveOptional(triples, refSolve(triples, base), opt)

		gotSols := make([]refBinding, len(res.Rows))
		for i, row := range res.Rows {
			rb := refBinding{}
			for j, v := range res.Vars {
				if Bound(row[j]) {
					rb[v] = row[j]
				}
			}
			gotSols[i] = rb
		}
		got := canonical(vars, gotSols)
		want := canonical(vars, ref)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d solutions, reference %d\n%s", trial, len(got), len(want), src)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: solution %d differs\n got %q\nwant %q\n%s", trial, i, got[i], want[i], src)
			}
		}
	}
}

func TestExecutorUnionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 150; trial++ {
		triples := randomGraph(rng, 5+rng.Intn(30))
		left := randomPatterns(rng)[:1]
		right := randomPatterns(rng)[:1]
		vars := patternVars(append(append([]TriplePattern(nil), left...), right...))
		if len(vars) == 0 {
			continue
		}
		st := store.New()
		if err := st.AddAll(triples); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString("SELECT")
		for _, v := range vars {
			b.WriteString(" ?" + v)
		}
		b.WriteString(" WHERE {\n  { " + left[0].String() + " } UNION { " + right[0].String() + " }\n}")
		src := b.String()
		res, err := NewEngine(st).QueryString(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		ref := append(refSolve(triples, left), refSolve(triples, right)...)

		gotSols := make([]refBinding, len(res.Rows))
		for i, row := range res.Rows {
			rb := refBinding{}
			for j, v := range res.Vars {
				if Bound(row[j]) {
					rb[v] = row[j]
				}
			}
			gotSols[i] = rb
		}
		got := canonical(vars, gotSols)
		want := canonical(vars, ref)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d solutions, reference %d\n%s", trial, len(got), len(want), src)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: solution %d differs\n got %q\nwant %q\n%s", trial, i, got[i], want[i], src)
			}
		}
	}
}

// refAggregate is the brute-force evaluation of one aggregate over one
// group's solutions: collect the argument's bound values (or one
// synthetic value per solution for *), drop duplicate terms under
// DISTINCT, and reduce with a plain loop — no partial state, nothing
// merged. It reports "" when got is an answer the language allows, or
// what is wrong with it. MIN/MAX must be exact: of the candidates no
// other value is more extreme than under orderLess, the one whose
// canonical key (CanonicalRowKey of the term alone) is least. Where the
// engine's row order decides (SAMPLE, GROUP_CONCAT order, float
// summation order) any order's answer is accepted here; the chunked
// runs are then held byte-equal to the one-chunk run.
func refAggregate(a AggExpr, sols []refBinding, vars []string, got rdf.Term) string {
	var vals []rdf.Term
	if a.Arg == nil {
		for _, key := range canonical(vars, sols) {
			vals = append(vals, rdf.NewString(key))
		}
	} else {
		for _, s := range sols {
			if t, ok := s[a.Arg.(VarExpr).Name]; ok {
				vals = append(vals, t)
			}
		}
	}
	if a.Distinct {
		seen := map[rdf.Term]bool{}
		uniq := vals[:0:0]
		for _, t := range vals {
			if !seen[t] {
				seen[t] = true
				uniq = append(uniq, t)
			}
		}
		vals = uniq
	}
	wantNum := func(want float64) string {
		f, ok := got.Numeric()
		if !ok || math.Abs(f-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Sprintf("got %v, want %v", got, want)
		}
		return ""
	}
	sum, n := 0.0, 0
	for _, t := range vals {
		if f, ok := t.Numeric(); ok {
			sum += f
			n++
		}
	}
	switch a.Fn {
	case "COUNT":
		return wantNum(float64(len(vals)))
	case "SUM":
		return wantNum(sum)
	case "AVG":
		if n > 0 {
			return wantNum(sum / float64(n))
		}
	case "MIN", "MAX":
		beats := func(t, u rdf.Term) bool { // t is more extreme than u
			if a.Fn == "MAX" {
				t, u = u, t
			}
			return orderLess(boundValue(t), boundValue(u))
		}
		var want []rdf.Term
		for _, t := range vals {
			if !slices.ContainsFunc(vals, func(u rdf.Term) bool { return beats(u, t) }) {
				want = append(want, t)
			}
		}
		if len(want) > 0 {
			key := func(t rdf.Term) string { return CanonicalRowKey([]rdf.Term{t}) }
			best := slices.MinFunc(want, func(t, u rdf.Term) int { return strings.Compare(key(t), key(u)) })
			if got != best {
				return fmt.Sprintf("got %v, want %v of the candidates %v", got, best, want)
			}
			return ""
		}
	case "SAMPLE":
		if len(vals) > 0 {
			if !slices.Contains(vals, got) {
				return fmt.Sprintf("got %v, not a member of %v", got, vals)
			}
			return ""
		}
	case "GROUP_CONCAT":
		want := make([]string, len(vals))
		for i, t := range vals {
			want[i] = t.Value
		}
		var parts []string
		if got.Value != "" {
			parts = strings.Split(got.Value, a.Sep)
		}
		sort.Strings(want)
		sort.Strings(parts)
		if !Bound(got) || !slices.Equal(parts, want) {
			return fmt.Sprintf("got parts %q, want %q", parts, want)
		}
		return ""
	}
	// AVG without a numeric value, MIN/MAX/SAMPLE without a value.
	if Bound(got) {
		return fmt.Sprintf("got %v, want unbound", got)
	}
	return ""
}

// aggPool is the value pool of the aggregate property tests: plain
// strings and an IRI (non-numeric members of otherwise numeric groups),
// integers, and fractions. Every number is a multiple of 1/4, so sums
// are exact in any association, unless tenths is set. ties adds
// doubles and decimals numerically equal to the integers: distinct
// terms that tie under orderLess, which MIN/MAX break canonically.
func aggPool(ties, tenths bool) []rdf.Term {
	pool := []rdf.Term{rdf.NewString("n/a"), rdf.NewString("x"), rdf.NewIRI("http://r/thing")}
	for i := 0; i < 6; i++ {
		pool = append(pool, rdf.NewInteger(int64(i)), rdf.NewDouble(float64(i)+0.25))
		if ties {
			pool = append(pool, rdf.NewDouble(float64(i)), rdf.NewTyped(fmt.Sprintf("%d.0", i), rdf.XSDDecimal))
		}
		if tenths {
			pool = append(pool, rdf.NewDouble(float64(i)*0.1+0.1))
		}
	}
	return pool
}

// aggGraph builds a random graph for the aggregate property tests:
// subjects in one or two of four groups, each with zero to three
// values drawn from pool.
func aggGraph(rng *rand.Rand, subjects int, pool []rdf.Term) []rdf.Triple {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://r/" + s) }
	seen := map[rdf.Triple]bool{}
	var ts []rdf.Triple
	add := func(tr rdf.Triple) {
		if !seen[tr] {
			seen[tr] = true
			ts = append(ts, tr)
		}
	}
	for i := 0; i < subjects; i++ {
		s := iri(fmt.Sprintf("s%d", i))
		for k := 1 + rng.Intn(2); k > 0; k-- {
			add(rdf.NewTriple(s, iri("group"), iri(fmt.Sprintf("g%d", rng.Intn(4)))))
		}
		for k := rng.Intn(4); k > 0; k-- {
			add(rdf.NewTriple(s, iri("val"), pool[rng.Intn(len(pool))]))
		}
	}
	return ts
}

// TestAggregateFoldMatchesReference property-tests the one aggregate
// fold: all seven functions, plain and DISTINCT, grouped and global,
// over rows with unbound arguments and mixed numeric / non-numeric
// groups, against the brute-force reference at one chunk, and
// byte-equal to the one-chunk answer at 2, 3 and 7 chunks.
func TestAggregateFoldMatchesReference(t *testing.T) {
	var sel strings.Builder
	var aggs []AggExpr
	for _, fn := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT"} {
		for _, distinct := range []bool{false, true} {
			aggs = append(aggs, AggExpr{Fn: fn, Distinct: distinct, Arg: VarExpr{Name: "v"}})
		}
	}
	aggs = append(aggs, AggExpr{Fn: "COUNT"}, AggExpr{Fn: "COUNT", Distinct: true})
	for i := range aggs {
		if aggs[i].Fn == "GROUP_CONCAT" {
			aggs[i].Sep = "|"
		}
		fmt.Fprintf(&sel, " (%s AS ?a%d)", aggs[i], i)
	}
	where := func(groupPred string) ([]TriplePattern, []TriplePattern) {
		return []TriplePattern{{S: NewVarNode("s"), P: NewTermNode(rdf.NewIRI("http://r/" + groupPred)), O: NewVarNode("g")}},
			[]TriplePattern{{S: NewVarNode("s"), P: NewTermNode(rdf.NewIRI("http://r/val")), O: NewVarNode("v")}}
	}
	vars := []string{"g", "s", "v"}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		tenths := trial%3 == 2
		triples := aggGraph(rng, 4+rng.Intn(40), aggPool(true, tenths))
		st := store.New()
		if err := st.AddAll(triples); err != nil {
			t.Fatal(err)
		}
		// "nogroup" matches nothing: zero rows with and without GROUP BY.
		for _, groupPred := range []string{"group", "nogroup"} {
			base, opt := where(groupPred)
			sols := refSolveOptional(triples, refSolve(triples, base), opt)
			for _, grouped := range []bool{true, false} {
				src := fmt.Sprintf("SELECT%s WHERE { %s OPTIONAL { %s } }", sel.String(), base[0], opt[0])
				groups := map[rdf.Term][]refBinding{{}: sols}
				if grouped {
					src = fmt.Sprintf("SELECT ?g%s WHERE { %s OPTIONAL { %s } } GROUP BY ?g", sel.String(), base[0], opt[0])
					groups = map[rdf.Term][]refBinding{}
					for _, s := range sols {
						groups[s["g"]] = append(groups[s["g"]], s)
					}
				}
				eng := NewEngine(st)
				eng.Exec.Workers = 1
				one, err := eng.QueryString(src)
				if err != nil {
					t.Fatalf("trial %d: %v\n%s", trial, err, src)
				}
				if len(one.Rows) != len(groups) {
					t.Fatalf("trial %d: %d groups, reference %d\n%s", trial, len(one.Rows), len(groups), src)
				}
				for _, r := range one.Rows {
					var g rdf.Term
					if grouped {
						g = r[one.Column("g")]
					}
					for i, a := range aggs {
						if msg := refAggregate(a, groups[g], vars, r[one.Column(fmt.Sprintf("a%d", i))]); msg != "" {
							t.Fatalf("trial %d group %v: %s: %s\n%s", trial, g, a, msg, src)
						}
					}
				}
				for _, chunks := range []int{2, 3, 7} {
					eng.Exec = ExecOptions{Workers: chunks, ParallelThreshold: 1}
					got, err := eng.QueryString(src)
					if err != nil {
						t.Fatalf("trial %d, %d chunks: %v\n%s", trial, chunks, err, src)
					}
					gs, ws := got.String(), one.String()
					if tenths {
						// Tenths do not add exactly: plain SUM/AVG may differ in the last
						// bits across chunkings (the documented caveat), the DISTINCT
						// forms may not.
						gs, ws = dropColumns(got, "a2", "a4"), dropColumns(one, "a2", "a4")
					}
					if gs != ws {
						t.Fatalf("trial %d: %d chunks differ from one chunk\n%s\n--- one chunk ---\n%s\n--- %d chunks ---\n%s",
							trial, chunks, src, ws, chunks, gs)
					}
				}
			}
		}
	}
}

// dropColumns renders res without the named columns.
func dropColumns(res *Results, names ...string) string {
	var b strings.Builder
	for _, r := range res.Rows {
		for i, t := range r {
			if !slices.Contains(names, res.Vars[i]) {
				b.WriteString(t.String() + "\t")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// bgpCube is the data the generated BGPs run over: a small datagen
// cube plus a few triples no cube has (self-loops, a predicate that is
// also a subject), so that repeated-variable patterns and variable
// predicates find something.
func bgpCube() []rdf.Triple {
	spec := datagen.Spec{
		Name: "tiny", NS: "http://c/",
		Dimensions: []datagen.DimSpec{
			{Pred: "origin", Label: "Origin", Members: 5,
				Children: []datagen.LevelSpec{{Pred: "inRegion", Label: "In Region", Members: 2}}},
			{Pred: "kind", Label: "Kind", Members: 3},
		},
		Measures:     []datagen.MeasureSpec{{Pred: "amount", Label: "Amount", Scale: 50}},
		Observations: 24, Seed: 7, MissingRate: 0.1,
	}
	var ts []rdf.Triple
	spec.Generate(func(t rdf.Triple) { ts = append(ts, t) })
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://c/" + s) }
	return append(ts,
		rdf.NewTriple(iri("loop"), iri("next"), iri("loop")),
		rdf.NewTriple(iri("loop"), iri("next"), iri("kind")),
		rdf.NewTriple(iri("kind"), iri("next"), iri("kind")),
		rdf.NewTriple(iri("next"), iri("next"), iri("next")),
	)
}

// bgpGen draws random BGP queries over a triple list: 2–5 patterns,
// each a triple of the data — usually one that shares a term with an
// earlier pick, else any, which starts a cartesian component — with
// some positions turned into variables. A term mostly gets the same
// variable wherever it occurs, so the picked triples are a solution;
// now and then it gets a random one (joins that may fail, ?x ?p ?x) or
// the constant is one the data does not hold. 0–2 filters and an
// optional VALUES seed with UNDEF cells ride along.
type bgpGen struct {
	rng     *rand.Rand
	triples []rdf.Triple
	picked  []rdf.Triple
	varOf   map[rdf.Term]string
}

var bgpVars = []string{"a", "b", "c", "d", "e"}

func (g *bgpGen) v() string { return "?" + bgpVars[g.rng.Intn(len(bgpVars))] }

// pick draws the next pattern's triple.
func (g *bgpGen) pick() rdf.Triple {
	tr := g.triples[g.rng.Intn(len(g.triples))]
	if len(g.picked) > 0 && g.rng.Intn(10) < 7 {
		prev := g.picked[g.rng.Intn(len(g.picked))]
		var linked []rdf.Triple
		for _, c := range g.triples {
			if c != prev && (c.S == prev.S || c.S == prev.O || c.O == prev.S || c.O == prev.O) {
				linked = append(linked, c)
			}
		}
		if len(linked) > 0 {
			tr = linked[g.rng.Intn(len(linked))]
		}
	}
	g.picked = append(g.picked, tr)
	return tr
}

func (g *bgpGen) pattern() string {
	tr := g.pick()
	pos := [3]string{}
	for i, term := range []rdf.Term{tr.S, tr.P, tr.O} {
		pos[i] = term.String()
		switch n := g.rng.Intn(100); {
		case n < []int{60, 20, 55}[i]:
			if _, ok := g.varOf[term]; !ok && len(g.varOf) < len(bgpVars) {
				g.varOf[term] = "?" + bgpVars[len(g.varOf)]
			}
			if pos[i] = g.varOf[term]; pos[i] == "" || g.rng.Intn(12) == 0 {
				pos[i] = g.v()
			}
		case n >= 98:
			pos[i] = "<http://c/absent>"
		}
	}
	return strings.Join(pos[:], " ") + " ."
}

func (g *bgpGen) filter() string {
	tr := g.picked[g.rng.Intn(len(g.picked))]
	switch g.rng.Intn(10) {
	case 0:
		return fmt.Sprintf("FILTER(%s = %s)", g.v(), tr.O)
	case 1:
		return fmt.Sprintf("FILTER(%s != %s)", g.v(), g.v())
	case 2:
		return fmt.Sprintf("FILTER(BOUND(%s))", g.v())
	case 3:
		return fmt.Sprintf("FILTER(!BOUND(%s))", g.v())
	case 4:
		return fmt.Sprintf("FILTER(%s > 20)", g.v())
	case 5:
		return fmt.Sprintf("FILTER(%s = %s || !BOUND(%s))", g.v(), g.v(), g.v())
	case 6:
		return fmt.Sprintf("FILTER(ISIRI(%s))", g.v())
	case 7:
		return fmt.Sprintf("FILTER EXISTS { %s %s ?z }", g.v(), tr.P)
	case 8:
		return fmt.Sprintf("FILTER NOT EXISTS { %s %s ?z . FILTER(?z != %s) }", g.v(), tr.P, tr.O)
	default:
		return fmt.Sprintf("FILTER(STR(%s) < %q)", g.v(), tr.S.Value)
	}
}

// values draws a VALUES block: per cell the term its variable stands
// for in the picked triples, any other term, or UNDEF.
func (g *bgpGen) values() string {
	vars := g.rng.Perm(len(bgpVars))[:1+g.rng.Intn(2)]
	var b strings.Builder
	b.WriteString("VALUES (")
	for _, i := range vars {
		b.WriteString(" ?" + bgpVars[i])
	}
	b.WriteString(" ) {")
	for r := 1 + g.rng.Intn(4); r > 0; r-- {
		b.WriteString(" (")
		for _, i := range vars {
			cell := "UNDEF"
			switch n := g.rng.Intn(4); {
			case n == 0:
				cell = g.triples[g.rng.Intn(len(g.triples))].S.String()
			case n < 3:
				for term, name := range g.varOf {
					if name == "?"+bgpVars[i] {
						cell = term.String()
					}
				}
			}
			b.WriteString(" " + cell)
		}
		b.WriteString(" )")
	}
	b.WriteString(" }")
	return b.String()
}

// where draws the body of one query.
func (g *bgpGen) where() string {
	g.picked, g.varOf = nil, map[rdf.Term]string{}
	var parts []string
	for n := 2 + g.rng.Intn(4); n > 0; n-- {
		parts = append(parts, g.pattern())
	}
	if g.rng.Intn(5) < 2 {
		parts = append([]string{g.values()}, parts...)
	}
	for n := g.rng.Intn(6) - 3; n > 0; n-- {
		parts = append(parts, g.filter())
	}
	return strings.Join(parts, "\n  ")
}

// refValues turns VALUES blocks into the seed solutions they join to:
// the rows of the first, each extended by the compatible rows of the
// next.
func refValues(blocks []ValuesElement) []refBinding {
	seed := []refBinding{{}}
	for _, v := range blocks {
		seed = refJoinSeed(seed, v)
	}
	return seed
}

// ModifiersReference answers q over triples reading the solution
// modifiers as SPARQL 1.1 §18.2.5 writes them, one step after another
// over whole solutions: after grouping, when q groups, each group is a
// solution of its keys and its aggregates; then Extend by the SELECT
// aliases in order, OrderBy (a stable sort), Project, Distinct (the
// first of each CanonicalRowKey), Slice. WHERE is triple patterns,
// FILTERs and subselects, each subselect answered the same way first
// and its rows seeding the join; aggregates are COUNT, SUM, AVG, MIN and
// MAX over a variable or *. It shares with the engine only the value
// semantics: the expression walk, orderCompare and the aggRef rewrite.
// It is exported for TestModifiersMatchReference, which also drives the
// shard coordinator and so lives in the external test package.
func ModifiersReference(q *Query, triples []rdf.Triple) (vars []string, rows [][]rdf.Term) {
	return refModifierAnswer(q, &refGraph{tail: triples, work: 1 << 40})
}

func refModifierAnswer(q *Query, g *refGraph) ([]string, [][]rdf.Term) {
	seed := []refBinding{{}}
	var patterns []TriplePattern
	var filters []Expr
	for _, el := range q.Where {
		switch x := el.(type) {
		case TriplePattern:
			patterns = append(patterns, x)
		case FilterElement:
			filters = append(filters, x.Expr)
		case SubSelectElement:
			vars, rows := refModifierAnswer(x.Query, g)
			block := ValuesElement{Vars: vars}
			for _, r := range rows {
				line := make([]*rdf.Term, len(r))
				for i := range r {
					if Bound(r[i]) {
						line[i] = &r[i]
					}
				}
				block.Rows = append(block.Rows, line)
			}
			seed = refJoinSeed(seed, block)
		}
	}
	sols := refBGP(g, seed, patterns, nil, filters)

	// A solution is its bindings and, after grouping, its group's
	// aggregates.
	type solution struct {
		b    refBinding
		aggs []Value
	}
	env := func(s solution) binding {
		if s.aggs != nil {
			return refGroup{mapBinding(s.b), s.aggs}
		}
		return mapBinding(s.b)
	}
	var omega []solution
	aggs, idx := collectAggs(q)
	if q.IsAggregate() {
		var order []string
		members := map[string][]refBinding{}
		for _, s := range sols {
			key := make([]rdf.Term, len(q.GroupBy))
			for i, v := range q.GroupBy {
				key[i] = s[v]
			}
			k := CanonicalRowKey(key)
			if _, ok := members[k]; !ok {
				order = append(order, k)
			}
			members[k] = append(members[k], s)
		}
		if len(order) == 0 && len(q.GroupBy) == 0 {
			order = []string{""}
		}
		for _, k := range order {
			b := refBinding{}
			if ms := members[k]; len(ms) > 0 {
				for _, v := range q.GroupBy {
					if t, ok := ms[0][v]; ok {
						b[v] = t
					}
				}
			}
			vals := make([]Value, len(aggs))
			for i, a := range aggs {
				vals[i] = refGroupAggregate(a, members[k])
			}
			omega = append(omega, solution{b, vals})
		}
	} else {
		for _, s := range sols {
			omega = append(omega, solution{b: s})
		}
	}
	// Extend: each alias binds its expression's value, if it has one.
	for i := range omega {
		b := refBinding{}
		for k, t := range omega[i].b {
			b[k] = t
		}
		omega[i].b = b
		for _, it := range q.Select {
			if it.Expr == nil {
				continue
			}
			if v, err := evalExpr(resolveAggregates(it.Expr, idx), env(omega[i])); err == nil && v.Bound {
				b[it.Var] = v.Term
			}
		}
	}
	// OrderBy: a key that errors is unbound.
	key := func(s solution, o OrderKey) Value {
		v, err := evalExpr(resolveAggregates(o.Expr, idx), env(s))
		if err != nil {
			return Value{}
		}
		return v
	}
	slices.SortStableFunc(omega, func(x, y solution) int {
		for _, o := range q.OrderBy {
			if c := orderCompare(key(x, o), key(y, o)); c != 0 {
				if o.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	// Project, Distinct, Slice.
	vars := make([]string, len(q.Select))
	for i, it := range q.Select {
		vars[i] = it.Var
	}
	seen := map[string]bool{}
	var rows [][]rdf.Term
	for _, s := range omega {
		line := make([]rdf.Term, len(vars))
		for i, v := range vars {
			line[i] = s.b[v]
		}
		if q.Distinct {
			if seen[CanonicalRowKey(line)] {
				continue
			}
			seen[CanonicalRowKey(line)] = true
		}
		rows = append(rows, line)
	}
	rows = rows[min(max(q.Offset, 0), len(rows)):]
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return vars, rows
}

// refJoinSeed joins seed solutions with the rows of one inline block,
// where a nil cell leaves the variable as the solution has it.
func refJoinSeed(seed []refBinding, block ValuesElement) []refBinding {
	var next []refBinding
	for _, b := range seed {
	rows:
		for _, r := range block.Rows {
			nb := refBinding{}
			for k, t := range b {
				nb[k] = t
			}
			for i, t := range r {
				if t == nil {
					continue
				}
				if cur, ok := nb[block.Vars[i]]; ok && cur != *t {
					continue rows
				}
				nb[block.Vars[i]] = *t
			}
			next = append(next, nb)
		}
	}
	return next
}
