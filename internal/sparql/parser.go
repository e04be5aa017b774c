package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"re2xolap/internal/rdf"
)

// Parse parses a SPARQL SELECT or ASK query.
func Parse(src string) (*Query, error) {
	// One array holds the tokens of every probe ReOLAP sends.
	toks, err := lex(src, make([]token, 0, 64))
	if err != nil {
		return nil, err
	}
	p := parser{src: src, toks: toks}
	return p.parseQuery()
}

type parser struct {
	src  string
	toks []token
	i    int
	// prefixes is the prologue, nil when it declares none.
	prefixes map[string]string
	pathN    int
	aggN     int
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) advance()   { p.i++ }
func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{int(p.cur().pos), fmt.Sprintf(format, args...)}
}

// raw is t's source text.
func (p *parser) raw(t token) string { return p.src[t.pos:t.end] }

// text is what t stands for: an IRI without its brackets, a variable's
// name, a string's unescaped body, or the source text of any other
// token.
func (p *parser) text(t token) string {
	switch t.kind {
	case tokIRI:
		return p.src[t.pos+1 : t.end-1]
	case tokVar:
		return p.src[t.pos+1 : t.end]
	case tokString:
		return stringBody(p.src, t)
	}
	return p.raw(t)
}

// curText is the current token's text.
func (p *parser) curText() string { return p.text(p.cur()) }

// keyword reports whether the current token is the given bare keyword
// (case-insensitive).
func (p *parser) keyword(kw string) bool {
	t := p.cur()
	return t.kind == tokKeyword && strings.EqualFold(p.raw(t), kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.keyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) punct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && p.raw(t) == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.punct(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, got %q", s, p.curText())
	}
	return nil
}

// prefixesCopy snapshots the prologue for nested queries.
func (p *parser) prefixesCopy() map[string]string {
	if p.prefixes == nil {
		return nil
	}
	out := make(map[string]string, len(p.prefixes))
	for k, v := range p.prefixes {
		out[k] = v
	}
	return out
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{Limit: -1}
	// prologue
	for p.acceptKeyword("PREFIX") {
		t := p.cur()
		if t.kind != tokPName {
			return nil, p.errf("expected prefixed name after PREFIX")
		}
		name := strings.TrimSuffix(p.raw(t), ":")
		p.advance()
		if p.cur().kind != tokIRI {
			return nil, p.errf("expected IRI in PREFIX")
		}
		if p.prefixes == nil {
			p.prefixes = map[string]string{}
		}
		p.prefixes[name] = p.curText()
		p.advance()
	}
	q.Prefixes = p.prefixes
	switch {
	case p.acceptKeyword("SELECT"):
		if err := p.parseSelectClause(q); err != nil {
			return nil, err
		}
	case p.acceptKeyword("ASK"):
		q.Ask = true
	case p.acceptKeyword("CONSTRUCT"):
		tmpl, err := p.parseConstructTemplate()
		if err != nil {
			return nil, err
		}
		q.Construct = tmpl
	default:
		return nil, p.errf("expected SELECT, ASK, or CONSTRUCT, got %q", p.curText())
	}
	p.acceptKeyword("WHERE")
	where, err := p.parseGroupGraphPattern()
	if err != nil {
		return nil, err
	}
	q.Where = where
	if err := p.parseSolutionModifiers(q); err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input %q", p.curText())
	}
	return q, nil
}

func (p *parser) parseSelectClause(q *Query) error {
	if p.acceptKeyword("DISTINCT") {
		q.Distinct = true
	} else {
		p.acceptKeyword("REDUCED")
	}
	if p.acceptPunct("*") {
		q.Star = true
		return nil
	}
	q.Select = make([]SelectItem, 0, 4) // a probe's columns
	for {
		t := p.cur()
		switch {
		case t.kind == tokVar:
			q.Select = append(q.Select, SelectItem{Var: p.text(t)})
			p.advance()
		case p.punct("("):
			p.advance()
			expr, err := p.clauseExpr(p.parseExpr, true)
			if err != nil {
				return err
			}
			if !p.acceptKeyword("AS") {
				return p.errf("expected AS in projection expression")
			}
			if p.cur().kind != tokVar {
				return p.errf("expected variable after AS")
			}
			q.Select = append(q.Select, SelectItem{Var: p.curText(), Expr: expr})
			p.advance()
			if err := p.expectPunct(")"); err != nil {
				return err
			}
		case t.kind == tokKeyword && isAggregateName(p.raw(t)):
			// bare aggregate without AS: auto-name the column.
			expr, err := p.clauseExpr(p.parsePrimary, true)
			if err != nil {
				return err
			}
			agg, ok := expr.(AggExpr)
			if !ok {
				return p.errf("expected aggregate call")
			}
			name := autoAggName(agg, p.aggN)
			p.aggN++
			q.Select = append(q.Select, SelectItem{Var: name, Expr: agg})
		default:
			if len(q.Select) == 0 {
				return p.errf("empty SELECT clause")
			}
			return nil
		}
	}
}

func isAggregateName(s string) bool {
	switch strings.ToUpper(s) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT":
		return true
	}
	return false
}

// autoAggName names a bare aggregate projection, e.g. SUM(?obsValue)
// becomes "sum_obsValue".
func autoAggName(a AggExpr, n int) string {
	base := strings.ToLower(a.Fn)
	if v, ok := a.Arg.(VarExpr); ok {
		return base + "_" + v.Name
	}
	return fmt.Sprintf("%s_%d", base, n)
}

func (p *parser) parseSolutionModifiers(q *Query) error {
	for {
		switch {
		case p.acceptKeyword("GROUP"):
			if !p.acceptKeyword("BY") {
				return p.errf("expected BY after GROUP")
			}
			for p.cur().kind == tokVar {
				q.GroupBy = append(q.GroupBy, p.curText())
				p.advance()
			}
			if len(q.GroupBy) == 0 {
				return p.errf("empty GROUP BY")
			}
		case p.acceptKeyword("HAVING"):
			for p.punct("(") {
				e, err := p.clauseExpr(p.parseConstraint, true)
				if err != nil {
					return err
				}
				q.Having = append(q.Having, e)
			}
			if len(q.Having) == 0 {
				return p.errf("empty HAVING")
			}
		case p.acceptKeyword("ORDER"):
			if !p.acceptKeyword("BY") {
				return p.errf("expected BY after ORDER")
			}
			// OrderCondition: ASC or DESC of a bracketed expression, a
			// variable, or a constraint (a bracketed expression or a call).
			for {
				desc := p.keyword("DESC")
				if desc || p.keyword("ASC") {
					p.advance()
					if !p.punct("(") {
						return p.expectPunct("(")
					}
				} else if p.cur().kind != tokVar && !p.punct("(") && !p.atCall() {
					break
				}
				e, err := p.clauseExpr(p.parseConstraint, true)
				if err != nil {
					return err
				}
				q.OrderBy = append(q.OrderBy, OrderKey{Expr: e, Desc: desc})
			}
			if len(q.OrderBy) == 0 {
				return p.errf("empty ORDER BY")
			}
		case p.acceptKeyword("LIMIT"):
			if p.cur().kind != tokNumber {
				return p.errf("expected number after LIMIT")
			}
			q.Limit = leadingInt(p.curText())
			p.advance()
		case p.acceptKeyword("OFFSET"):
			if p.cur().kind != tokNumber {
				return p.errf("expected number after OFFSET")
			}
			q.Offset = leadingInt(p.curText())
			p.advance()
		default:
			return nil
		}
	}
}

// leadingInt reads a LIMIT or OFFSET the way fmt.Sscanf(s, "%d", &n)
// does: the optionally signed digits s starts with, 0 when there are
// none or they overflow an int.
func leadingInt(s string) int {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	n, err := strconv.Atoi(s[:i])
	if err != nil {
		return 0
	}
	return n
}

func (p *parser) parseGroupGraphPattern() ([]PatternElement, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	// Most groups fit; a three-level witness regrows once.
	elems := make([]PatternElement, 0, 8)
	for {
		switch {
		case p.acceptPunct("}"):
			return elems, nil
		case p.cur().kind == tokEOF:
			return nil, p.errf("unterminated group pattern")
		case p.acceptKeyword("FILTER"):
			e, err := p.clauseExpr(p.parseConstraint, false)
			if err != nil {
				return nil, err
			}
			elems = append(elems, FilterElement{Expr: e})
			p.acceptPunct(".")
		case p.acceptKeyword("BIND"):
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			e, err := p.clauseExpr(p.parseExpr, false)
			if err != nil {
				return nil, err
			}
			if !p.acceptKeyword("AS") {
				return nil, p.errf("expected AS in BIND")
			}
			if p.cur().kind != tokVar {
				return nil, p.errf("expected variable after AS")
			}
			be := BindElement{Expr: e, Var: p.curText()}
			p.advance()
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			elems = append(elems, be)
			p.acceptPunct(".")
		case p.acceptKeyword("VALUES"):
			v, err := p.parseValues()
			if err != nil {
				return nil, err
			}
			elems = append(elems, v)
			p.acceptPunct(".")
		case p.acceptKeyword("OPTIONAL"):
			inner, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			opt := OptionalElement{}
			for _, el := range inner {
				switch x := el.(type) {
				case TriplePattern:
					opt.Patterns = append(opt.Patterns, x)
				case FilterElement:
					opt.Filters = append(opt.Filters, x.Expr)
				default:
					return nil, p.errf("unsupported element inside OPTIONAL")
				}
			}
			elems = append(elems, opt)
			p.acceptPunct(".")
		case p.punct("{"):
			// Lookahead: a nested SELECT is a subquery, not a UNION
			// branch.
			if next := p.toks[p.i+1]; next.kind == tokKeyword && strings.EqualFold(p.raw(next), "SELECT") {
				p.advance() // '{'
				sub := &Query{Limit: -1, Prefixes: p.prefixesCopy()}
				if !p.acceptKeyword("SELECT") {
					return nil, p.errf("expected SELECT")
				}
				if err := p.parseSelectClause(sub); err != nil {
					return nil, err
				}
				p.acceptKeyword("WHERE")
				where, err := p.parseGroupGraphPattern()
				if err != nil {
					return nil, err
				}
				sub.Where = where
				if err := p.parseSolutionModifiers(sub); err != nil {
					return nil, err
				}
				if err := p.expectPunct("}"); err != nil {
					return nil, err
				}
				elems = append(elems, SubSelectElement{Query: sub})
				p.acceptPunct(".")
				continue
			}
			branch, err := p.parseGroupGraphPattern()
			if err != nil {
				return nil, err
			}
			u := UnionElement{Branches: [][]PatternElement{branch}}
			for p.acceptKeyword("UNION") {
				branch, err = p.parseGroupGraphPattern()
				if err != nil {
					return nil, err
				}
				u.Branches = append(u.Branches, branch)
			}
			if len(u.Branches) == 1 {
				// A plain nested group: splice its elements in.
				elems = append(elems, u.Branches[0]...)
			} else {
				for _, br := range u.Branches {
					for _, el := range br {
						switch el.(type) {
						case TriplePattern, FilterElement:
						default:
							return nil, p.errf("unsupported element inside UNION branch")
						}
					}
				}
				elems = append(elems, u)
			}
			p.acceptPunct(".")
		case p.keyword("GRAPH") || p.keyword("MINUS") || p.keyword("SERVICE"):
			return nil, p.errf("unsupported SPARQL feature %q", p.curText())
		default:
			var err error
			if elems, err = p.parseTriplesSameSubject(elems); err != nil {
				return nil, err
			}
			p.acceptPunct(".")
		}
	}
}

// parseConstructTemplate parses the CONSTRUCT { ... } template: plain
// triple patterns only (no paths, filters, or nested groups).
func (p *parser) parseConstructTemplate() ([]TriplePattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	tmpl := []TriplePattern{}
	for !p.acceptPunct("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errf("unterminated CONSTRUCT template")
		}
		pats, err := p.parseTriplesSameSubject(nil)
		if err != nil {
			return nil, err
		}
		for _, el := range pats {
			tp, ok := el.(TriplePattern)
			if !ok {
				return nil, p.errf("property paths not allowed in CONSTRUCT templates")
			}
			// Sequence paths expand into chains over internal variables,
			// which can never be bound in a template.
			for _, n := range []Node{tp.S, tp.P, tp.O} {
				if n.IsVar && strings.HasPrefix(n.Var, internalVarPrefix) {
					return nil, p.errf("property paths not allowed in CONSTRUCT templates")
				}
			}
			tmpl = append(tmpl, tp)
		}
		p.acceptPunct(".")
	}
	return tmpl, nil
}

// clauseExpr parses the expression of a FILTER, BIND, SELECT, HAVING
// or ORDER BY clause with parse and holds it to SPARQL 1.1's aggregate
// rule (§19.8): aggregates appear only where grouping is set (SELECT,
// HAVING, ORDER BY), and never inside another aggregate. An EXISTS
// block's FILTERs are FILTER clauses of their own.
func (p *parser) clauseExpr(parse func() (Expr, error), grouping bool) (Expr, error) {
	pos := int(p.cur().pos)
	e, err := parse()
	if err != nil {
		return nil, err
	}
	msg := ""
	WalkExpr(e, func(x Expr) bool {
		a, ok := x.(AggExpr)
		switch {
		case !ok:
			return msg == ""
		case !grouping:
			msg = "aggregate outside SELECT, HAVING and ORDER BY"
		case a.Arg != nil && contains[AggExpr](a.Arg):
			msg = "aggregate inside an aggregate"
		}
		return false
	})
	if msg != "" {
		return nil, &SyntaxError{pos, msg}
	}
	return e, nil
}

// atCall reports whether the current token starts a built-in call: a
// function, an aggregate, or [NOT] EXISTS.
func (p *parser) atCall() bool {
	t := p.cur()
	_, fn := builtinFuncs[strings.ToUpper(p.raw(t))]
	return t.kind == tokKeyword && (fn || isAggregateName(p.raw(t)) || p.keyword("EXISTS") || p.keyword("NOT"))
}

// parseConstraint parses either a bracketed expression or a bare
// call, as allowed after FILTER and HAVING and in ORDER BY.
func (p *parser) parseConstraint() (Expr, error) {
	if p.punct("(") {
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")
	}
	return p.parsePrimary()
}

func (p *parser) parseValues() (ValuesElement, error) {
	v := ValuesElement{}
	multi := p.acceptPunct("(")
	for p.cur().kind == tokVar {
		v.Vars = append(v.Vars, p.curText())
		p.advance()
	}
	if multi {
		if err := p.expectPunct(")"); err != nil {
			return v, err
		}
	}
	if len(v.Vars) == 0 {
		return v, p.errf("VALUES with no variables")
	}
	if err := p.expectPunct("{"); err != nil {
		return v, err
	}
	// The block's cells and rows are counted up to the closing '}'.
	cells, rows := 0, 0
	for _, t := range p.toks[p.i:] {
		if t.kind == tokEOF || t.kind == tokPunct && p.raw(t) == "}" {
			break
		}
		switch {
		case t.kind == tokPunct && p.raw(t) == "(":
			rows++
		case t.kind != tokPunct || p.raw(t) != ")":
			cells++
		}
	}
	if !multi {
		rows = cells
	}
	terms, ptrs := make([]rdf.Term, 0, cells), make([]*rdf.Term, 0, cells)
	v.Rows = make([][]*rdf.Term, 0, rows)
	// cell parses a concrete term, or UNDEF.
	cell := func() error {
		if p.acceptKeyword("UNDEF") {
			ptrs = append(ptrs, nil)
			return nil
		}
		term, err := p.parseTermToken()
		if err != nil {
			return err
		}
		terms = append(terms, term)
		ptrs = append(ptrs, &terms[len(terms)-1])
		return nil
	}
	for !p.acceptPunct("}") {
		if p.cur().kind == tokEOF {
			return v, p.errf("unterminated VALUES block")
		}
		start := len(ptrs)
		if multi {
			if err := p.expectPunct("("); err != nil {
				return v, err
			}
			for !p.acceptPunct(")") {
				if err := cell(); err != nil {
					return v, err
				}
			}
		} else if err := cell(); err != nil {
			return v, err
		}
		if n := len(ptrs) - start; n != len(v.Vars) {
			return v, p.errf("VALUES row has %d terms, want %d", n, len(v.Vars))
		}
		v.Rows = append(v.Rows, ptrs[start:len(ptrs):len(ptrs)])
	}
	return v, nil
}

// parseTermToken parses one concrete RDF term.
func (p *parser) parseTermToken() (rdf.Term, error) {
	t := p.cur()
	switch t.kind {
	case tokIRI:
		p.advance()
		return rdf.NewIRI(p.text(t)), nil
	case tokPName:
		p.advance()
		return p.expandPName(t)
	case tokString:
		p.advance()
		switch lang, dtype := stringSuffix(p.src, t); {
		case lang != "":
			return rdf.NewLangString(p.text(t), lang), nil
		case dtype != "":
			return rdf.NewTyped(p.text(t), dtype), nil
		default:
			return rdf.NewString(p.text(t)), nil
		}
	case tokNumber:
		p.advance()
		if strings.ContainsAny(p.raw(t), ".eE") {
			return rdf.NewTyped(p.raw(t), rdf.XSDDouble), nil
		}
		return rdf.NewTyped(p.raw(t), rdf.XSDInteger), nil
	case tokKeyword:
		switch {
		case strings.EqualFold(p.raw(t), "true"):
			p.advance()
			return rdf.NewBoolean(true), nil
		case strings.EqualFold(p.raw(t), "false"):
			p.advance()
			return rdf.NewBoolean(false), nil
		}
	}
	return rdf.Term{}, p.errf("expected RDF term, got %q", p.text(t))
}

func (p *parser) expandPName(t token) (rdf.Term, error) {
	name := p.raw(t)
	colon := strings.IndexByte(name, ':')
	prefix, local := name[:colon], name[colon+1:]
	base, ok := p.prefixes[prefix]
	if !ok {
		return rdf.Term{}, &SyntaxError{int(t.pos), fmt.Sprintf("unknown prefix %q", prefix)}
	}
	return rdf.NewIRI(base + local), nil
}

// parseNode parses a subject/object position: variable, term, or blank
// node.
func (p *parser) parseNode() (Node, error) {
	t := p.cur()
	if t.kind == tokVar {
		p.advance()
		return NewVarNode(p.text(t)), nil
	}
	if t.kind == tokKeyword && strings.HasPrefix(p.raw(t), "_") {
		// unlikely; blank nodes arrive as keyword '_' + pname — not
		// supported in queries we accept.
		return Node{}, p.errf("blank nodes not supported in query patterns")
	}
	term, err := p.parseTermToken()
	if err != nil {
		return Node{}, err
	}
	return NewTermNode(term), nil
}

// pathStep is one step of a sequence property path.
type pathStep struct {
	pred    Node
	inverse bool
	// closure is 0 (none), '+' (one or more), or '*' (zero or more).
	closure byte
}

// parsePath appends a property path to steps: step ('/' step)*, where
// each step is an optionally inverted IRI, 'a', or a variable
// (single-step only).
func (p *parser) parsePath(steps []pathStep) ([]pathStep, error) {
	for {
		var st pathStep
		if p.acceptPunct("^") {
			st.inverse = true
		}
		t := p.cur()
		switch {
		case t.kind == tokVar:
			p.advance()
			st.pred = NewVarNode(p.text(t))
		case t.kind == tokKeyword && p.raw(t) == "a":
			p.advance()
			st.pred = NewTermNode(rdf.NewIRI(rdf.RDFType))
		case t.kind == tokIRI:
			p.advance()
			st.pred = NewTermNode(rdf.NewIRI(p.text(t)))
		case t.kind == tokPName:
			p.advance()
			term, err := p.expandPName(t)
			if err != nil {
				return nil, err
			}
			st.pred = NewTermNode(term)
		default:
			return nil, p.errf("expected predicate, got %q", p.text(t))
		}
		if p.punct("+") || p.punct("*") {
			if st.pred.IsVar {
				return nil, p.errf("closure over a variable predicate")
			}
			st.closure = p.src[p.cur().pos]
			p.advance()
		}
		steps = append(steps, st)
		if !p.acceptPunct("/") {
			return steps, nil
		}
	}
}

// parseTriplesSameSubject appends the patterns of one subject with its
// predicate-object lists to out, expanding property paths into
// fresh-variable chains.
func (p *parser) parseTriplesSameSubject(out []PatternElement) ([]PatternElement, error) {
	subj, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	var buf [4]pathStep
	for {
		steps, err := p.parsePath(buf[:0])
		if err != nil {
			return nil, err
		}
		if len(steps) > 1 {
			for _, st := range steps {
				if st.pred.IsVar {
					return nil, p.errf("variable predicates not allowed in sequence paths")
				}
			}
		}
		for {
			obj, err := p.parseNode()
			if err != nil {
				return nil, err
			}
			out = p.expandPath(out, subj, steps, obj)
			if !p.acceptPunct(",") {
				break
			}
		}
		if !p.acceptPunct(";") {
			return out, nil
		}
		// allow trailing ';' before '.' or '}'
		if p.punct(".") || p.punct("}") {
			return out, nil
		}
	}
}

// pathVars are the first internal path variables' names.
var pathVars = func() (names [16]string) {
	for i := range names {
		names[i] = internalVarPrefix + strconv.Itoa(i)
	}
	return names
}()

// pathVar names the parser's next internal path variable.
func (p *parser) pathVar() string {
	n := p.pathN
	p.pathN++
	if n < len(pathVars) {
		return pathVars[n]
	}
	return internalVarPrefix + strconv.Itoa(n)
}

// expandPath appends subj —steps→ obj to out as a chain of simple
// triple (or closure) patterns over fresh internal variables.
func (p *parser) expandPath(out []PatternElement, subj Node, steps []pathStep, obj Node) []PatternElement {
	cur := subj
	for i, st := range steps {
		var next Node
		if i == len(steps)-1 {
			next = obj
		} else {
			next = NewVarNode(p.pathVar())
		}
		s, o := cur, next
		if st.inverse {
			s, o = o, s
		}
		if st.closure != 0 {
			out = append(out, ClosurePattern{S: s, O: o, Pred: st.pred.Term, MinZero: st.closure == '*'})
		} else {
			out = append(out, TriplePattern{S: s, P: st.pred, O: o})
		}
		cur = next
	}
	return out
}

// ---- expressions ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("&&") {
		r, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseRelational() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"<=", ">=", "!=", "=", "<", ">"} {
		if p.punct(op) {
			p.advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	not := false
	if p.keyword("NOT") {
		// lookahead for IN
		save := p.i
		p.advance()
		if !p.keyword("IN") {
			p.i = save
			return l, nil
		}
		not = true
	}
	if p.acceptKeyword("IN") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var list []Expr
		for !p.acceptPunct(")") {
			if len(list) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
		}
		return InExpr{E: l, List: list, Not: not}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = BinaryExpr{Op: "+", L: l, R: r}
		case p.acceptPunct("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = BinaryExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptPunct("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = BinaryExpr{Op: "*", L: l, R: r}
		case p.acceptPunct("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = BinaryExpr{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch {
	case p.acceptPunct("!"):
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return UnaryExpr{Op: "!", E: e}, nil
	case p.acceptPunct("-"):
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return UnaryExpr{Op: "-", E: e}, nil
	case p.acceptPunct("+"):
		return p.parseUnary()
	}
	return p.parsePrimary()
}

// builtinFuncs is the set of supported non-aggregate builtins.
var builtinFuncs = map[string]int{ // name → arity (-1 = variadic)
	"STR": 1, "LCASE": 1, "UCASE": 1, "STRLEN": 1,
	"CONTAINS": 2, "STRSTARTS": 2, "STRENDS": 2,
	"REGEX": -1, "BOUND": 1, "ABS": 1, "ROUND": 1, "FLOOR": 1, "CEIL": 1,
	"CONCAT": -1, "STRBEFORE": 2, "STRAFTER": 2, "REPLACE": -1, "SUBSTR": -1,
	"ISIRI": 1, "ISURI": 1, "ISLITERAL": 1, "ISNUMERIC": 1, "ISBLANK": 1,
	"LANG": 1, "DATATYPE": 1, "COALESCE": -1, "IF": 3,
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case p.punct("("):
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")
	case t.kind == tokVar:
		p.advance()
		return VarExpr{Name: p.text(t)}, nil
	case t.kind == tokKeyword && isAggregateName(p.raw(t)):
		return p.parseAggregate()
	case t.kind == tokKeyword && (strings.EqualFold(p.raw(t), "EXISTS") || strings.EqualFold(p.raw(t), "NOT")):
		not := false
		if p.acceptKeyword("NOT") {
			not = true
		}
		if !p.acceptKeyword("EXISTS") {
			return nil, p.errf("expected EXISTS")
		}
		group, err := p.parseGroupGraphPattern()
		if err != nil {
			return nil, err
		}
		ee := ExistsExpr{Not: not}
		for _, el := range group {
			switch x := el.(type) {
			case TriplePattern:
				ee.Patterns = append(ee.Patterns, x)
			case FilterElement:
				ee.Filters = append(ee.Filters, x.Expr)
			default:
				return nil, p.errf("unsupported element inside EXISTS")
			}
		}
		return ee, nil
	case t.kind == tokKeyword:
		upper := strings.ToUpper(p.raw(t))
		if arity, ok := builtinFuncs[upper]; ok {
			p.advance()
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			var args []Expr
			for !p.acceptPunct(")") {
				if len(args) > 0 {
					if err := p.expectPunct(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			if arity >= 0 && len(args) != arity {
				return nil, p.errf("%s expects %d arguments, got %d", upper, arity, len(args))
			}
			return FuncExpr{Name: upper, Args: args}, nil
		}
		// true/false or a bare prefixed name fall through to term.
		term, err := p.parseTermToken()
		if err != nil {
			return nil, err
		}
		return ConstExpr{Term: term}, nil
	default:
		term, err := p.parseTermToken()
		if err != nil {
			return nil, err
		}
		return ConstExpr{Term: term}, nil
	}
}

func (p *parser) parseAggregate() (Expr, error) {
	fn := strings.ToUpper(p.raw(p.cur()))
	p.advance()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	agg := AggExpr{Fn: fn}
	if p.acceptKeyword("DISTINCT") {
		agg.Distinct = true
	}
	if p.acceptPunct("*") {
		if fn != "COUNT" {
			return nil, p.errf("* argument only valid for COUNT")
		}
	} else {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		agg.Arg = arg
	}
	if p.acceptPunct(";") {
		if !p.acceptKeyword("SEPARATOR") {
			return nil, p.errf("expected SEPARATOR")
		}
		if !p.acceptPunct("=") {
			return nil, p.errf("expected '=' after SEPARATOR")
		}
		if p.cur().kind != tokString {
			return nil, p.errf("expected string separator")
		}
		agg.Sep = p.curText()
		p.advance()
	}
	return agg, p.expectPunct(")")
}
