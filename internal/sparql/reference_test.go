package sparql

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// This file cross-checks the executor against a brute-force reference
// evaluator on randomly generated graphs and BGP queries: same
// solutions, same aggregates, independent of join order, index
// selection, or the DFS short-circuit path.

// refBinding is a variable assignment in the reference evaluator.
type refBinding map[string]rdf.Term

// refSolve enumerates all solutions of the patterns over the triples
// by naive backtracking in syntactic order.
func refSolve(triples []rdf.Triple, patterns []TriplePattern) []refBinding {
	var out []refBinding
	var rec func(b refBinding, i int)
	match := func(n Node, t rdf.Term, b refBinding) (refBinding, bool) {
		if !n.IsVar {
			if n.Term == t {
				return b, true
			}
			return nil, false
		}
		if cur, ok := b[n.Var]; ok {
			if cur == t {
				return b, true
			}
			return nil, false
		}
		nb := refBinding{}
		for k, v := range b {
			nb[k] = v
		}
		nb[n.Var] = t
		return nb, true
	}
	rec = func(b refBinding, i int) {
		if i == len(patterns) {
			out = append(out, b)
			return
		}
		tp := patterns[i]
		for _, tr := range triples {
			b1, ok := match(tp.S, tr.S, b)
			if !ok {
				continue
			}
			b2, ok := match(tp.P, tr.P, b1)
			if !ok {
				continue
			}
			b3, ok := match(tp.O, tr.O, b2)
			if !ok {
				continue
			}
			rec(b3, i+1)
		}
	}
	rec(refBinding{}, 0)
	return out
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
	var out []refBinding
	for _, b := range base {
		// Substitute bound vars into the optional patterns, then solve.
		ext := refSolve(triples, substitute(optional, b))
		if len(ext) == 0 {
			out = append(out, b)
			continue
		}
		for _, e := range ext {
			merged := refBinding{}
			for k, v := range b {
				merged[k] = v
			}
			for k, v := range e {
				merged[k] = v
			}
			out = append(out, merged)
		}
	}
	return out
}

func substitute(ps []TriplePattern, b refBinding) []TriplePattern {
	out := make([]TriplePattern, len(ps))
	for i, tp := range ps {
		sub := func(n Node) Node {
			if n.IsVar {
				if t, ok := b[n.Var]; ok {
					return NewTermNode(t)
				}
			}
			return n
		}
		out[i] = TriplePattern{S: sub(tp.S), P: sub(tp.P), O: sub(tp.O)}
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
// what is wrong with it. Where the engine's row order decides (SAMPLE,
// the tie among orderLess-equal MIN/MAX candidates, GROUP_CONCAT order,
// float summation order) any order's answer is accepted here; the
// chunked runs are then held byte-equal to the one-chunk run.
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
		for _, t := range vals {
			lo, hi := boundValue(t), boundValue(got)
			if a.Fn == "MAX" {
				lo, hi = hi, lo
			}
			if !Bound(got) || orderLess(lo, hi) {
				return fmt.Sprintf("got %v, but %v is more extreme", got, t)
			}
		}
		fallthrough
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
// doubles numerically equal to the integers: distinct terms that tie
// under MIN/MAX.
func aggPool(ties, tenths bool) []rdf.Term {
	pool := []rdf.Term{rdf.NewString("n/a"), rdf.NewString("x"), rdf.NewIRI("http://r/thing")}
	for i := 0; i < 6; i++ {
		pool = append(pool, rdf.NewInteger(int64(i)), rdf.NewDouble(float64(i)+0.25))
		if ties {
			pool = append(pool, rdf.NewDouble(float64(i)))
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
