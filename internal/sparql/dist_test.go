package sparql

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// distTestTriples is a small corpus with a skewed group structure so
// partial merging is exercised: three subjects per region, integer
// measures, one subject with a missing measure.
func distTestTriples() []rdf.Triple {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	var ts []rdf.Triple
	add := func(s, p string, o rdf.Term) {
		ts = append(ts, rdf.Triple{S: iri(s), P: iri(p), O: o})
	}
	for i := 0; i < 9; i++ {
		subj := fmt.Sprintf("obs%d", i)
		region := fmt.Sprintf("r%d", i%3)
		add(subj, "region", iri(region))
		if i != 4 { // obs4 has no value: exercises unbound handling
			add(subj, "value", rdf.NewInteger(int64(10+i*i)))
		}
		add(subj, "label", rdf.NewString(fmt.Sprintf("obs %d", i)))
	}
	return ts
}

// splitStores partitions triples across n stores by a subject-count
// round robin (any deterministic split works for these tests).
func splitStores(t *testing.T, ts []rdf.Triple, n int) []*store.Store {
	t.Helper()
	sts := make([]*store.Store, n)
	for i := range sts {
		sts[i] = store.New()
	}
	for _, tr := range ts {
		i := int(tr.S.Value[len(tr.S.Value)-1]-'0') % n
		if err := sts[i].Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return sts
}

// runPartialPlan executes the plan's shard query on each store and
// merges, returning the finalized (pre-MergeFinalize) results.
func runPartialPlan(t *testing.T, p *PartialAggPlan, sts []*store.Store) *Results {
	t.Helper()
	var shardRes []*Results
	for _, st := range sts {
		r, err := NewEngine(st).Query(p.ShardQuery())
		if err != nil {
			t.Fatalf("shard query: %v", err)
		}
		shardRes = append(shardRes, r)
	}
	res, err := p.Merge(shardRes)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return res
}

// rowStrings renders rows for comparison.
func rowStrings(res *Results) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, t := range r {
			if Bound(t) {
				parts[j] = t.String()
			}
		}
		out[i] = strings.Join(parts, " | ")
	}
	return out
}

// TestPartialAggregationMatchesSingleNode runs decomposable aggregate
// queries through the shard-rewrite path over 1..4-way splits and
// checks the merged result equals the single-node result (after
// canonical ordering on both sides, since group order differs).
func TestPartialAggregationMatchesSingleNode(t *testing.T) {
	ts := distTestTriples()
	single := store.New()
	if err := single.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT ?r (COUNT(?v) AS ?n) WHERE { ?s <http://x/region> ?r . ?s <http://x/value> ?v } GROUP BY ?r`,
		`SELECT ?r (COUNT(*) AS ?n) WHERE { ?s <http://x/region> ?r } GROUP BY ?r`,
		`SELECT ?r (SUM(?v) AS ?t) (AVG(?v) AS ?a) WHERE { ?s <http://x/region> ?r . ?s <http://x/value> ?v } GROUP BY ?r`,
		`SELECT ?r (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s <http://x/region> ?r . ?s <http://x/value> ?v } GROUP BY ?r`,
		`SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?t) WHERE { ?s <http://x/value> ?v }`,
		`SELECT ?r (COUNT(?v) AS ?n) WHERE { ?s <http://x/region> ?r . ?s <http://x/value> ?v } GROUP BY ?r HAVING (COUNT(?v) > 2)`,
		`SELECT ?r ((SUM(?v) + COUNT(?v)) AS ?mix) WHERE { ?s <http://x/region> ?r . ?s <http://x/value> ?v } GROUP BY ?r`,
		// Empty result: no subject matches this predicate.
		`SELECT (COUNT(?v) AS ?n) WHERE { ?s <http://x/nope> ?v }`,
	}
	for _, qs := range queries {
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		p, ok := PlanPartialAggregation(q)
		if !ok {
			t.Fatalf("expected decomposable: %s", qs)
		}
		want, err := NewEngine(single).QueryString(qs)
		if err != nil {
			t.Fatal(err)
		}
		MergeFinalize(q, want) // canonicalize the single-node order too
		for _, n := range []int{1, 2, 3, 4} {
			got := runPartialPlan(t, p, splitStores(t, ts, n))
			MergeFinalize(q, got)
			g, w := rowStrings(got), rowStrings(want)
			if fmt.Sprint(g) != fmt.Sprint(w) {
				t.Errorf("%s\n%d shards:\n got %v\nwant %v", qs, n, g, w)
			}
		}
	}
}

// TestPartialAggregationSampleDeterministic checks SAMPLE merges to
// the same value on every topology (the canonical least member), even
// though it may differ from the sequential engine's choice.
func TestPartialAggregationSampleDeterministic(t *testing.T) {
	ts := distTestTriples()
	qs := `SELECT ?r (SAMPLE(?v) AS ?any) WHERE { ?s <http://x/region> ?r . ?s <http://x/value> ?v } GROUP BY ?r`
	q, err := Parse(qs)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := PlanPartialAggregation(q)
	if !ok {
		t.Fatal("expected decomposable")
	}
	var first []string
	for _, n := range []int{1, 2, 3, 4} {
		got := runPartialPlan(t, p, splitStores(t, ts, n))
		MergeFinalize(q, got)
		rs := rowStrings(got)
		if first == nil {
			first = rs
			continue
		}
		if fmt.Sprint(rs) != fmt.Sprint(first) {
			t.Errorf("%d shards: got %v, want %v", n, rs, first)
		}
	}
}

// TestPlanPartialAggregationRejects lists the shapes that must fall
// back to the gather path.
func TestPlanPartialAggregationRejects(t *testing.T) {
	reject := []string{
		// DISTINCT aggregate needs a global dedup set.
		`SELECT (COUNT(DISTINCT ?v) AS ?n) WHERE { ?s <http://x/value> ?v }`,
		// GROUP_CONCAT order is per-shard row order.
		`SELECT ?r (GROUP_CONCAT(?v) AS ?all) WHERE { ?s <http://x/region> ?r . ?s <http://x/value> ?v } GROUP BY ?r`,
		// Plain var outside GROUP BY: representative-row dependent.
		`SELECT ?s (COUNT(?v) AS ?n) WHERE { ?s <http://x/value> ?v } GROUP BY ?r`,
		// Non-aggregate query.
		`SELECT ?s WHERE { ?s <http://x/value> ?v }`,
		// ASK is not a projection.
		`ASK { ?s <http://x/value> ?v }`,
	}
	for _, qs := range reject {
		q, err := Parse(qs)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		if _, ok := PlanPartialAggregation(q); ok {
			t.Errorf("expected non-decomposable: %s", qs)
		}
	}
}

// TestMergeFinalizeCanonicalOrder checks the canonical tie-break: rows
// equal under ORDER BY keys land in term-serialization order, and the
// full modifier stack (DISTINCT, OFFSET, LIMIT) applies on top.
func TestMergeFinalizeCanonicalOrder(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	mk := func(rows ...[]rdf.Term) *Results {
		return &Results{Vars: []string{"a", "b"}, Rows: rows}
	}
	q, err := Parse(`SELECT ?a ?b WHERE { ?a <http://x/p> ?b } ORDER BY ?a`)
	if err != nil {
		t.Fatal(err)
	}
	res := mk(
		[]rdf.Term{iri("k1"), iri("z")},
		[]rdf.Term{iri("k2"), iri("m")},
		[]rdf.Term{iri("k1"), iri("a")},
		[]rdf.Term{iri("k1"), iri("a")}, // duplicate
	)
	MergeFinalize(q, res)
	got := rowStrings(res)
	want := []string{
		"<http://x/k1> | <http://x/a>",
		"<http://x/k1> | <http://x/a>",
		"<http://x/k1> | <http://x/z>",
		"<http://x/k2> | <http://x/m>",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order: got %v, want %v", got, want)
	}

	// DISTINCT + OFFSET + LIMIT on an unordered query: canonical key
	// is the entire sort.
	q2, err := Parse(`SELECT DISTINCT ?a ?b WHERE { ?a <http://x/p> ?b } OFFSET 1 LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	res2 := mk(
		[]rdf.Term{iri("k2"), iri("m")},
		[]rdf.Term{iri("k1"), iri("z")},
		[]rdf.Term{iri("k1"), iri("z")},
		[]rdf.Term{iri("k1"), iri("a")},
	)
	MergeFinalize(q2, res2)
	got2 := rowStrings(res2)
	want2 := []string{"<http://x/k1> | <http://x/z>"}
	if fmt.Sprint(got2) != fmt.Sprint(want2) {
		t.Fatalf("distinct/offset/limit: got %v, want %v", got2, want2)
	}
}

// TestPartialAggMergeMatchesSingleNode property-tests the federated
// side of the aggregate algebra: for random graphs split 1, 2, 3 and
// 5 ways by subject, with random shard slots nil (failed shards in
// degraded mode), Merge + MergeFinalize over the live shards' partial
// results equals the single-node answer over the live shards' triples.
func TestPartialAggMergeMatchesSingleNode(t *testing.T) {
	queries := []string{
		`SELECT ?g (COUNT(*) AS ?rows) (COUNT(?v) AS ?n) (SUM(?v) AS ?t) (AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s <http://r/group> ?g . OPTIONAL { ?s <http://r/val> ?v } } GROUP BY ?g`,
		`SELECT (COUNT(*) AS ?rows) (COUNT(?v) AS ?n) (SUM(?v) AS ?t) (AVG(?v) AS ?a) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s <http://r/val> ?v }`,
		`SELECT ?g ((SUM(?v) / COUNT(?v)) AS ?ratio) (STR(?g) AS ?name) WHERE { ?s <http://r/group> ?g . ?s <http://r/val> ?v } GROUP BY ?g HAVING (AVG(?v) > 1 && COUNT(?v) > 1) ORDER BY DESC(?ratio) ?g LIMIT 3`,
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		// MIN/MAX ties between distinct terms included: the canonically
		// least wins on every split.
		triples := aggGraph(rng, 4+rng.Intn(40), aggPool(true, false))
		for _, n := range []int{1, 2, 3, 5} {
			shards := make([]*store.Store, n)
			up := make([]bool, n) // a down shard leaves a nil slot
			for i := range shards {
				if up[i] = rng.Intn(4) > 0; up[i] {
					shards[i] = store.New()
				}
			}
			live := store.New()
			home := map[rdf.Term]int{}
			for _, tr := range triples {
				i, ok := home[tr.S]
				if !ok {
					i = rng.Intn(n)
					home[tr.S] = i
				}
				if shards[i] != nil {
					if err := errors.Join(shards[i].Add(tr), live.Add(tr)); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, qs := range queries {
				q, err := Parse(qs)
				if err != nil {
					t.Fatal(err)
				}
				p, ok := PlanPartialAggregation(q)
				if !ok {
					t.Fatalf("expected decomposable: %s", qs)
				}
				partials := make([]*Results, n)
				for i, st := range shards {
					if st == nil {
						continue
					}
					if partials[i], err = NewEngine(st).Query(p.ShardQuery()); err != nil {
						t.Fatal(err)
					}
				}
				got, err := p.Merge(partials)
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewEngine(live).Query(q)
				if err != nil {
					t.Fatal(err)
				}
				MergeFinalize(q, got)
				MergeFinalize(q, want)
				if g, w := rowStrings(got), rowStrings(want); !slices.Equal(g, w) {
					t.Fatalf("trial %d, %d shards (up: %v):\n%s\n got %q\nwant %q", trial, n, up, qs, g, w)
				}
			}
		}
	}
}

// TestPartialAggMergeKeys pins how Merge finds groups: by the
// CanonicalRowKey of the GROUP BY cells, so an xsd:string literal and
// its plain twin are one group — keyed by the term its first row, in
// shard order, carried — and unbound cells are one group; groups come
// out in canonical key order.
func TestPartialAggMergeKeys(t *testing.T) {
	q, err := Parse(`SELECT ?g ?h (COUNT(?v) AS ?n) WHERE { ?s <http://r/g> ?g . OPTIONAL { ?s <http://r/h> ?h } ?s <http://r/v> ?v } GROUP BY ?g ?h`)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := PlanPartialAggregation(q)
	if !ok {
		t.Fatal("not decomposable")
	}
	var vars []string
	for _, it := range p.ShardQuery().Select {
		vars = append(vars, it.Var)
	}
	row := func(g, h rdf.Term, n int64) []rdf.Term { return []rdf.Term{g, h, rdf.NewInteger(n)} }
	x, xs, b, none := rdf.NewString("x"), rdf.NewTyped("x", rdf.XSDString), rdf.NewIRI("http://r/b"), rdf.Term{}
	got, err := p.Merge([]*Results{
		{Vars: vars, Rows: [][]rdf.Term{row(xs, none, 1), row(b, x, 2)}},
		nil, // a failed shard in degraded mode
		{Vars: vars, Rows: [][]rdf.Term{row(x, none, 4), row(b, xs, 8), row(x, b, 16)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// `"x"\0\0` < `"x"\0<http://r/b>\0` < `<http://r/b>\0"x"\0`.
	want := []struct {
		g, h rdf.Term
		n    string
	}{{xs, none, "5"}, {x, b, "16"}, {b, x, "10"}}
	if len(got.Rows) != len(want) {
		t.Fatalf("%d groups, want %d: %v", len(got.Rows), len(want), got.Rows)
	}
	for i, w := range want {
		if r := got.Rows[i]; r[0] != w.g || r[1] != w.h || r[2].Value != w.n {
			t.Errorf("group %d: %#v, want %v %v %s", i, r, w.g, w.h, w.n)
		}
	}
}

// TestCanonicalCompareMatchesKey holds compareRows to the order of the
// keys it stands in for: over random rows of IRIs, blank nodes and
// plain, language-tagged, typed and xsd:string literals — values drawn
// from an alphabet of escapes, '/', '>', '<', invalid UTF-8 and
// multi-byte runes, short enough that one value is often a prefix of
// another — and unbound cells, its sign is that of strings.Compare of
// the two CanonicalRowKeys.
func TestCanonicalCompareMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	alphabet := []string{"a", "b", "/", ">", "<", `"`, `\`, "\n", "\r", "\t", "@", "^", ":", "_", "é", "\xff", "\xe2\x82", "�"}
	text := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	term := func() rdf.Term {
		switch rng.Intn(8) {
		case 0:
			return rdf.Term{}
		case 1:
			return rdf.NewIRI(text())
		case 2:
			return rdf.NewBlank(text())
		case 3:
			return rdf.NewLangString(text(), []string{"en", "e", "en-gb"}[rng.Intn(3)])
		case 4:
			return rdf.NewTyped(text(), []string{rdf.XSDInteger, rdf.XSDString, "http://t/" + text()}[rng.Intn(3)])
		default:
			return rdf.NewString(text())
		}
	}
	rowOf := func() []rdf.Term {
		r := make([]rdf.Term, 1+rng.Intn(3))
		for i := range r {
			r[i] = term()
		}
		return r
	}
	sign := func(c int) int { return cmp.Compare(c, 0) }
	for i := 0; i < 200000; i++ {
		a, b := rowOf(), rowOf()
		if i%3 == 0 && len(a) == len(b) {
			copy(b, a[:len(a)-1]) // rows that differ in the last cell only
		}
		if got, want := sign(compareRows(a, b)), sign(strings.Compare(CanonicalRowKey(a), CanonicalRowKey(b))); got != want {
			t.Fatalf("compareRows(%q, %q) = %d, keys compare %d", CanonicalRowKey(a), CanonicalRowKey(b), got, want)
		}
	}
}

// cutRowsCase draws a result set and solution modifiers for the
// ordered-LIMIT differentials: three columns of unbound cells, IRIs,
// plain literals with escapes and their xsd:string twins, language
// tags, and numbers that tie under ORDER BY ("1" and "1.0"); rows often
// repeat; ORDER BY one or two columns, either direction, or none;
// DISTINCT, OFFSET and LIMIT at random.
func cutRowsCase(seed int64) (*Query, *Results) {
	rng := rand.New(rand.NewSource(seed))
	pool := []rdf.Term{
		{},
		rdf.NewIRI("http://c/a"), rdf.NewIRI("http://c/b"),
		rdf.NewString("x"), rdf.NewTyped("x", rdf.XSDString),
		rdf.NewString("a\"b"), rdf.NewTyped("a\"b", rdf.XSDString),
		rdf.NewString("a\nb"), rdf.NewLangString("x", "en"),
		rdf.NewInteger(1), rdf.NewTyped("1.0", rdf.XSDDecimal), rdf.NewInteger(2),
	}
	pool = pool[:2+rng.Intn(len(pool)-1)]
	res := &Results{Vars: []string{"c0", "c1", "c2"}}
	for n := rng.Intn(120); n > 0; n-- {
		if len(res.Rows) > 0 && rng.Intn(4) == 0 {
			res.Rows = append(res.Rows, slices.Clone(res.Rows[rng.Intn(len(res.Rows))]))
			continue
		}
		r := make([]rdf.Term, 3)
		for i := range r {
			r[i] = pool[rng.Intn(len(pool))]
		}
		res.Rows = append(res.Rows, r)
	}
	q := &Query{Distinct: rng.Intn(4) == 0, Limit: -1}
	for _, v := range res.Vars {
		q.Select = append(q.Select, SelectItem{Var: v})
	}
	for k := rng.Intn(3); k > 0; k-- {
		q.OrderBy = append(q.OrderBy, OrderKey{Expr: VarExpr{Name: res.Vars[rng.Intn(3)]}, Desc: rng.Intn(2) == 0})
	}
	if rng.Intn(3) > 0 {
		q.Limit = rng.Intn(len(res.Rows) + 2)
	}
	if rng.Intn(3) == 0 {
		q.Offset = rng.Intn(len(res.Rows) + 2)
	}
	return q, res
}

// refModifiers is the reference the ordered-LIMIT kernel must match: a
// full stable sort by the ORDER BY keys, then by tie (nil: input
// position), then DISTINCT on the first row of each key, OFFSET and
// LIMIT.
func refModifiers(q *Query, res *Results, tie func(a, b []rdf.Term) int, key func([]rdf.Term) string) [][]rdf.Term {
	n := len(q.OrderBy)
	keys := make([]Value, len(res.Rows)*n)
	for i, r := range res.Rows {
		b := refBinding{}
		for j, v := range res.Vars {
			if Bound(r[j]) {
				b[v] = r[j]
			}
		}
		for k, o := range q.OrderBy {
			if v, err := evalExpr(o.Expr, refEnv{b: b}); err == nil {
				keys[i*n+k] = v
			}
		}
	}
	perm := make([]int, len(res.Rows))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(i, j int) int {
		if c := orderCmp(q.OrderBy, keys[i*n:], keys[j*n:]); c != 0 || tie == nil {
			return c
		}
		return tie(res.Rows[i], res.Rows[j])
	})
	var out [][]rdf.Term
	seen := map[string]bool{}
	for _, p := range perm {
		r := res.Rows[p]
		if q.Distinct {
			if seen[key(r)] {
				continue
			}
			seen[key(r)] = true
		}
		out = append(out, r)
	}
	return window(q, out)
}

// FuzzMergeFinalize holds the one finish, under both tie rules, to a
// full sort plus a cut: MergeFinalize (canonical tie-break) as
// CanonicalRowKey sequences, and the single node's stable finish (ties
// by input position, as a stable sort leaves them) row for row.
func FuzzMergeFinalize(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	keysOf := func(rows [][]rdf.Term) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = CanonicalRowKey(r)
		}
		return out
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		q, res := cutRowsCase(seed)
		canonical := func(a, b []rdf.Term) int { return strings.Compare(CanonicalRowKey(a), CanonicalRowKey(b)) }
		want := keysOf(refModifiers(q, res, canonical, CanonicalRowKey))
		got := &Results{Vars: res.Vars, Rows: slices.Clone(res.Rows)}
		MergeFinalize(q, got)
		if g := keysOf(got.Rows); !slices.Equal(g, want) {
			t.Fatalf("MergeFinalize (seed %d, %s):\n got %q\nwant %q", seed, q, g, want)
		}

		wantRows := refModifiers(q, res, nil, CanonicalRowKey)
		exprs := make([]Expr, len(q.OrderBy))
		for i, o := range q.OrderBy {
			exprs[i] = o.Expr
		}
		gotRows := termSolutions(termCompiler(res.Vars), exprs, res.Rows, res.Vars, nil).finish(q, true).Rows
		if len(gotRows) != len(wantRows) {
			t.Fatalf("stable finish (seed %d, %s): %d rows, want %d", seed, q, len(gotRows), len(wantRows))
		}
		for i := range wantRows {
			if !slices.Equal(gotRows[i], wantRows[i]) {
				t.Fatalf("stable finish (seed %d, %s): row %d is %v, want %v", seed, q, i, gotRows[i], wantRows[i])
			}
		}
	})
}
