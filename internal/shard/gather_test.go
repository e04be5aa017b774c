package shard

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// The string-keyed gather builder the ID-space assembly replaced, kept
// verbatim as the reference oracle: dedupe on the concatenated
// N-Triples renderings, sort.Slice on the same key, load one triple at
// a time into an empty store.

func tripleKeyOracle(t rdf.Triple) string {
	var b strings.Builder
	b.WriteString(t.S.String())
	b.WriteByte('\x00')
	b.WriteString(t.P.String())
	b.WriteByte('\x00')
	b.WriteString(t.O.String())
	return b.String()
}

func buildGatherStoreOracle(shardTriples [][]rdf.Triple) (*store.Store, error) {
	seen := map[string]struct{}{}
	var all []rdf.Triple
	for _, ts := range shardTriples {
		for _, t := range ts {
			k := tripleKeyOracle(t)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			all = append(all, t)
		}
	}
	sort.Slice(all, func(i, j int) bool { return tripleKeyOracle(all[i]) < tripleKeyOracle(all[j]) })
	st := store.New()
	for _, t := range all {
		if err := st.Add(t); err != nil {
			return nil, err
		}
	}
	st.Compact()
	return st, nil
}

// triplesOracle is the replaced per-row reconstruction of the triples
// a shard reported for one fetch, one per pattern per row.
func (f fetchSpec) triplesOracle(res *sparql.Results) []rdf.Triple {
	if f.ask {
		if !res.Boolean {
			return nil
		}
		var out []rdf.Triple
		for _, tp := range f.pats {
			out = append(out, rdf.Triple{S: tp.S.Term, P: tp.P.Term, O: tp.O.Term})
		}
		return out
	}
	var out []rdf.Triple
	for _, r := range res.Rows {
		ok := true
		fill := func(col int, n sparql.Node) rdf.Term {
			if col < 0 {
				return n.Term
			}
			if col >= len(r) || !sparql.Bound(r[col]) {
				ok = false
				return rdf.Term{}
			}
			return r[col]
		}
		var row []rdf.Triple
		for i, tp := range f.pats {
			c := f.cols[i]
			row = append(row, rdf.Triple{S: fill(c[0], tp.S), P: fill(c[1], tp.P), O: fill(c[2], tp.O)})
		}
		if ok {
			out = append(out, row...)
		}
	}
	return out
}

// assemble runs the ID-space path over per-shard triple lists; a nil
// list is a degraded-mode skip.
func assemble(shardTriples [][]rdf.Triple) (*store.Store, error) {
	parts := make([]*gatherPart, len(shardTriples))
	for i, ts := range shardTriples {
		if ts == nil {
			continue
		}
		parts[i] = newGatherPart(0, 0)
		for _, t := range ts {
			parts[i].add(t)
		}
	}
	return assembleGather(parts)
}

// requireSameStore asserts got is indistinguishable from want to the
// engine: every term has the same dictionary ID and Triples() lists
// the same triples in the same order.
func requireSameStore(t *testing.T, got, want *store.Store) {
	t.Helper()
	if g, w := got.Dict().Len(), want.Dict().Len(); g != w {
		t.Fatalf("dictionary has %d terms, oracle %d", g, w)
	}
	for id := store.ID(1); int(id) <= want.Dict().Len(); id++ {
		if g, w := got.Dict().Decode(id), want.Dict().Decode(id); g != w {
			t.Fatalf("ID %d is %v, oracle %v", id, g, w)
		}
	}
	if g, w := got.Triples(), want.Triples(); !reflect.DeepEqual(g, w) {
		t.Fatalf("Triples() diverges from the oracle: %d vs %d triples", len(g), len(w))
	}
}

// gatherTermPool is the vocabulary of the random triple sets: every
// term kind, with the renderings that stress canonical order — terms
// that are strict prefixes of others, language tags that are prefixes
// of others, datatypes, escapes, and a literal that renders like an
// IRI.
func gatherTermPool() (subjects, preds, objects []rdf.Term) {
	subjects = []rdf.Term{
		rdf.NewIRI("http://t/a"), rdf.NewIRI("http://t/ab"), rdf.NewIRI("http://t/a/b"),
		rdf.NewIRI("http://t/a b"), rdf.NewIRI("http://t/é"), rdf.NewIRI("http://t/z"),
		rdf.NewBlank("b"), rdf.NewBlank("b1"), rdf.NewBlank("b10"),
	}
	preds = []rdf.Term{
		rdf.NewIRI("http://t/p"), rdf.NewIRI("http://t/p1"), rdf.NewIRI("http://t/pp"),
		rdf.NewIRI(rdf.RDFType),
	}
	objects = append([]rdf.Term{
		rdf.NewString("a"), rdf.NewString("ab"), rdf.NewString(""),
		rdf.NewString("http://t/a"), rdf.NewString("<http://t/a>"),
		rdf.NewString("say \"hi\"\n\tbye\\"), rdf.NewString("é"),
		rdf.NewLangString("a", "en"), rdf.NewLangString("a", "en-gb"), rdf.NewLangString("ab", "de"),
		rdf.NewInteger(1), rdf.NewInteger(10), rdf.NewInteger(-1),
		rdf.NewDouble(1.5), rdf.NewBoolean(true),
		rdf.NewTyped("1", "http://t/dt"), rdf.NewTyped("a", "http://t/dt"), rdf.NewTyped("a", "http://t/dtt"),
	}, subjects...)
	return subjects, preds, objects
}

// TestAssembleGatherMatchesOracle property-tests the ID-space assembly
// against the string-keyed builder on seeded random triple sets with
// duplicates within and across shards, empty and skipped shards.
func TestAssembleGatherMatchesOracle(t *testing.T) {
	subjects, preds, objects := gatherTermPool()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(ts []rdf.Term) rdf.Term { return ts[rng.Intn(len(ts))] }
		shards := 1 + rng.Intn(5)
		shardTriples := make([][]rdf.Triple, shards)
		for i := range shardTriples {
			switch rng.Intn(6) {
			case 0:
				continue // skipped shard: nil slot
			case 1:
				shardTriples[i] = []rdf.Triple{} // answered, zero triples
				continue
			}
			for n := rng.Intn(60); n > 0; n-- {
				tr := rdf.Triple{S: pick(subjects), P: pick(preds), O: pick(objects)}
				shardTriples[i] = append(shardTriples[i], tr)
				if rng.Intn(4) == 0 { // duplicate within the shard
					shardTriples[i] = append(shardTriples[i], tr)
				}
				if rng.Intn(4) == 0 { // duplicate across shards
					j := rng.Intn(shards)
					shardTriples[j] = append(shardTriples[j], tr)
				}
			}
		}
		want, err := buildGatherStoreOracle(shardTriples)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		got, err := assemble(shardTriples)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		requireSameStore(t, got, want)
		if want.Len() > 0 && got.Generation() == 0 {
			t.Fatalf("seed %d: non-empty gather store at generation 0", seed)
		}
	}
}

// TestAssembleGatherRejectsInvalid keeps the guard the per-triple Add
// of the old builder gave: a shard answering with a literal subject or
// a non-IRI predicate fails the query instead of poisoning the store.
func TestAssembleGatherRejectsInvalid(t *testing.T) {
	for _, tr := range []rdf.Triple{
		{S: rdf.NewString("lit"), P: rdf.NewIRI("http://t/p"), O: rdf.NewIRI("http://t/o")},
		{S: rdf.NewIRI("http://t/s"), P: rdf.NewBlank("b"), O: rdf.NewIRI("http://t/o")},
	} {
		if _, err := assemble([][]rdf.Triple{{tr}}); err == nil {
			t.Errorf("assembled invalid triple %v", tr)
		}
	}
}

// TestGatherCorpusMatchesOracle replays every gather-class query of
// the determinism corpus: the same shard answers go through the oracle
// and through the ID-space path, and the local stores — and the
// answers the engine computes on them — must be identical.
func TestGatherCorpusMatchesOracle(t *testing.T) {
	ts := determinismTriples()
	ctx := context.Background()
	for _, n := range []int{1, 3, 5} {
		shardParts := Partitioner{N: n}.Split(ts)
		shards := make([]endpoint.Client, n)
		for i := range shards {
			st := store.New()
			if err := st.AddAll(shardParts[i]); err != nil {
				t.Fatal(err)
			}
			shards[i] = endpoint.NewInProcess(st)
		}
		gathers := 0
		for _, cq := range determinismCorpus() {
			q, err := sparql.Parse(cq.query)
			if err != nil {
				t.Fatal(err)
			}
			if classify(q).kind != planGather {
				continue
			}
			gathers++
			specs := collectFetchSpecs(q, functionalIn(ts))
			old := make([][]rdf.Triple, n)
			parts := make([]*gatherPart, n)
			for i, sh := range shards {
				parts[i] = newGatherPart(0, 0)
				for _, spec := range specs {
					res, err := sh.Query(ctx, spec.query)
					if err != nil {
						t.Fatalf("%s: shard %d: %v", cq.name, i, err)
					}
					want := spec.triplesOracle(res)
					before := len(parts[i].triples)
					spec.collect(res, parts[i])
					if got := len(parts[i].triples) - before; got != len(want) {
						t.Fatalf("%s: shard %d: collected %d triples, oracle %d", cq.name, i, got, len(want))
					}
					old[i] = append(old[i], want...)
				}
			}
			want, err := buildGatherStoreOracle(old)
			if err != nil {
				t.Fatal(err)
			}
			got, err := assembleGather(parts)
			if err != nil {
				t.Fatal(err)
			}
			requireSameStore(t, got, want)
			wantRes, err := sparql.NewEngine(want).QueryContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			gotRes, err := sparql.NewEngine(got).QueryContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encode(t, gotRes), encode(t, wantRes)) {
				t.Errorf("%s (%d shards): answer diverges from the oracle's", cq.name, n)
			}
		}
		if gathers == 0 {
			t.Fatal("no gather-class query in the corpus")
		}
	}
}

// functionalIn is the data-side oracle for the facts star fetches
// rely on: the predicates of ts with at most one object per subject.
func functionalIn(ts []rdf.Triple) map[rdf.Term]bool {
	objects := map[[2]rdf.Term]rdf.Term{}
	fn := map[rdf.Term]bool{}
	for _, t := range ts {
		if _, ok := fn[t.P]; !ok {
			fn[t.P] = true
		}
		k := [2]rdf.Term{t.S, t.P}
		if o, ok := objects[k]; ok && o != t.O {
			fn[t.P] = false
		}
		objects[k] = t.O
	}
	return fn
}

// perPatternSpecs is the fetch plan the star fetches replaced: every
// spec of q with each star split back into one fetch per pattern.
func perPatternSpecs(q *sparql.Query, functional map[rdf.Term]bool) []fetchSpec {
	seen := map[string]bool{}
	var out []fetchSpec
	for _, s := range collectFetchSpecs(q, functional) {
		for _, tp := range s.pats {
			if spec := buildFetchSpec(tp); !seen[spec.query] {
				seen[spec.query] = true
				out = append(out, spec)
			}
		}
	}
	return out
}

// starTestTriples is a random corpus whose subjects carry up to 1-3
// values per predicate — the bound drawn per predicate, so some
// predicates are functional and some are not — plus a link relation
// with chains and cycles for closures.
func starTestTriples(rng *rand.Rand) []rdf.Triple {
	iri := func(f string, a ...any) rdf.Term { return rdf.NewIRI("http://t/" + fmt.Sprintf(f, a...)) }
	var most [4]int
	for p := range most {
		most[p] = 1 + rng.Intn(3)
	}
	var ts []rdf.Triple
	for s := 0; s < 14; s++ {
		for p := 0; p < 4; p++ {
			for k := rng.Intn(most[p] + 1); k > 0; k-- {
				o := iri("s%d", rng.Intn(14))
				if rng.Intn(3) == 0 {
					o = rdf.NewInteger(int64(rng.Intn(5)))
				}
				ts = append(ts, rdf.Triple{S: iri("s%d", s), P: iri("p%d", p), O: o})
			}
		}
		if rng.Intn(2) == 0 {
			ts = append(ts, rdf.Triple{S: iri("s%d", s), P: iri("link"), O: iri("s%d", rng.Intn(14))})
		}
	}
	return ts
}

// randomStarQuery draws a query with a top-level subject star and,
// around it, OPTIONAL, UNION, [NOT] EXISTS, closure and cross-subject
// patterns on the same predicates. Every in-scope variable is
// projected and ordered on, or the query counts per star subject, so
// its answer is fixed by its solution multiset alone.
func randomStarQuery(rng *rand.Rand) string {
	pred := func() string { return fmt.Sprintf("<http://t/p%d>", rng.Intn(4)) }
	term := func() string {
		if rng.Intn(2) == 0 {
			return fmt.Sprint(rng.Intn(5))
		}
		return fmt.Sprintf("<http://t/s%d>", rng.Intn(14))
	}
	subj := "?s"
	if rng.Intn(5) == 0 {
		subj = fmt.Sprintf("<http://t/s%d>", rng.Intn(14))
	}
	var where []string
	vars := []string{}
	if subj == "?s" {
		vars = append(vars, "?s")
	}
	objs := []string{"?a", "?b", "?c"}
	for i, n := 0, 2+rng.Intn(2); i < n; i++ {
		o := objs[i]
		switch rng.Intn(6) {
		case 0, 1:
			o = term()
		case 2:
			if i > 0 {
				o = objs[0] // a join constraint inside the star
			}
		}
		if o == objs[i] {
			vars = append(vars, o)
		}
		where = append(where, fmt.Sprintf("%s %s %s .", subj, pred(), o))
	}
	hop := subj // where the patterns around the star attach
	if slices.Contains(vars, "?a") {
		hop = "?a"
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		v := fmt.Sprintf("?x%d", i)
		switch rng.Intn(6) {
		case 0:
			where = append(where, fmt.Sprintf("OPTIONAL { %s %s %s }", hop, pred(), v))
			vars = append(vars, v)
		case 1:
			where = append(where, fmt.Sprintf("{ %s %s %s } UNION { %s %s %s }", hop, pred(), v, subj, pred(), v))
			vars = append(vars, v)
		case 2:
			not := []string{"", "NOT "}[rng.Intn(2)]
			where = append(where, fmt.Sprintf("FILTER %sEXISTS { %s %s %s }", not, hop, pred(), term()))
		case 3:
			mod := []string{"*", "+"}[rng.Intn(2)]
			where = append(where, fmt.Sprintf("%s <http://t/link>%s %s", hop, mod, v))
			vars = append(vars, v)
		case 4:
			where = append(where, fmt.Sprintf("%s %s %s .", hop, pred(), v))
			vars = append(vars, v)
		default:
			where = append(where, fmt.Sprintf("<http://t/s%d> <http://t/link>* %s", rng.Intn(16), v))
			vars = append(vars, v)
		}
	}
	body := strings.Join(where, " ")
	if subj == "?s" && rng.Intn(3) == 0 {
		return fmt.Sprintf("SELECT ?s (COUNT(*) AS ?n) WHERE { %s } GROUP BY ?s ORDER BY ?s", body)
	}
	if len(vars) == 0 {
		return fmt.Sprintf("ASK { %s }", body)
	}
	sel := strings.Join(vars, " ")
	return fmt.Sprintf("SELECT %s WHERE { %s } ORDER BY %s", sel, body, sel)
}

// TestStarFetchMatchesPerPatternOracle: over random corpora mixing
// functional and multi-valued predicates and random queries mixing
// top-level stars with OPTIONAL, UNION, EXISTS and closures, at 1, 2,
// 3 and 5 shards, the local store gathered from star fetches answers
// byte for byte as the store gathered one fetch per pattern does, and
// every star ships at most one row per subject, so no more rows than
// the fetch of any one of its patterns.
func TestStarFetchMatchesPerPatternOracle(t *testing.T) {
	ctx := context.Background()
	stars := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts := starTestTriples(rng)
		fn := functionalIn(ts)
		var queries []*sparql.Query
		for len(queries) < 25 {
			text := randomStarQuery(rng)
			q, err := sparql.Parse(text)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, text, err)
			}
			queries = append(queries, q)
		}
		// The whole corpus on one node is the independent check: it
		// shares no fetch planning with either gathered store.
		single := sparql.NewEngine(storeFromTriples(t, ts))
		singleAnswers := map[*sparql.Query][]byte{}
		for _, q := range queries {
			res, err := single.QueryContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			singleAnswers[q] = encode(t, res)
		}
		for _, n := range []int{1, 2, 3, 5} {
			shards := make([]endpoint.Client, n)
			for i, part := range (Partitioner{N: n}).Split(ts) {
				st := store.New()
				if err := st.AddAll(part); err != nil {
					t.Fatal(err)
				}
				shards[i] = endpoint.NewInProcess(st)
			}
			for _, q := range queries {
				specs := collectFetchSpecs(q, fn)
				for _, s := range specs {
					if len(s.pats) > 1 {
						stars++
					}
				}
				parts := make([]*gatherPart, n)
				oracle := make([][]rdf.Triple, n)
				for i, sh := range shards {
					parts[i] = newGatherPart(0, 0)
					for _, spec := range specs {
						res, err := sh.Query(ctx, spec.query)
						if err != nil {
							t.Fatal(err)
						}
						rows := spec.collect(res, parts[i])
						if spec.ask || len(spec.pats) < 2 {
							continue
						}
						subjects := map[rdf.Term]bool{}
						for _, r := range res.Rows {
							s := spec.pats[0].S.Term
							if c := spec.cols[0][0]; c >= 0 {
								s = r[c]
							}
							subjects[s] = true
						}
						if rows != len(subjects) {
							t.Fatalf("seed %d: %s shipped %d rows for %d subjects", seed, spec.query, rows, len(subjects))
						}
						for _, tp := range spec.pats {
							single := buildFetchSpec(tp)
							res, err := sh.Query(ctx, single.query)
							if err != nil {
								t.Fatal(err)
							}
							if own := single.collect(res, newGatherPart(0, 0)); rows > own {
								t.Fatalf("seed %d: %s shipped %d rows, its pattern's own fetch %s %d", seed, spec.query, rows, single.query, own)
							}
						}
					}
					for _, spec := range perPatternSpecs(q, fn) {
						res, err := sh.Query(ctx, spec.query)
						if err != nil {
							t.Fatal(err)
						}
						oracle[i] = append(oracle[i], spec.triplesOracle(res)...)
					}
				}
				got, err := assembleGather(parts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := buildGatherStoreOracle(oracle)
				if err != nil {
					t.Fatal(err)
				}
				gotRes, err := sparql.NewEngine(got).QueryContext(ctx, q)
				if err != nil {
					t.Fatalf("seed %d, %d shards: %s: %v", seed, n, q, err)
				}
				wantRes, err := sparql.NewEngine(want).QueryContext(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				g, w := encode(t, gotRes), encode(t, wantRes)
				if !bytes.Equal(g, w) {
					t.Fatalf("seed %d, %d shards: %s\nstar-fetched store answers\n%s\nper-pattern store answers\n%s", seed, n, q, g, w)
				}
				if !bytes.Equal(g, singleAnswers[q]) {
					t.Fatalf("seed %d, %d shards: %s\ngathered store answers\n%s\nsingle node answers\n%s", seed, n, q, g, singleAnswers[q])
				}
			}
		}
	}
	if stars == 0 {
		t.Fatal("no query produced a star fetch")
	}
}

// TestFunctionalPredicatesFollowData: at 1, 2, 3 and 5 shards the
// coordinator's facts agree with the data, are asked for once per data
// generation, follow a write that gives a subject a second object, and
// are not remembered when a shard cannot answer.
func TestFunctionalPredicatesFollowData(t *testing.T) {
	ctx := context.Background()
	ts := determinismTriples()
	want := functionalIn(ts)
	var preds []rdf.Term
	for p := range want {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i].String() < preds[j].String() })
	functional := func(fn map[rdf.Term]bool) int {
		n := 0
		for _, ok := range fn {
			if ok {
				n++
			}
		}
		return n
	}
	if k := functional(want); k == 0 || k == len(want) {
		t.Fatal("corpus needs functional and multi-valued predicates")
	}
	for _, n := range []int{1, 2, 3, 5} {
		stores := make([]*store.Store, n)
		calls := make([]int, n)
		backends := make([]endpoint.Client, n)
		for i, part := range (Partitioner{N: n}).Split(ts) {
			stores[i] = storeFromTriples(t, part)
			backends[i] = countingClient{inner: endpoint.NewInProcess(stores[i]), calls: &calls[i]}
		}
		c, err := New(backends, WithoutResilience())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		asked := func() int {
			sum := 0
			for _, n := range calls {
				sum += n
			}
			return sum
		}
		if got := c.functionalPredicates(ctx, c.currentView(), preds, ""); !maps.Equal(got, want) {
			t.Fatalf("%d shards: facts %v, want %v", n, got, want)
		}
		if asked() != n {
			t.Fatalf("%d shards: %d shard queries, want one per shard", n, asked())
		}
		c.functionalPredicates(ctx, c.currentView(), preds, "")
		if asked() != n {
			t.Fatalf("%d shards: facts asked again within one data generation", n)
		}
		// A second object for one subject of a functional predicate.
		var p rdf.Term
		for i, part := range (Partitioner{N: n}).Split(ts) {
			for _, tr := range part {
				if want[tr.P] && p == (rdf.Term{}) {
					p = tr.P
					if err := stores[i].AddAll([]rdf.Triple{{S: tr.S, P: tr.P, O: rdf.NewIRI("http://t/another")}}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if got := c.functionalPredicates(ctx, c.currentView(), []rdf.Term{p}, ""); got[p] {
			t.Fatalf("%d shards: %s still functional after the write", n, p)
		}
	}

	// A shard that cannot answer leaves the predicates not functional
	// for this query, and the next one asks again.
	parts := (Partitioner{N: 2}).Split(ts)
	flaky := endpoint.NewFault(endpoint.NewInProcess(storeFromTriples(t, parts[1])), endpoint.FaultConfig{FailFirst: 1})
	c, err := New([]endpoint.Client{endpoint.NewInProcess(storeFromTriples(t, parts[0])), flaky}, WithoutResilience())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.functionalPredicates(ctx, c.currentView(), preds, ""); functional(got) > 0 {
		t.Fatalf("facts from a failed shard: %v", got)
	}
	if got := c.functionalPredicates(ctx, c.currentView(), preds, ""); !maps.Equal(got, want) {
		t.Fatalf("facts after the shard recovered: %v, want %v", got, want)
	}
}

// TestGatherFetchesNeedNoDistinct checks the claim the DISTINCT-free
// fetch queries rest on: over a store (a set of triples) a pattern's
// projection onto all of its variables never repeats a row, and
// neither does a star's, whose rows are its distinct solutions.
func TestGatherFetchesNeedNoDistinct(t *testing.T) {
	st := store.New()
	if err := st.AddAll(determinismTriples()); err != nil {
		t.Fatal(err)
	}
	iri := func(s string) sparql.Node { return sparql.NewTermNode(rdf.NewIRI("http://t/" + s)) }
	v := sparql.NewVarNode
	for _, pats := range [][]sparql.TriplePattern{
		{{S: v("s"), P: v("p"), O: v("o")}},
		{{S: v("s"), P: iri("region"), O: v("o")}},
		{{S: v("s"), P: iri("region"), O: iri("r1")}},
		{{S: iri("p1"), P: v("p"), O: v("o")}},
		{{S: v("x"), P: iri("knows"), O: v("x")}},
		{{S: v("s"), P: v("p"), O: iri("p3")}},
		{{S: v("s"), P: iri("region"), O: v("r")}, {S: v("s"), P: iri("label"), O: v("l")}},
		{{S: v("s"), P: v("p"), O: v("o")}, {S: v("s"), P: iri("region"), O: iri("r1")}},
	} {
		spec := buildFetchSpec(pats...)
		if strings.Contains(spec.query, "DISTINCT") {
			t.Fatalf("fetch query still carries DISTINCT: %s", spec.query)
		}
		res, err := sparql.NewEngine(st).QueryString(spec.query)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range res.Rows {
			k := sparql.CanonicalRowKey(r)
			if seen[k] {
				t.Fatalf("%s: repeated row %s", spec.query, k)
			}
			seen[k] = true
		}
	}
}

// TestGatherFetchesOverlap: a shard's fetch queries go out together,
// so a gather over slow shards costs about one round trip, not one per
// fetch spec.
func TestGatherFetchesOverlap(t *testing.T) {
	const latency = 20 * time.Millisecond
	const query = `SELECT ?s ?lbl WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf>+ ?c . ?c <http://t/label> ?lbl }`
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	if k := classify(q).kind; k != planGather {
		t.Fatalf("query classifies as %v, want gather", k)
	}
	specs := len(collectFetchSpecs(q, nil))
	if specs < 3 {
		t.Fatalf("query has %d fetch specs, want at least 3", specs)
	}
	ts := determinismTriples()
	parts := Partitioner{N: 3}.Split(ts)
	backends := make([]endpoint.Client, len(parts))
	for i := range backends {
		st := store.New()
		if err := st.AddAll(parts[i]); err != nil {
			t.Fatal(err)
		}
		fc := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{})
		fc.SetLatency(latency)
		backends[i] = fc
	}
	coord, err := New(backends, WithoutResilience())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	fast := newTopology(t, ts, 3)
	want, err := fast.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}

	best := time.Hour
	for attempt := 0; attempt < 3; attempt++ {
		start := time.Now()
		res, meta, err := coord.QueryX(context.Background(), endpoint.Request{Query: query})
		d := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, res), encode(t, want)) {
			t.Fatal("answer over slow shards diverges")
		}
		for _, call := range meta.Shards {
			if call.Attempts != specs {
				t.Fatalf("shard %d: %d attempts, want one per fetch spec (%d)", call.Shard, call.Attempts, specs)
			}
		}
		if d < best {
			best = d
		}
	}
	if best < latency {
		t.Fatalf("gather finished in %v, under one injected latency %v", best, latency)
	}
	if limit := time.Duration(specs) * latency * 2 / 3; best >= limit {
		t.Errorf("gather over %d fetch specs at %v each took %v, want well under the serial %v (limit %v)",
			specs, latency, best, time.Duration(specs)*latency, limit)
	}
}

// TestGatherHonoursCancellation: a cancelled context stops the plan
// with the context's error instead of assembling and executing.
func TestGatherHonoursCancellation(t *testing.T) {
	coord := newTopology(t, determinismTriples(), 3, WithDegraded(true))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := coord.QueryX(ctx, endpoint.Request{Query: `SELECT ?b WHERE { <http://t/p0> <http://t/knows>+ ?b }`})
	if err == nil {
		t.Fatal("gather on a cancelled context succeeded")
	}
}

// TestUnionGraphsCanonical: CONSTRUCT merges dedupe across shards and
// come out in canonical order whatever order the shards listed them.
func TestUnionGraphsCanonical(t *testing.T) {
	subjects, preds, objects := gatherTermPool()
	rng := rand.New(rand.NewSource(7))
	var all []rdf.Triple
	for i := 0; i < 300; i++ {
		all = append(all, rdf.Triple{
			S: subjects[rng.Intn(len(subjects))], P: preds[rng.Intn(len(preds))], O: objects[rng.Intn(len(objects))],
		})
	}
	keys := map[string]bool{}
	for _, tr := range all {
		keys[tripleKeyOracle(tr)] = true
	}
	want := make([]string, 0, len(keys))
	for k := range keys {
		want = append(want, k)
	}
	sort.Strings(want)

	for trial := 0; trial < 5; trial++ {
		results := make([]*sparql.Results, 4) // slot 3 stays nil: a skipped shard
		for i := 0; i < 3; i++ {
			results[i] = &sparql.Results{IsConstruct: true}
		}
		for _, j := range rng.Perm(len(all)) {
			r := results[rng.Intn(3)]
			r.Triples = append(r.Triples, all[j])
		}
		merged, err := unionGraphs(results)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(merged.Triples))
		for i, tr := range merged.Triples {
			got[i] = tripleKeyOracle(tr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: merged graph is not the canonical deduplicated union (%d vs %d triples)", trial, len(got), len(want))
		}
	}
	if _, err := unionGraphs([]*sparql.Results{nil, nil}); err == nil {
		t.Error("union of no shard results succeeded")
	}
}

// BenchmarkGatherAssemble measures the coordinator-side assemble step
// at the federated workload's scale: ~16k triples over 3 shards, every
// shard also re-sending a slice of its neighbour's.
func BenchmarkGatherAssemble(b *testing.B) {
	const shards, perShard = 3, 5400
	iri := func(format string, a ...any) rdf.Term { return rdf.NewIRI("http://t/" + fmt.Sprintf(format, a...)) }
	shardTriples := make([][]rdf.Triple, shards)
	for i := range shardTriples {
		for k := 0; k < perShard; k++ {
			obs := iri("obs/%d", (i*perShard+k)/3)
			var tr rdf.Triple
			switch k % 3 {
			case 0:
				tr = rdf.Triple{S: obs, P: iri("dim"), O: iri("member/%d", k%97)}
			case 1:
				tr = rdf.Triple{S: obs, P: iri("value"), O: rdf.NewInteger(int64(k % 1000))}
			default:
				tr = rdf.Triple{S: iri("member/%d", k%97), P: iri("label"), O: rdf.NewLangString(fmt.Sprintf("member %d", k%97), "en")}
			}
			shardTriples[i] = append(shardTriples[i], tr)
		}
	}
	for i := range shardTriples {
		next := shardTriples[(i+1)%shards]
		shardTriples[i] = append(shardTriples[i], next[:perShard/20]...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := assemble(shardTriples)
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() == 0 {
			b.Fatal("empty gather store")
		}
	}
}
