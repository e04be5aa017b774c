package shard

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// The gather plan is the exact fallback: fetch from every shard the
// triples any of the query's patterns could use, rebuild them in a
// local store, and run the original query there. It trades transfer
// volume for full generality — cross-shard joins, transitive
// closures, subselects, NOT EXISTS negation, and non-decomposable
// aggregates all evaluate with single-node semantics. Determinism
// holds because the gathered triple set is the union over shards
// (topology-independent) and the local store's dictionary is numbered
// from the canonically sorted set alone (see assembleGather), so the
// local store — and therefore the engine's output — is identical on
// every topology.

// fetchSpec is one fetch query and how its rows become triples: a
// single pattern, or a subject star (see starGroups) whose rows each
// expand into one triple per pattern.
type fetchSpec struct {
	query string // serialized fetch query (SELECT, or ASK when no vars)
	ask   bool
	// pats are the fetched patterns over normalized variables; cols[i]
	// maps pats[i]'s positions S,P,O to result columns, -1 where the
	// position is the constant in pats[i].
	pats []sparql.TriplePattern
	cols [][3]int
}

// collectFetchSpecs walks the query and returns one deduplicated
// fetchSpec per distinct access pattern: one per top-level subject
// star (see starGroups; functional lists the predicates known to have
// at most one object per subject), one per remaining pattern. Closure
// patterns fetch every edge of their predicate: intermediate hops are
// unrestricted, so the whole relation must be local before the closure
// runs.
func collectFetchSpecs(q *sparql.Query, functional map[rdf.Term]bool) []fetchSpec {
	stars, pats := starGroups(q.Where, functional)
	sparql.WalkPatterns(q, func(el sparql.PatternElement, top bool) {
		switch el := el.(type) {
		case sparql.TriplePattern:
			if !top { // top-level patterns came from starGroups
				pats = append(pats, el)
			}
		case sparql.ClosurePattern:
			pats = append(pats, sparql.TriplePattern{
				S: sparql.NewVarNode("s"),
				P: sparql.NewTermNode(el.Pred),
				O: sparql.NewVarNode("o"),
			})
		}
	})

	seen := map[string]struct{}{}
	var specs []fetchSpec
	add := func(spec fetchSpec) {
		if _, dup := seen[spec.query]; !dup {
			seen[spec.query] = struct{}{}
			specs = append(specs, spec)
		}
	}
	for _, star := range stars {
		add(buildFetchSpec(star...))
	}
	for _, tp := range pats {
		add(buildFetchSpec(tp))
	}
	return dropSubsumedSpecs(specs)
}

// starGroups splits the top-level triple patterns of a WHERE clause
// into subject stars and the patterns left over. A pattern can join a
// star when it matches at most one triple per subject: its predicate
// is a constant, and its object is a constant too or the predicate is
// in functional. Two or more such patterns on one subject node, in
// first-appearance order, make a star, fetched as one query whose rows
// are its solutions. So a star ships at most one row per subject that
// matches it — never more rows than the fetch of any one of its
// patterns would — instead of one row per pattern. It is exact:
// subject colocation computes every star row on one shard, so the
// union over shards is the star's full solution set whatever the
// topology, and every triple a solution of the query can bind to a
// star pattern is in some star row, because every solution matches
// the whole star. Patterns elsewhere (OPTIONAL, UNION, EXISTS,
// subselects, closures) are not required by every solution and keep
// their own fetches, as do patterns that may match several triples
// per subject and an all-variable pattern, whose fetch subsumes
// everything (see dropSubsumedSpecs).
func starGroups(where []sparql.PatternElement, functional map[rdf.Term]bool) (stars [][]sparql.TriplePattern, rest []sparql.TriplePattern) {
	bySubject := map[sparql.Node]int{}
	var groups [][]sparql.TriplePattern
	for _, e := range where {
		tp, ok := e.(sparql.TriplePattern)
		if !ok {
			continue
		}
		if tp.P.IsVar || (tp.O.IsVar && !functional[tp.P.Term]) {
			rest = append(rest, tp)
			continue
		}
		i, ok := bySubject[tp.S]
		if !ok {
			i = len(groups)
			bySubject[tp.S] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], tp)
	}
	for _, g := range groups {
		if len(g) >= 2 {
			stars = append(stars, g)
		} else {
			rest = append(rest, g...)
		}
	}
	return stars, rest
}

// starPredicates lists the predicates whose functionality decides the
// stars of a WHERE clause: those of top-level patterns with a constant
// predicate and a variable object, on a subject node with at least one
// other constant-predicate pattern. Without such a partner no star can
// form, so nothing needs to be known.
func starPredicates(where []sparql.PatternElement) []rdf.Term {
	perSubject := map[sparql.Node]int{}
	for _, e := range where {
		if tp, ok := e.(sparql.TriplePattern); ok && !tp.P.IsVar {
			perSubject[tp.S]++
		}
	}
	var preds []rdf.Term
	for _, e := range where {
		if tp, ok := e.(sparql.TriplePattern); ok && !tp.P.IsVar && tp.O.IsVar &&
			perSubject[tp.S] >= 2 && !slices.Contains(preds, tp.P.Term) {
			preds = append(preds, tp.P.Term)
		}
	}
	return preds
}

// predicateFacts remembers, for one data generation (see
// Coordinator.Generation), which predicates have at most one object
// per subject in the data.
type predicateFacts struct {
	mu         sync.Mutex
	gen        uint64
	functional map[rdf.Term]bool
}

// functionalPredicates reports which of preds have at most one object
// per subject, asking the shards the first time a predicate comes up
// in a data generation: each shard counts, per predicate, its triples
// and its distinct subjects, and subject colocation puts every triple
// of a subject on one shard, so a predicate is functional when the two
// counts agree on every shard. The answer depends on the data alone,
// never on which queries ran before, so neither does the gathered
// store. When a shard cannot answer, the predicates asked about count
// as not functional for this query and nothing is remembered.
func (c *Coordinator) functionalPredicates(ctx context.Context, v *view, preds []rdf.Term, step string) map[rdf.Term]bool {
	if len(preds) == 0 {
		return nil
	}
	gen := c.Generation()
	f := &c.facts
	known := make(map[rdf.Term]bool, len(preds))
	var ask []string
	f.mu.Lock()
	if f.gen != gen || f.functional == nil {
		f.gen, f.functional = gen, map[rdf.Term]bool{}
	}
	for _, p := range preds {
		if fn, ok := f.functional[p]; ok {
			known[p] = fn
		} else {
			ask = append(ask, p.String())
		}
	}
	f.mu.Unlock()
	if len(ask) == 0 {
		return known
	}
	query := "SELECT ?p (COUNT(?s) AS ?n) (COUNT(DISTINCT ?s) AS ?d) WHERE { VALUES ?p { " +
		strings.Join(ask, " ") + " } ?s ?p ?o } GROUP BY ?p"
	// The check's calls count in the shard metrics but are not the
	// query's own, so they fold into a ShardCall slice of their own.
	n := len(v.groups)
	errs := make([]error, n)
	var mu sync.Mutex
	multi := map[rdf.Term]bool{}
	c.scatter(ctx, v, step, []string{query}, make([]obs.ShardCall, n), errs, func(_ int, answers []*sparql.Results) error {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range answers[0].Rows {
			if len(r) == 3 && r[1] != r[2] {
				multi[r[0]] = true
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return known
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	remember := f.gen == gen && c.Generation() == gen
	for _, p := range preds {
		if _, ok := known[p]; !ok {
			known[p] = !multi[p]
			if remember {
				f.functional[p] = !multi[p]
			}
		}
	}
	return known
}

// isAllVarPattern reports whether tp is ?s ?p ?o over three distinct
// variables: it matches every triple of the store.
func isAllVarPattern(tp sparql.TriplePattern) bool {
	return tp.S.IsVar && tp.P.IsVar && tp.O.IsVar &&
		tp.S.Var != tp.P.Var && tp.S.Var != tp.O.Var && tp.P.Var != tp.O.Var
}

// dropSubsumedSpecs removes fetch specs whose triples another spec
// already loads in full. A full-relation fetch (?s <p> ?o, distinct
// variables — what a closure pattern over <p> adds) pulls every
// triple of that predicate, so a narrower single-pattern fetch of the
// same predicate (constant subject or object, or repeated variable)
// would only re-transfer a subset; the unrestricted ?s ?p ?o fetch
// subsumes everything, stars included. Dropping subsumed specs cannot
// change the gathered store — their triples are a subset of what the
// covering spec loads — so determinism is untouched and duplicate
// transfer goes away.
func dropSubsumedSpecs(specs []fetchSpec) []fetchSpec {
	single := func(s fetchSpec) bool { return len(s.pats) == 1 }
	isFullRel := func(s fetchSpec) bool {
		c := s.cols[0]
		return single(s) && c[1] < 0 && c[0] >= 0 && c[2] >= 0 && c[0] != c[2]
	}
	isAllVar := func(s fetchSpec) bool { return single(s) && isAllVarPattern(s.pats[0]) }
	all := false
	full := map[rdf.Term]bool{}
	for _, s := range specs {
		if isAllVar(s) {
			all = true
		} else if isFullRel(s) {
			full[s.pats[0].P.Term] = true
		}
	}
	if !all && len(full) == 0 {
		return specs
	}
	kept := specs[:0]
	for _, s := range specs {
		switch {
		case isAllVar(s):
			kept = append(kept, s)
		case all:
			// Subsumed by the unrestricted fetch.
		case single(s) && s.cols[0][1] < 0 && full[s.pats[0].P.Term] && !isFullRel(s):
			// Subsumed by the full-relation fetch of the same predicate.
		default:
			kept = append(kept, s)
		}
	}
	return kept
}

// buildFetchSpec normalizes the patterns' variables in order of
// appearance (a repeated variable keeps its join constraint; the
// original names are irrelevant to what the patterns fetch, so
// normalizing makes the dedup key structural) and builds the shard
// fetch query over all of them.
func buildFetchSpec(pats ...sparql.TriplePattern) fetchSpec {
	col := map[string]int{}
	var sel []string
	norm := func(n sparql.Node) (sparql.Node, int) {
		if !n.IsVar {
			return n, -1
		}
		c, ok := col[n.Var]
		if !ok {
			c = len(sel)
			col[n.Var] = c
			sel = append(sel, fmt.Sprintf("g%d", c))
		}
		return sparql.NewVarNode(sel[c]), c
	}
	spec := fetchSpec{pats: make([]sparql.TriplePattern, len(pats)), cols: make([][3]int, len(pats))}
	fq := &sparql.Query{Limit: -1}
	for i, tp := range pats {
		var nodes [3]sparql.Node
		for pos, n := range [3]sparql.Node{tp.S, tp.P, tp.O} {
			nodes[pos], spec.cols[i][pos] = norm(n)
		}
		spec.pats[i] = sparql.TriplePattern{S: nodes[0], P: nodes[1], O: nodes[2]}
		fq.Where = append(fq.Where, spec.pats[i])
	}
	if len(sel) == 0 {
		// All positions concrete: existence check.
		fq.Ask = true
		spec.ask = true
	} else {
		// No DISTINCT: a shard's store is a set, so a single pattern's
		// projection onto all of its variables never repeats a row, and
		// a star's rows are its solutions, distinct and enumerated by
		// the shard anyway — the coordinator dedupes triples across
		// rows and shards.
		for _, g := range sel {
			fq.Select = append(fq.Select, sparql.SelectItem{Var: g})
		}
	}
	spec.query = fq.String()
	return spec
}

// gatherPart is a set of gathered triples in ID space: a term table
// and triples whose components index into it. Each shard's fetch task
// fills its own, so a term is hashed where its row arrives and every
// later step — union, dedupe, sort, store build — moves integers.
type gatherPart struct {
	ids     map[rdf.Term]store.ID
	terms   []rdf.Term
	triples [][3]store.ID
}

// newGatherPart returns a part presized for terms distinct terms and
// triples triples; filling it within those sizes never grows it.
func newGatherPart(terms, triples int) *gatherPart {
	return &gatherPart{
		ids:     make(map[rdf.Term]store.ID, terms),
		terms:   make([]rdf.Term, 0, terms),
		triples: make([][3]store.ID, 0, triples),
	}
}

func (p *gatherPart) intern(t rdf.Term) store.ID {
	id, ok := p.ids[t]
	if !ok {
		id = store.ID(len(p.terms))
		p.ids[t] = id
		p.terms = append(p.terms, t)
	}
	return id
}

func (p *gatherPart) add(t rdf.Triple) {
	p.triples = append(p.triples, [3]store.ID{p.intern(t.S), p.intern(t.P), p.intern(t.O)})
}

// collect appends the triples a shard's answer to this fetch stands
// for to p — one per pattern per row — and returns how many rows the
// shard shipped (an ASK that holds counts as one).
func (f fetchSpec) collect(res *sparql.Results, p *gatherPart) int {
	if f.ask {
		if !res.Boolean {
			return 0
		}
		for _, tp := range f.pats {
			p.add(rdf.Triple{S: tp.S.Term, P: tp.P.Term, O: tp.O.Term})
		}
		return 1
	}
	// Constant positions are interned once, not once per row.
	fixed := make([][3]store.ID, len(f.pats))
	for i, tp := range f.pats {
		for pos, n := range [3]sparql.Node{tp.S, tp.P, tp.O} {
			if f.cols[i][pos] < 0 {
				fixed[i][pos] = p.intern(n.Term)
			}
		}
	}
	// A row's cells are interned once each, however many of its
	// patterns use them.
	width := 0
	for _, c := range f.cols {
		width = max(width, c[0]+1, c[1]+1, c[2]+1)
	}
	cells := make([]store.ID, width)
rows:
	for _, r := range res.Rows {
		if len(r) < width {
			continue
		}
		for c := range cells {
			if !sparql.Bound(r[c]) {
				continue rows
			}
			cells[c] = p.intern(r[c])
		}
		for i, cols := range f.cols {
			t := fixed[i]
			for pos, c := range cols {
				if c >= 0 {
					t[pos] = cells[c]
				}
			}
			p.triples = append(p.triples, t)
		}
	}
	return len(res.Rows)
}

// runGather executes the gather plan: scatter the fetch queries in
// one round, assemble the union of the shard contributions into a
// local store once the verdict lets the answer stand, and run the
// original query there. Each fetch routes through its shard's replica
// set, so every fetch individually fails over — a shard only counts
// as failed when a fetch exhausts its replicas, and then none of its
// fetches are gathered.
func (c *Coordinator) runGather(ctx context.Context, v *view, q *sparql.Query, step string) (*sparql.Results, []obs.ShardCall, []int, error) {
	specs := collectFetchSpecs(q, c.functionalPredicates(ctx, v, starPredicates(q.Where), step))
	queries := make([]string, len(specs))
	for k, spec := range specs {
		queries[k] = spec.query
	}
	n := len(v.groups)
	parts := make([]*gatherPart, n)
	calls := make([]obs.ShardCall, n)
	errs := make([]error, n)
	c.scatter(ctx, v, step, queries, calls, errs, func(i int, answers []*sparql.Results) error {
		// Size the part from the rows that arrived: a row mostly brings
		// a new term (a star row its subject), and each row stands for
		// one triple per fetched pattern.
		rows, triples := 0, 0
		for k, res := range answers {
			rows += len(res.Rows)
			triples += len(res.Rows) * len(specs[k].pats)
		}
		parts[i] = newGatherPart(rows, triples)
		for k, res := range answers {
			specs[k].collect(res, parts[i])
		}
		return nil
	})
	skipped, err := c.settle(calls, errs)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, calls, nil, err
	}

	mergeStart := time.Now()
	local, err := assembleGather(parts)
	c.m.mergePhase["merge"].ObserveDuration(time.Since(mergeStart))
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, calls, nil, err
	}

	finStart := time.Now()
	eng := sparql.NewEngine(local)
	if c.cfg.Workers > 0 {
		eng.Exec.Workers = c.cfg.Workers
	}
	// Which triples beyond the solutions' own the fetches bring along
	// steers the local engine's join order, and with it the order of
	// rows no ORDER BY fixes. Such an answer is put in canonical order,
	// as colocated merges are, with LIMIT and OFFSET applied after it,
	// so it is a function of the query's solutions alone.
	unordered := len(q.OrderBy) == 0 && !q.Ask && q.Construct == nil
	lq := q
	if unordered {
		lq = stripModifiers(q)
	}
	res, err := eng.QueryContext(ctx, lq)
	if err == nil && unordered {
		fq := *q
		fq.Distinct = false // the engine already deduplicated
		sparql.MergeFinalize(&fq, res)
	}
	c.m.mergePhase["finalize"].ObserveDuration(time.Since(finStart))
	if err != nil {
		return nil, calls, nil, err
	}
	return res, calls, skipped, nil
}

// absorb unions q into p, re-interning q's distinct terms (not its
// triples) and remapping its triples through the result.
func (p *gatherPart) absorb(q *gatherPart) {
	remap := make([]store.ID, len(q.terms))
	for i, t := range q.terms {
		remap[i] = p.intern(t)
	}
	for _, t := range q.triples {
		p.triples = append(p.triples, [3]store.ID{remap[t[0]], remap[t[1]], remap[t[2]]})
	}
}

// canonical returns p's terms in canonical order — by N-Triples
// rendering, each rendered once — and p's triples re-expressed as
// indexes into that order, sorted and deduplicated. Sorting the index
// triples component-wise orders them exactly as sorting on the
// concatenated "S\x00P\x00O" renderings would: NUL sorts before any
// byte of a rendering, so a term that is a strict prefix of another
// comes first either way. p is consumed.
func (p *gatherPart) canonical() ([]rdf.Term, [][3]store.ID) {
	keys := make([]string, len(p.terms))
	order := make([]store.ID, len(p.terms))
	for i, t := range p.terms {
		keys[i] = t.String()
		order[i] = store.ID(i)
	}
	slices.SortFunc(order, func(a, b store.ID) int {
		if c := strings.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		// "x" and "x"^^xsd:string render alike but are distinct terms.
		return strings.Compare(p.terms[a].Datatype, p.terms[b].Datatype)
	})
	rank := make([]store.ID, len(order))
	terms := make([]rdf.Term, len(order))
	for r, i := range order {
		rank[i] = store.ID(r)
		terms[r] = p.terms[i]
	}
	for i, t := range p.triples {
		p.triples[i] = [3]store.ID{rank[t[0]], rank[t[1]], rank[t[2]]}
	}
	return terms, store.SortTriples(p.triples)
}

// assembleGather unions the shard contributions (nil slots are
// degraded-mode skips) into one term table sized from their total,
// and builds the local store. Dictionary IDs are handed out in
// first-appearance order over the canonically sorted triples — what
// loading them one by one into an empty store assigns — so the
// dictionary, and with it every order the engine derives from IDs, is
// a function of the triple set alone: which shard a triple came from,
// how many shards there are and in which order their answers arrived
// cannot change a byte of the answer.
func assembleGather(parts []*gatherPart) (*store.Store, error) {
	terms, triples, live := 0, 0, 0
	var all *gatherPart
	for _, p := range parts {
		if p != nil {
			terms += len(p.terms)
			triples += len(p.triples)
			live++
			all = p
		}
	}
	if live != 1 { // a single live part is the union already
		all = newGatherPart(terms, triples)
		for _, p := range parts {
			if p != nil {
				all.absorb(p)
			}
		}
	}
	canon, ranked := all.canonical()
	ids := make([]store.ID, len(canon))
	dict := make([]rdf.Term, 0, len(canon))
	for i, t := range ranked {
		for pos, r := range t {
			if ids[r] == 0 {
				dict = append(dict, canon[r])
				ids[r] = store.ID(len(dict))
			}
			ranked[i][pos] = ids[r]
		}
	}
	return store.Build(dict, ranked)
}
