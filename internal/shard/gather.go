package shard

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/par"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// The gather plan is the exact fallback: fetch every triple any of
// the query's patterns could match from every shard, rebuild them in
// a local store, and run the original query there. It trades transfer
// volume for full generality — cross-shard joins, transitive
// closures, subselects, NOT EXISTS negation, and non-decomposable
// aggregates all evaluate with single-node semantics. Determinism
// holds because the gathered triple set is the union over shards
// (topology-independent) and the local store's dictionary is numbered
// from the canonically sorted set alone (see assembleGather), so the
// local store — and therefore the engine's output — is identical on
// every topology.

// fetchSpec is one triple-access pattern to pull from the shards.
type fetchSpec struct {
	query string // serialized fetch query (SELECT, or ASK when no vars)
	ask   bool
	// cols maps triple positions S,P,O to result columns; -1 means the
	// position is the constant in tp.
	cols [3]int
	tp   sparql.TriplePattern
}

// collectFetchSpecs walks the query and returns one deduplicated
// fetchSpec per distinct access pattern. Closure patterns fetch every
// edge of their predicate: intermediate hops are unrestricted, so the
// whole relation must be local before the closure runs.
func collectFetchSpecs(q *sparql.Query) []fetchSpec {
	var pats []sparql.TriplePattern
	addClosure := func(cp sparql.ClosurePattern) {
		pats = append(pats, sparql.TriplePattern{
			S: sparql.NewVarNode("s"),
			P: sparql.NewTermNode(cp.Pred),
			O: sparql.NewVarNode("o"),
		})
	}
	var fromExpr func(sparql.Expr)
	fromExpr = func(e sparql.Expr) {
		walkExists(e, func(x sparql.ExistsExpr) {
			pats = append(pats, x.Patterns...)
			for _, f := range x.Filters {
				fromExpr(f)
			}
		})
	}
	var fromQuery func(*sparql.Query)
	var fromElems func([]sparql.PatternElement)
	fromElems = func(es []sparql.PatternElement) {
		for _, e := range es {
			switch el := e.(type) {
			case sparql.TriplePattern:
				pats = append(pats, el)
			case sparql.ClosurePattern:
				addClosure(el)
			case sparql.OptionalElement:
				pats = append(pats, el.Patterns...)
				for _, f := range el.Filters {
					fromExpr(f)
				}
			case sparql.UnionElement:
				for _, br := range el.Branches {
					fromElems(br)
				}
			case sparql.FilterElement:
				fromExpr(el.Expr)
			case sparql.BindElement:
				fromExpr(el.Expr)
			case sparql.SubSelectElement:
				fromQuery(el.Query)
			}
		}
	}
	fromQuery = func(q *sparql.Query) {
		fromElems(q.Where)
		for _, h := range q.Having {
			fromExpr(h)
		}
		for _, it := range q.Select {
			if it.Expr != nil {
				fromExpr(it.Expr)
			}
		}
		for _, o := range q.OrderBy {
			fromExpr(o.Expr)
		}
	}
	fromQuery(q)

	seen := map[string]struct{}{}
	var specs []fetchSpec
	for _, tp := range pats {
		spec := buildFetchSpec(tp)
		if _, dup := seen[spec.query]; dup {
			continue
		}
		seen[spec.query] = struct{}{}
		specs = append(specs, spec)
	}
	return dropSubsumedSpecs(specs)
}

// dropSubsumedSpecs removes fetch specs whose triples another spec
// already loads in full. A full-relation fetch (?s <p> ?o, distinct
// variables — what a closure pattern over <p> adds) pulls every
// triple of that predicate, so a narrower fetch of the same predicate
// (constant subject or object, or repeated variable) would only
// re-transfer a subset; the unrestricted ?s ?p ?o fetch subsumes
// everything. Dropping subsumed specs cannot change the gathered
// store — their triples are a subset of what the covering spec loads
// — so determinism is untouched and duplicate transfer goes away.
func dropSubsumedSpecs(specs []fetchSpec) []fetchSpec {
	isFullRel := func(s fetchSpec) bool {
		return s.cols[1] < 0 && s.cols[0] >= 0 && s.cols[2] >= 0 && s.cols[0] != s.cols[2]
	}
	isAllVar := func(s fetchSpec) bool {
		return s.cols[0] >= 0 && s.cols[1] >= 0 && s.cols[2] >= 0
	}
	all := false
	full := map[string]bool{}
	for _, s := range specs {
		if isAllVar(s) {
			all = true
		} else if isFullRel(s) {
			full[s.tp.P.Term.String()] = true
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
		case s.cols[1] < 0 && full[s.tp.P.Term.String()] && !isFullRel(s):
			// Subsumed by the full-relation fetch of the same predicate.
		default:
			kept = append(kept, s)
		}
	}
	return kept
}

// buildFetchSpec normalizes a pattern's variables positionally (a
// repeated variable keeps its join constraint; the original names are
// irrelevant to what the pattern fetches, so normalizing makes the
// dedup key structural) and builds the shard fetch query.
func buildFetchSpec(tp sparql.TriplePattern) fetchSpec {
	rename := map[string]string{}
	var sel []string
	norm := func(n sparql.Node) sparql.Node {
		if !n.IsVar {
			return n
		}
		g, ok := rename[n.Var]
		if !ok {
			g = fmt.Sprintf("g%d", len(rename))
			rename[n.Var] = g
			sel = append(sel, g)
		}
		return sparql.NewVarNode(g)
	}
	var spec fetchSpec
	spec.tp = sparql.TriplePattern{S: norm(tp.S), P: norm(tp.P), O: norm(tp.O)}
	colOf := func(n sparql.Node) int {
		if !n.IsVar {
			return -1
		}
		for i, g := range sel {
			if g == n.Var {
				return i
			}
		}
		return -1
	}
	spec.cols = [3]int{colOf(spec.tp.S), colOf(spec.tp.P), colOf(spec.tp.O)}

	fq := &sparql.Query{
		Where: []sparql.PatternElement{spec.tp},
		Limit: -1,
	}
	if len(sel) == 0 {
		// All positions concrete: existence check.
		fq.Ask = true
		spec.ask = true
	} else {
		// No DISTINCT: a shard's store is a set and the pattern's
		// projection onto all of its variables is injective over the
		// matching triples, so the rows are already distinct — and the
		// coordinator dedupes the union across shards anyway.
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
	ids     map[rdf.Term]uint32
	terms   []rdf.Term
	triples [][3]uint32
}

func newGatherPart() *gatherPart {
	return &gatherPart{ids: map[rdf.Term]uint32{}}
}

func (p *gatherPart) intern(t rdf.Term) uint32 {
	id, ok := p.ids[t]
	if !ok {
		id = uint32(len(p.terms))
		p.ids[t] = id
		p.terms = append(p.terms, t)
	}
	return id
}

func (p *gatherPart) add(t rdf.Triple) {
	p.triples = append(p.triples, [3]uint32{p.intern(t.S), p.intern(t.P), p.intern(t.O)})
}

// collect appends the triples a shard reported for this fetch pattern
// to p and returns how many there were.
func (f fetchSpec) collect(res *sparql.Results, p *gatherPart) int {
	if f.ask {
		if !res.Boolean {
			return 0
		}
		p.add(rdf.Triple{S: f.tp.S.Term, P: f.tp.P.Term, O: f.tp.O.Term})
		return 1
	}
	// Constant positions are interned once, not once per row.
	var fixed [3]uint32
	for pos, n := range [3]sparql.Node{f.tp.S, f.tp.P, f.tp.O} {
		if f.cols[pos] < 0 {
			fixed[pos] = p.intern(n.Term)
		}
	}
	before := len(p.triples)
	p.triples = slices.Grow(p.triples, len(res.Rows))
rows:
	for _, r := range res.Rows {
		t := fixed
		for pos, col := range f.cols {
			if col < 0 {
				continue
			}
			if col >= len(r) || !sparql.Bound(r[col]) {
				continue rows
			}
			t[pos] = p.intern(r[col])
		}
		p.triples = append(p.triples, t)
	}
	return len(p.triples) - before
}

// runGather executes the gather plan: scatter the fetch queries,
// assemble the union of the shard contributions into a local store,
// and run the original query there. Each fetch routes through its
// shard's replica set, so every fetch individually fails over — a
// shard only counts as failed when a fetch exhausts its replicas.
func (c *Coordinator) runGather(ctx context.Context, v *view, q *sparql.Query, step string) (*sparql.Results, []obs.ShardCall, []int, error) {
	specs := collectFetchSpecs(q)
	scatterStart := time.Now()
	n := len(v.groups)
	parts := make([]*gatherPart, n)
	calls := make([]obs.ShardCall, n)
	errs := make([]error, n)
	span := obs.SpanFrom(ctx)
	_ = par.Do(c.workersFor(n), n, func(i int) error {
		g := v.groups[i]
		sp := span.Start(fmt.Sprintf("shard-%d", i))
		defer sp.End()
		shardStart := time.Now()
		// A shard's fetches are independent, so they go out together: a
		// remote shard costs its slowest fetch, not the sum of them.
		outs := make([]groupResult, len(specs))
		_ = par.Do(c.workersFor(len(specs)), len(specs), func(k int) error {
			c.m.scatterStart()
			callStart := time.Now()
			outs[k] = g.query(ctx, endpoint.Request{
				Query: specs[k].query,
				Opts:  endpoint.QueryOpts{Step: step, Span: sp},
			}, c.cfg.HedgeAfter)
			c.m.scatterEnd()
			g.shardCallMetrics(time.Since(callStart), outs[k].err)
			return nil
		})
		// One ShardCall summarizes all fetch queries against shard i,
		// folded in spec order so it does not depend on which fetch
		// finished first: rows are the triples the shard contributed,
		// attempts/retries/failovers sum over the fetches, replica is the
		// last spec's winner, error the first spec's that failed.
		call := &calls[i]
		call.Shard = i
		part := newGatherPart()
		for k, out := range outs {
			call.Attempts += out.attempts
			call.Retries += out.retries
			call.Failovers += out.failovers
			call.Replica = out.replica
			if errs[i] != nil {
				continue
			}
			if out.err != nil {
				sp.SetAttr("error", out.err.Error())
				call.Error = out.err.Error()
				errs[i] = out.err
				continue
			}
			call.Rows += specs[k].collect(out.res, part)
		}
		if errs[i] == nil {
			parts[i] = part
		}
		call.WallMS = float64(time.Since(shardStart)) / float64(time.Millisecond)
		sp.SetAttr("rows", fmt.Sprint(call.Rows))
		return nil
	})
	c.m.phase("scatter", time.Since(scatterStart))

	var firstErr error
	var skipped []int
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			skipped = append(skipped, i)
			calls[i].Skipped = true
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", i, errs[i])
			}
		}
	}
	if len(skipped) > 0 {
		if !c.cfg.Degraded || len(skipped) == n {
			return nil, calls, nil, firstErr
		}
		c.m.degraded(len(skipped))
	}
	if err := ctx.Err(); err != nil {
		return nil, calls, nil, err
	}

	mergeStart := time.Now()
	local, err := assembleGather(parts)
	c.m.phase("merge", time.Since(mergeStart))
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
	res, err := eng.QueryContext(ctx, q)
	c.m.phase("finalize", time.Since(finStart))
	if err != nil {
		return nil, calls, nil, err
	}
	return res, calls, skipped, nil
}

// absorb unions q into p, re-interning q's distinct terms (not its
// triples) and remapping its triples through the result.
func (p *gatherPart) absorb(q *gatherPart) {
	remap := make([]uint32, len(q.terms))
	for i, t := range q.terms {
		remap[i] = p.intern(t)
	}
	p.triples = slices.Grow(p.triples, len(q.triples))
	for _, t := range q.triples {
		p.triples = append(p.triples, [3]uint32{remap[t[0]], remap[t[1]], remap[t[2]]})
	}
}

// canonical returns p's terms in canonical order — by N-Triples
// rendering, each rendered once — and p's triples re-expressed as
// indexes into that order, sorted and deduplicated. Sorting the index
// triples component-wise orders them exactly as sorting on the
// concatenated "S\x00P\x00O" renderings would: NUL sorts before any
// byte of a rendering, so a term that is a strict prefix of another
// comes first either way. p is consumed.
func (p *gatherPart) canonical() ([]rdf.Term, [][3]uint32) {
	keys := make([]string, len(p.terms))
	order := make([]uint32, len(p.terms))
	for i, t := range p.terms {
		keys[i] = t.String()
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		if c := strings.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		// "x" and "x"^^xsd:string render alike but are distinct terms.
		return strings.Compare(p.terms[a].Datatype, p.terms[b].Datatype)
	})
	rank := make([]uint32, len(order))
	terms := make([]rdf.Term, len(order))
	for r, i := range order {
		rank[i] = uint32(r)
		terms[r] = p.terms[i]
	}
	for i, t := range p.triples {
		p.triples[i] = [3]uint32{rank[t[0]], rank[t[1]], rank[t[2]]}
	}
	slices.SortFunc(p.triples, func(a, b [3]uint32) int {
		for i := range a {
			if a[i] != b[i] {
				return cmp.Compare(a[i], b[i])
			}
		}
		return 0
	})
	return terms, slices.Compact(p.triples)
}

// assembleGather unions the shard contributions (nil slots are
// degraded-mode skips) and builds the local store. Dictionary IDs are
// handed out in first-appearance order over the canonically sorted
// triples — what loading them one by one into an empty store assigns —
// so the dictionary, and with it every order the engine derives from
// IDs, is a function of the triple set alone: which shard a triple
// came from, how many shards there are and in which order their
// answers arrived cannot change a byte of the answer.
func assembleGather(parts []*gatherPart) (*store.Store, error) {
	all := newGatherPart()
	for _, p := range parts {
		switch {
		case p == nil:
		case len(all.terms) == 0:
			all = p // adopt the first live part as is: nothing to remap
		default:
			all.absorb(p)
		}
	}
	terms, triples := all.canonical()
	ids := make([]store.ID, len(terms))
	dict := make([]rdf.Term, 0, len(terms))
	enc := make([][3]store.ID, len(triples))
	for i, t := range triples {
		for pos, r := range t {
			if ids[r] == 0 {
				dict = append(dict, terms[r])
				ids[r] = store.ID(len(dict))
			}
			enc[i][pos] = ids[r]
		}
	}
	return store.Build(dict, enc)
}
