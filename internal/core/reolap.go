package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/par"
	"re2xolap/internal/qb"
	"re2xolap/internal/rdf"
	"re2xolap/internal/vgraph"
)

const (
	// maxCandidates caps how many members a single keyword may resolve
	// to before the search is truncated.
	maxCandidates = 1000
	// maxCombinations caps the interpretation combinations explored.
	maxCombinations = 5000
)

// Engine runs ReOLAP query synthesis against a SPARQL endpoint, using a
// bootstrapped virtual schema graph for all structural decisions.
type Engine struct {
	Client endpoint.Client
	Graph  *vgraph.Graph
	Config qb.Config

	// DisableMatchCache turns off the keyword-match LRU (used by the
	// ablation benchmarks).
	DisableMatchCache bool
	// Workers bounds the concurrent endpoint queries SynthesizeAll may
	// have in flight for matching and combination validation. 0 means
	// GOMAXPROCS; 1 selects the sequential baseline. The pool composes
	// with a resilient client's MaxInFlight limiter without deadlock:
	// the limiter slot is acquired per query and released when the
	// query returns, so a pool larger than the limiter merely queues.
	Workers int

	cache *matchCache
	steps *stepMetrics // per-step query series; nil without Instrument

	// classPattern ("?o a <class> . ") opens every membership ASK and
	// witness; levelPaths[id] ("?o <path> ") is level id's pattern in
	// them, which the member or variable completes.
	classPattern string
	levelPaths   []string

	// skipped counts interpretation combinations dropped because their
	// validation query failed transiently (see SkippedCombinations).
	skipped atomic.Int64
}

// NewEngine returns a synthesis engine over the given endpoint and
// virtual graph.
func NewEngine(c endpoint.Client, g *vgraph.Graph, cfg qb.Config) *Engine {
	e := &Engine{
		Client: c,
		Graph:  g,
		Config: cfg.WithDefaults(),
		cache:  newMatchCache(256),
	}
	e.classPattern = "?o a <" + e.Config.ObservationClass + "> . "
	if g != nil {
		e.levelPaths = make([]string, len(g.Levels))
		for _, l := range g.Levels {
			e.levelPaths[l.ID] = "?o " + pathExpr(l.Path) + " "
		}
	}
	return e
}

// SkippedCombinations returns how many interpretation combinations
// were dropped across all Synthesize calls because their validation
// query failed transiently (endpoint flaking mid-synthesis). A
// non-zero value means candidate lists may be incomplete.
func (e *Engine) SkippedCombinations() int64 { return e.skipped.Load() }

// InvalidateCache drops cached keyword matches; call after the
// underlying data changes (e.g. together with vgraph.Refresh).
func (e *Engine) InvalidateCache() {
	if e.cache != nil {
		e.cache.purge()
	}
}

// MatchItem resolves one example item to its possible interpretations
// (Algorithm 1, lines 2–5): dimension members at specific levels.
// Results are cached per item (LRU), since exploratory sessions
// re-resolve the same keywords repeatedly. Concurrent misses for the
// same key coalesce into a single endpoint resolution (single-flight):
// followers wait for the leader's result instead of issuing duplicate
// keyword searches.
func (e *Engine) MatchItem(ctx context.Context, item ExampleItem) ([]Match, error) {
	if e.DisableMatchCache || e.cache == nil {
		return e.matchItemUncached(ctx, item)
	}
	cacheKey := item.Keyword + "\x00" + item.IRI
	for {
		if ms, hit := e.cache.lru.Get(cacheKey); hit {
			return ms, nil
		}
		ms, led, err := e.cache.flights.Do(ctx, cacheKey, func() ([]Match, error) {
			// A leader that finished between this caller's miss and its
			// flight has already published: look again before querying.
			if ms, hit := e.cache.lru.Get(cacheKey); hit {
				return ms, nil
			}
			ms, err := e.matchItemUncached(ctx, item)
			if err == nil {
				e.cache.put(cacheKey, ms)
			}
			return ms, err
		})
		if err == nil || led {
			return ms, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// The leader failed — possibly transiently, possibly because its
		// own context was cancelled. Retry as leader rather than
		// propagating an error that was scoped to another caller.
	}
}

func (e *Engine) matchItemUncached(ctx context.Context, item ExampleItem) ([]Match, error) {
	type candidate struct {
		attribute, text string
	}
	cands := map[rdf.Term]candidate{}
	if item.IRI != "" {
		cands[rdf.NewIRI(item.IRI)] = candidate{}
	} else {
		kw := strings.ToLower(item.Keyword)
		if strings.TrimSpace(kw) == "" {
			return nil, fmt.Errorf("core: empty keyword in example item")
		}
		// Keyword resolution via the endpoint's full-text facilities
		// (the CONTAINS filter is index-accelerated by the store).
		q := fmt.Sprintf(
			`SELECT DISTINCT ?m ?q ?lit WHERE { ?m ?q ?lit . FILTER (ISLITERAL(?lit)) FILTER (CONTAINS(LCASE(STR(?lit)), %s)) FILTER (ISIRI(?m)) }`,
			rdf.NewString(kw))
		res, err := e.query(ctx, "keyword-search", q)
		if err != nil {
			return nil, fmt.Errorf("core: keyword search for %s: %w", item, err)
		}
		// Prefer exact (case-insensitive) matches: if the keyword equals
		// some attribute value verbatim, partial matches are noise
		// (e.g. "2014" must not also match the month "2014-01").
		exact := false
		for _, row := range res.Rows {
			if strings.EqualFold(row[2].Value, kw) {
				exact = true
				break
			}
		}
		for _, row := range res.Rows {
			if len(cands) >= maxCandidates {
				break
			}
			if exact && !strings.EqualFold(row[2].Value, kw) {
				continue
			}
			m := row[0]
			if _, dup := cands[m]; dup {
				continue
			}
			cands[m] = candidate{attribute: row[1].Value, text: row[2].Value}
		}
	}
	if len(cands) == 0 {
		return nil, nil
	}
	terms := make([]rdf.Term, 0, len(cands))
	for m := range cands {
		terms = append(terms, m)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].Value < terms[j].Value })

	var out []Match
	for _, l := range e.Graph.Levels {
		members, err := e.levelMembership(ctx, l, terms)
		if err != nil {
			return nil, err
		}
		for _, m := range members {
			c := cands[m]
			out = append(out, Match{Member: m, Level: l, Attribute: c.attribute, MatchedText: c.text})
		}
	}
	return out, nil
}

// levelMembership filters candidate terms down to those that are
// members of level l, with one early-exiting ASK per term (cost
// independent of the observation count).
func (e *Engine) levelMembership(ctx context.Context, l *vgraph.Level, terms []rdf.Term) ([]rdf.Term, error) {
	var out []rdf.Term
	for _, t := range terms {
		res, err := e.query(ctx, "membership-ask", "ASK { "+e.classPattern+e.levelPaths[l.ID]+t.String()+" . }")
		if err != nil {
			return nil, fmt.Errorf("core: membership check on level %s: %w", l, err)
		}
		if res.Boolean {
			out = append(out, t)
		}
	}
	return out, nil
}

// Candidate pairs a synthesized query with the interpretation that
// produced it, for presentation to the user.
type Candidate struct {
	Query *OLAPQuery
	// Matches holds, per example item, the interpretation used.
	Matches []Match

	// witnesses holds, per example tuple, the members the observation
	// witnessing it links, aligned with Query.Dims; the first tuple's
	// anchor the query example.
	witnesses [][]rdf.Term
}

// Synthesize implements Algorithm 1 for a single example tuple: it
// interprets each item, combines interpretations, builds a query per
// valid combination, and validates each against the endpoint.
func (e *Engine) Synthesize(ctx context.Context, t ExampleTuple) ([]Candidate, error) {
	return e.SynthesizeAll(ctx, []ExampleTuple{t})
}

// SynthesizeAll generalizes Synthesize to several example tuples: item
// i of every tuple must resolve at the same level, and every tuple must
// be witnessed by at least one observation.
func (e *Engine) SynthesizeAll(ctx context.Context, tuples []ExampleTuple) ([]Candidate, error) {
	if len(tuples) == 0 || len(tuples[0]) == 0 {
		return nil, fmt.Errorf("core: empty example")
	}
	k := len(tuples[0])
	for _, t := range tuples {
		if len(t) != k {
			return nil, fmt.Errorf("core: example tuples have differing arity")
		}
	}

	// interps[i] lists the levels item i can take, with the matched
	// members per tuple.
	interps := make([][]interpretation, k)
	for i := 0; i < k; i++ {
		// Resolve item i of every tuple. Resolutions are independent
		// endpoint queries, so they run concurrently; the single-flight
		// match cache coalesces tuples sharing a keyword into one query.
		perTuple := make([][]Match, len(tuples))
		if err := par.Do(e.workers(), len(tuples), func(ti int) error {
			ms, err := e.MatchItem(ctx, tuples[ti][i])
			perTuple[ti] = ms
			return err
		}); err != nil {
			return nil, err
		}
		// level key → per-tuple matches
		byLevel := map[string][]([]Match){}
		levels := map[string]*vgraph.Level{}
		for ti := range tuples {
			for _, m := range perTuple[ti] {
				key := m.Level.Key()
				if _, ok := byLevel[key]; !ok {
					byLevel[key] = make([][]Match, len(tuples))
					levels[key] = m.Level
				}
				byLevel[key][ti] = append(byLevel[key][ti], m)
			}
		}
		var keys []string
		for key := range byLevel {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			ms := byLevel[key]
			complete := true
			for _, tm := range ms {
				if len(tm) == 0 {
					complete = false // some tuple's item has no member at this level
					break
				}
			}
			if complete {
				interps[i] = append(interps[i], interpretation{level: levels[key], members: ms})
			}
		}
		if len(interps[i]) == 0 {
			return nil, nil // an item with no interpretation: no queries
		}
	}

	// Cartesian combination (Algorithm 1, lines 6–9) with a safety cap.
	// Enumeration runs first — the per-combination checks (distinct
	// dimensions, dedupe by level set) are cheap and order-dependent —
	// and the surviving combinations then validate against the endpoint
	// concurrently.
	type comboTask struct {
		levels  []*vgraph.Level
		members [][][]Match
	}
	var tasks []comboTask
	seen := map[string]bool{}
	idx := make([]int, k)
	combos := 0
	for {
		combos++
		if combos > maxCombinations {
			break
		}
		combo := make([]interpretation, k)
		for i := range idx {
			combo[i] = interps[i][idx[i]]
		}
		levels := combo2levels(combo)
		if dedupeCombination(levels, seen) {
			tasks = append(tasks, comboTask{levels: levels, members: combo2members(combo)})
		}
		// advance the odometer
		pos := k - 1
		for pos >= 0 {
			idx[pos]++
			if idx[pos] < len(interps[pos]) {
				break
			}
			idx[pos] = 0
			pos--
		}
		if pos < 0 {
			break
		}
	}

	// Validate concurrently over the worker pool. A worker observing a
	// prior abort decision does not start new endpoint queries; since
	// par.Do dispatches tasks in index order, every unstarted task has
	// a higher index than the first aborting one, so the ordered scan
	// below reproduces the sequential semantics exactly: candidates in
	// enumeration order, transient skips counted up to the first abort,
	// and the first abort error (by enumeration order) returned.
	type comboResult struct {
		cand Candidate
		ok   bool
		err  error
		skip bool // transient failure: degrade instead of aborting
	}
	results := make([]comboResult, len(tasks))
	var aborted atomic.Bool
	par.Do(e.workers(), len(tasks), func(i int) error {
		if aborted.Load() {
			return nil
		}
		cand, ok, err := e.validateCombination(ctx, tuples, tasks[i].levels, tasks[i].members)
		r := comboResult{cand: cand, ok: ok, err: err}
		if err != nil {
			// Classify now, not at scan time: the degrade conditions
			// (circuit state, context liveness) must reflect the moment
			// the validation failed, as they do sequentially.
			r.skip = endpoint.Transient(err) && !errors.Is(err, endpoint.ErrCircuitOpen) && ctx.Err() == nil
			if !r.skip {
				// Permanent failures mean the generated SPARQL is wrong
				// (a bug), and an open circuit means every remaining
				// validation would fail too: abort either way.
				aborted.Store(true)
			}
		}
		results[i] = r
		return nil
	})
	var out []Candidate
	for _, r := range results {
		switch {
		case r.err == nil:
			if r.ok {
				out = append(out, r.cand)
			}
		case r.skip:
			// One validation query failed transiently even after the
			// client's retries. Degrade: skip this combination and keep
			// synthesizing — partial candidates beat losing the whole
			// run. The skip is observable via SkippedCombinations.
			e.skipped.Add(1)
		default:
			return nil, r.err
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Query.Description < out[j].Query.Description
	})
	return out, nil
}

// workers resolves the engine's validation concurrency.
func (e *Engine) workers() int { return par.Workers(e.Workers) }

func combo2levels(combo []interpretation) []*vgraph.Level {
	ls := make([]*vgraph.Level, len(combo))
	for i, c := range combo {
		ls[i] = c.level
	}
	return ls
}

func combo2members(combo []interpretation) [][][]Match {
	ms := make([][][]Match, len(combo))
	for i, c := range combo {
		ms[i] = c.members
	}
	return ms
}

// interpretation is one way an example item can be read: a level plus
// the members matching each example tuple's item at that level.
type interpretation struct {
	level   *vgraph.Level
	members [][]Match
}

// dedupeCombination enforces the minimality criteria (distinct
// dimensions) and deduplicates by level set, recording new level sets
// in seen. It is the cheap, order-dependent half of what used to be
// tryCombination and must run sequentially in enumeration order.
func dedupeCombination(levels []*vgraph.Level, seen map[string]bool) bool {
	dims := map[string]bool{}
	for _, l := range levels {
		if dims[l.Dimension] {
			return false // duplicate dimension
		}
		dims[l.Dimension] = true
	}
	keys := make([]string, len(levels))
	for i, l := range levels {
		keys[i] = l.Key()
	}
	sort.Strings(keys)
	comboKey := strings.Join(keys, "\x01")
	if seen[comboKey] {
		return false
	}
	seen[comboKey] = true
	return true
}

// validateCombination validates one deduplicated combination against
// the data and assembles the candidate query. It touches no shared
// engine state, so combinations validate concurrently.
func (e *Engine) validateCombination(ctx context.Context, tuples []ExampleTuple, levels []*vgraph.Level, members [][][]Match) (Candidate, bool, error) {
	// Validate: every tuple must be witnessed by an observation linking
	// all its members simultaneously (correctness, Section 5.3). The
	// first tuple's witnessing members anchor the query example.
	witnesses := make([][]rdf.Term, len(tuples))
	for ti := range tuples {
		witness, err := e.witness(ctx, levels, members, ti)
		if err != nil {
			return Candidate{}, false, err
		}
		if witness == nil {
			return Candidate{}, false, nil
		}
		witnesses[ti] = witness
	}

	anchor := witnesses[0]
	examples := make([]*rdf.Term, len(levels))
	matches := make([]Match, len(levels))
	for i := range levels {
		m := anchor[i]
		examples[i] = &m
		// Recover the match metadata for presentation.
		for _, cand := range members[i][0] {
			if cand.Member == m {
				matches[i] = cand
				break
			}
		}
	}
	q := NewOLAPQuery(e.Config.ObservationClass, levels, examples, e.Graph.Measures)
	q.Description = q.Describe()
	return Candidate{Query: q, Matches: matches, witnesses: witnesses}, true, nil
}

// witness finds one observation linking a member choice for every item
// of tuple ti, returning the chosen members (aligned with levels), or
// nil if none exists.
func (e *Engine) witness(ctx context.Context, levels []*vgraph.Level, members [][][]Match, ti int) ([]rdf.Term, error) {
	var b strings.Builder
	b.Grow(256)
	b.WriteString("SELECT")
	for i := range levels {
		b.WriteString(" ?x")
		b.WriteString(strconv.Itoa(i))
	}
	b.WriteString(" WHERE { ")
	b.WriteString(e.classPattern)
	for i, l := range levels {
		x := strconv.Itoa(i)
		b.WriteString(e.levelPaths[l.ID])
		b.WriteString("?x")
		b.WriteString(x)
		b.WriteString(" . VALUES ?x")
		b.WriteString(x)
		b.WriteString(" {")
		for _, m := range members[i][ti] {
			b.WriteByte(' ')
			b.WriteString(m.Member.String())
		}
		b.WriteString(" } ")
	}
	b.WriteString("} LIMIT 1")
	res, err := e.query(ctx, "witness", b.String())
	if err != nil {
		return nil, fmt.Errorf("core: validating combination: %w", err)
	}
	if res.Len() == 0 {
		return nil, nil
	}
	return res.Rows[0], nil
}

// Execute runs a structured OLAP query and decodes its results.
func (e *Engine) Execute(ctx context.Context, q *OLAPQuery) (*ResultSet, error) {
	return e.ExecuteTagged(ctx, q, "execute")
}

// ExecuteTagged is Execute with an explicit step tag, so callers that
// know why the query runs (session start, a refinement) can say so in
// traces and metrics. The result set records the store generation the
// client reported for a complete answer, which Derive checks.
func (e *Engine) ExecuteTagged(ctx context.Context, q *OLAPQuery, step string) (*ResultSet, error) {
	res, meta, err := e.queryMeta(ctx, step, q.ToSPARQL())
	if err != nil {
		return nil, fmt.Errorf("core: executing query: %w", err)
	}
	rs, err := DecodeResults(q, res)
	if err == nil && !meta.Incomplete {
		rs.gen = meta.Generation
	}
	return rs, err
}
