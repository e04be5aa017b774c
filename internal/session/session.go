// Package session implements the interactive loop of Algorithm 2
// (RE2xOLAP): the user picks a synthesized query, inspects its results,
// chooses a refinement method, picks one of the proposed refinements,
// and iterates — with backtracking to earlier queries to explore a
// different path. The session also accounts for the exploration paths
// and tuples made accessible at each interaction, which Figure 8c
// reports.
package session

import (
	"context"
	"errors"
	"fmt"

	"re2xolap/internal/core"
	"re2xolap/internal/refine"
	"re2xolap/internal/vgraph"
)

// ErrNoCurrentQuery is returned by operations that need an active query
// before Start succeeded.
var ErrNoCurrentQuery = errors.New("session: no current query; call Start first")

// Step is one point of the exploration: a query, its results, and the
// refinement that produced it (empty for the initial query).
type Step struct {
	Query   *core.OLAPQuery
	Results *core.ResultSet
	// Via is the refinement that led here; zero-valued for the first
	// step.
	Via refine.Refinement
	// Offered counts the refinement options presented at this step,
	// per kind, filled in as the user asks for them.
	Offered map[refine.Kind]int
}

// Session drives one exploratory workflow.
type Session struct {
	Engine *core.Engine
	Graph  *vgraph.Graph
	// SimilarK is the k for similarity refinements (default
	// refine.DefaultSimilarK).
	SimilarK int

	steps []*Step
}

// New returns a session over the given synthesis engine and virtual
// graph.
func New(e *core.Engine, g *vgraph.Graph) *Session {
	return &Session{Engine: e, Graph: g, SimilarK: refine.DefaultSimilarK}
}

// Start executes the chosen initial query (from ReOLAP synthesis) and
// begins the exploration history.
func (s *Session) Start(ctx context.Context, q *core.OLAPQuery) (*core.ResultSet, error) {
	rs, err := s.Engine.ExecuteTagged(ctx, q, "start")
	if err != nil {
		return nil, fmt.Errorf("session: executing initial query: %w", err)
	}
	s.steps = []*Step{{Query: q, Results: rs, Offered: map[refine.Kind]int{}}}
	return rs, nil
}

// Current returns the active step, or nil before Start.
func (s *Session) Current() *Step {
	if len(s.steps) == 0 {
		return nil
	}
	return s.steps[len(s.steps)-1]
}

// Depth returns the number of steps taken (1 after Start).
func (s *Session) Depth() int { return len(s.steps) }

// History returns the full step history, oldest first.
func (s *Session) History() []*Step { return s.steps }

// Options computes the refinements the given method offers for the
// current query and results (Algorithm 2, line 10).
func (s *Session) Options(ctx context.Context, kind refine.Kind) ([]refine.Refinement, error) {
	cur := s.Current()
	if cur == nil {
		return nil, ErrNoCurrentQuery
	}
	var refs []refine.Refinement
	switch kind {
	case refine.KindDisaggregate:
		refs = refine.Disaggregate(s.Graph, cur.Query)
	case refine.KindTopK:
		refs = refine.TopK(cur.Results)
	case refine.KindPercentile:
		refs = refine.Percentile(cur.Results)
	case refine.KindSimilarity:
		refs = refine.Similarity(cur.Results, s.SimilarK)
	case refine.KindCluster:
		refs = refine.Cluster(cur.Results, 3)
	case refine.KindRollUp:
		refs = refine.RollUp(s.Graph, cur.Query)
	default:
		return nil, fmt.Errorf("session: unknown refinement kind %q", kind)
	}
	cur.Offered[kind] = len(refs)
	_ = ctx
	return refs, nil
}

// Apply answers the chosen refinement and pushes it onto the history.
// A refinement that only cuts the current answer (Top-K, Percentile,
// Cluster) is derived from it when the store is unchanged
// (core.Engine.Derive); any other is executed.
func (s *Session) Apply(ctx context.Context, r refine.Refinement) (*core.ResultSet, error) {
	cur := s.Current()
	if cur == nil {
		return nil, ErrNoCurrentQuery
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("session: executing refinement: %w", err)
	}
	rs, ok := s.Engine.Derive(cur.Results, r.Query)
	if !ok {
		var err error
		rs, err = s.Engine.ExecuteTagged(ctx, r.Query, "refine:"+string(r.Kind))
		if err != nil {
			return nil, fmt.Errorf("session: executing refinement: %w", err)
		}
	}
	s.steps = append(s.steps, &Step{Query: r.Query, Results: rs, Via: r, Offered: map[refine.Kind]int{}})
	return rs, nil
}

// Backtrack drops the current step and returns to the previous query,
// reporting whether a step was removed (the first step is never
// removed).
func (s *Session) Backtrack() bool {
	if len(s.steps) <= 1 {
		return false
	}
	s.steps = s.steps[:len(s.steps)-1]
	return true
}

// PathStats is the Figure 8c accounting after a sequence of
// interactions: how many distinct exploration paths the offered
// options give access to (the product of the branching factors along
// the walked prefix) and how many result tuples the walked queries
// exposed in total.
type PathStats struct {
	Interactions int
	// Paths is the cumulative number of distinct exploration paths
	// reachable with the choices offered so far.
	Paths int
	// Tuples is the cumulative number of result tuples returned along
	// the walked path.
	Tuples int
}

// Tracker accumulates PathStats across a scripted workflow.
type Tracker struct {
	stats []PathStats
	paths int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{paths: 1} }

// maxPaths saturates the path product so long sessions cannot
// overflow.
const maxPaths = 1 << 50

// Record logs one interaction: the number of options the system
// offered and the size of the result set the user obtained.
func (t *Tracker) Record(options, tuples int) {
	if options > 0 {
		if t.paths > maxPaths/options {
			t.paths = maxPaths
		} else {
			t.paths *= options
		}
	}
	prevTuples := 0
	if len(t.stats) > 0 {
		prevTuples = t.stats[len(t.stats)-1].Tuples
	}
	t.stats = append(t.stats, PathStats{
		Interactions: len(t.stats) + 1,
		Paths:        t.paths,
		Tuples:       prevTuples + tuples,
	})
}

// Stats returns the per-interaction cumulative statistics.
func (t *Tracker) Stats() []PathStats { return t.stats }
