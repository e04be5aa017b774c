package core

import (
	"context"
	"strings"
	"testing"

	"re2xolap/internal/testkg"
)

func TestSynthesizeWithNegatives(t *testing.T) {
	e := fixtureEngine(t)
	ctx := context.Background()

	// Positive "Germany" alone yields both origin and destination
	// interpretations.
	pos := []ExampleTuple{Keywords("Germany")}
	base, err := e.SynthesizeWithNegatives(ctx, pos, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 {
		t.Fatalf("without negatives = %d, want 2", len(base))
	}

	// Negative "China": China appears as an origin but never as a
	// destination, so the origin interpretation is rejected and only
	// destination survives.
	cands, err := e.SynthesizeWithNegatives(ctx, pos, []ExampleTuple{Keywords("China")})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		for _, c := range cands {
			t.Logf("got: %s", c.Query.Description)
		}
		t.Fatalf("with negative = %d, want 1", len(cands))
	}
	if got := cands[0].Query.Dims[0].Level.String(); got != "dest" {
		t.Errorf("surviving level = %s, want dest", got)
	}
}

func TestSynthesizeWithNegativesNoMatchIsNoOp(t *testing.T) {
	e := fixtureEngine(t)
	ctx := context.Background()
	pos := []ExampleTuple{Keywords("Germany")}
	cands, err := e.SynthesizeWithNegatives(ctx, pos, []ExampleTuple{Keywords("atlantis")})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Errorf("unmatched negative rejected candidates: %d", len(cands))
	}
}

func TestNegativeWitnessedArityMismatch(t *testing.T) {
	e := fixtureEngine(t)
	ctx := context.Background()
	cands, err := e.Synthesize(ctx, Keywords("Germany"))
	if err != nil || len(cands) == 0 {
		t.Fatal(err)
	}
	// A negative longer than the candidate's dimensionality never hits.
	hit, err := e.negativeWitnessed(ctx, cands[0], Keywords("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("oversized negative reported as witnessed")
	}
}

func TestContrastSets(t *testing.T) {
	e := fixtureEngine(t)
	ctx := context.Background()
	// Germany vs France as example sets: shared interpretations are
	// origin-country and destination-country.
	cs, err := e.ContrastSets(ctx, Keywords("Germany"), Keywords("France"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) == 0 {
		t.Fatal("no contrasts")
	}
	var destContrast *Contrast
	for i := range cs {
		if cs[i].Query.Dims[0].Level.String() == "dest" {
			destContrast = &cs[i]
		}
	}
	if destContrast == nil {
		t.Fatal("destination contrast missing")
	}
	if destContrast.AnchorA[0] != testkg.IRI("de") || destContrast.AnchorB[0] != testkg.IRI("fr") {
		t.Errorf("anchors = %v vs %v", destContrast.AnchorA, destContrast.AnchorB)
	}
	// Fixture sums: destination de = 488, destination fr = 75.
	var sumRow *ContrastRow
	for i := range destContrast.Rows {
		if destContrast.Rows[i].Column == "sum_numApplicants" {
			sumRow = &destContrast.Rows[i]
		}
	}
	if sumRow == nil {
		t.Fatalf("sum row missing: %+v", destContrast.Rows)
	}
	if sumRow.A != 488 || sumRow.B != 75 {
		t.Errorf("contrast sums = %v vs %v, want 488 vs 75", sumRow.A, sumRow.B)
	}
	if sumRow.Ratio < 6.5 || sumRow.Ratio > 6.51 {
		t.Errorf("ratio = %v", sumRow.Ratio)
	}
}

func TestContrastSetsArityMismatch(t *testing.T) {
	e := fixtureEngine(t)
	if _, err := e.ContrastSets(context.Background(), Keywords("a"), Keywords("a", "b")); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestContrastSetsUnmatchedSide(t *testing.T) {
	e := fixtureEngine(t)
	cs, err := e.ContrastSets(context.Background(), Keywords("Germany"), Keywords("atlantis"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 0 {
		t.Errorf("contrasts with unmatched side = %d, want 0", len(cs))
	}
}

func TestProfile(t *testing.T) {
	e := fixtureEngine(t)
	p, err := e.Profile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.Observations != 11 {
		t.Errorf("observations = %d, want 11", p.Observations)
	}
	if p.Schema.Dimensions != 4 || p.Schema.Levels != 7 {
		t.Errorf("schema = %+v", p.Schema)
	}
	if len(p.Measures) != 1 {
		t.Fatalf("measures = %d", len(p.Measures))
	}
	m := p.Measures[0]
	if m.Count != 11 || m.Min != 3 || m.Max != 200 {
		t.Errorf("measure profile = %+v", m)
	}
	if m.Avg <= 0 {
		t.Errorf("avg = %v", m.Avg)
	}
	if !strings.Contains(p.String(), "Num Applicants") {
		t.Errorf("String() = %s", p.String())
	}
}

func TestRankCandidates(t *testing.T) {
	e := fixtureEngine(t)
	cands, err := e.Synthesize(context.Background(), Keywords("Germany"))
	if err != nil || len(cands) != 2 {
		t.Fatalf("cands = %d, err %v", len(cands), err)
	}
	ranked := RankCandidates(cands)
	if len(ranked) != 2 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	// Both are depth-1 country levels with rdfs:label matches; the tie
	// breaks on member count: origin has 4 witnessed members, dest 3 →
	// dest first.
	if ranked[0].Query.Dims[0].Level.String() != "dest" {
		t.Errorf("first = %s", ranked[0].Query.Dims[0].Level)
	}
	// Determinism under permutation.
	swapped := []Candidate{cands[1], cands[0]}
	ranked2 := RankCandidates(swapped)
	for i := range ranked {
		if ranked[i].Query.Description != ranked2[i].Query.Description {
			t.Errorf("rank %d differs under permutation", i)
		}
	}
}

func TestMatchCache(t *testing.T) {
	e := fixtureEngine(t)
	ctx := context.Background()
	ip := e.Client.(interface{ QueryCount() int64 })

	before := ip.QueryCount()
	if _, err := e.MatchItem(ctx, NewKeyword("Germany")); err != nil {
		t.Fatal(err)
	}
	afterFirst := ip.QueryCount()
	if afterFirst == before {
		t.Fatal("first match issued no queries")
	}
	if _, err := e.MatchItem(ctx, NewKeyword("Germany")); err != nil {
		t.Fatal(err)
	}
	if ip.QueryCount() != afterFirst {
		t.Errorf("cached match issued queries: %d → %d", afterFirst, ip.QueryCount())
	}
	// Invalidation forces re-resolution.
	e.InvalidateCache()
	if _, err := e.MatchItem(ctx, NewKeyword("Germany")); err != nil {
		t.Fatal(err)
	}
	if ip.QueryCount() == afterFirst {
		t.Error("invalidated cache did not re-query")
	}
	// Disabled cache always queries.
	e.DisableMatchCache = true
	n1 := ip.QueryCount()
	_, _ = e.MatchItem(ctx, NewKeyword("Germany"))
	_, _ = e.MatchItem(ctx, NewKeyword("Germany"))
	if ip.QueryCount()-n1 < 2 {
		t.Error("disabled cache served from cache")
	}
}
