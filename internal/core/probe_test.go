package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/testkg"
	"re2xolap/internal/vgraph"
)

// lastQuery records the text of the last query a client answers.
type lastQuery struct {
	endpoint.Client
	text string
}

func (c *lastQuery) Query(ctx context.Context, q string) (*sparql.Results, error) {
	c.text = q
	return c.Client.Query(ctx, q)
}

// TestProbeTexts pins the text of ReOLAP's probes, which the engine
// builds from per-level prefixes, to the plain formatting of Algorithm
// 1's queries: a membership ASK per (level, term) and a witness per
// combination, for every level of the fixture.
func TestProbeTexts(t *testing.T) {
	_, c, g := testkg.BootstrapFixture(t, nil)
	rec := &lastQuery{Client: c}
	e := NewEngine(rec, g, testkg.Config())
	class := e.Config.ObservationClass
	ctx := context.Background()
	member := rdf.NewIRI("http://example.org/member")
	for _, l := range g.Levels {
		if _, err := e.levelMembership(ctx, l, []rdf.Term{member}); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(`ASK { ?o a <%s> . ?o %s %s . }`, class, pathExpr(l.Path), member); rec.text != want {
			t.Errorf("level %s: membership ASK\n%s\nwant\n%s", l, rec.text, want)
		}
	}
	for k := 1; k <= 3 && k <= len(g.Levels); k++ {
		levels := g.Levels[len(g.Levels)-k:]
		members := make([][][]Match, k)
		for i := range members {
			members[i] = [][]Match{{{Member: member}, {Member: rdf.NewIRI(fmt.Sprintf("http://example.org/m%d", i))}}}
		}
		if _, err := e.witness(ctx, levels, members, 0); err != nil {
			t.Fatal(err)
		}
		if want := formatWitness(class, levels, members); rec.text != want {
			t.Errorf("%d levels: witness\n%s\nwant\n%s", k, rec.text, want)
		}
	}
}

// formatWitness is the witness query of tuple 0 as Algorithm 1 states
// it, formatted piece by piece.
func formatWitness(class string, levels []*vgraph.Level, members [][][]Match) string {
	var b strings.Builder
	b.WriteString("SELECT")
	for i := range levels {
		fmt.Fprintf(&b, " ?x%d", i)
	}
	fmt.Fprintf(&b, " WHERE { ?o a <%s> . ", class)
	for i, l := range levels {
		fmt.Fprintf(&b, "?o %s ?x%d . VALUES ?x%d {", pathExpr(l.Path), i, i)
		for _, m := range members[i][0] {
			fmt.Fprintf(&b, " %s", m.Member)
		}
		b.WriteString(" } ")
	}
	b.WriteString("} LIMIT 1")
	return b.String()
}
