package sparql

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"re2xolap/internal/datagen"
	"re2xolap/internal/obs"
)

func TestQueryStringTimed(t *testing.T) {
	spec := datagen.EurostatLike(500)
	st, err := spec.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)
	reg := obs.NewRegistry()
	eng.Instrument(reg)

	q := fmt.Sprintf(
		`SELECT ?m (COUNT(?o) AS ?n) WHERE { ?o a <%s> . ?o <%s> ?m . } GROUP BY ?m ORDER BY ?m`,
		spec.ObservationClass(), spec.NS+spec.Dimensions[0].Pred)
	res, pt, err := eng.QueryStringTimed(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Rows != res.Len() || pt.Rows == 0 {
		t.Fatalf("Rows = %d, result rows = %d", pt.Rows, res.Len())
	}
	if pt.Parse <= 0 || pt.Join <= 0 || pt.Aggregate <= 0 {
		t.Fatalf("phases not measured: %+v", pt)
	}
	if pt.Total() < pt.Join {
		t.Fatalf("Total %v < Join %v", pt.Total(), pt.Join)
	}

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"re2xolap_sparql_queries_total 1",
		`re2xolap_sparql_phase_seconds_bucket{phase="join"`,
		"re2xolap_sparql_rows_total",
		"re2xolap_sparql_query_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// A syntax error counts as query + error.
	if _, _, err := eng.QueryStringTimed(context.Background(), "SELECT nonsense"); err == nil {
		t.Fatal("syntax error did not error")
	}
	buf.Reset()
	_ = reg.WriteProm(&buf)
	if !strings.Contains(buf.String(), "re2xolap_sparql_query_errors_total 1") {
		t.Errorf("error not counted:\n%s", buf.String())
	}
}

// TestQueryStringTimedRoutesThroughTrace checks the trace-driven
// path: an uninstrumented engine still produces phase spans when the
// context carries one.
func TestQueryStringTimedRoutesThroughTrace(t *testing.T) {
	spec := datagen.EurostatLike(200)
	st, err := spec.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)
	tr := obs.NewTrace("test")
	ctx := obs.ContextWith(context.Background(), tr.Root())
	q := fmt.Sprintf(`SELECT ?o WHERE { ?o a <%s> . } LIMIT 5`, spec.ObservationClass())
	if _, _, err := eng.QueryStringTimed(ctx, q); err != nil {
		t.Fatal(err)
	}
	tr.End()
	names := map[string]bool{}
	for _, c := range tr.Root().Children() {
		names[c.Name()] = true
	}
	if !names["parse"] || !names["join"] {
		t.Fatalf("trace missing engine phases, got %v in:\n%s", names, tr)
	}
}

// TestInstrumentedResultsIdentical guards the refactor: the timed string
// entry on an instrumented engine must return byte-identical results to
// the bare parsed-query path.
func TestInstrumentedResultsIdentical(t *testing.T) {
	spec := datagen.EurostatLike(300)
	st, err := spec.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	plain := NewEngine(st)
	timed := NewEngine(st)
	timed.Instrument(obs.NewRegistry())
	for _, q := range []string{
		fmt.Sprintf(`SELECT ?m (SUM(?v) AS ?s) WHERE { ?o <%s> ?m . ?o <%s> ?v . } GROUP BY ?m ORDER BY ?m`,
			spec.NS+spec.Dimensions[0].Pred, spec.NS+spec.Measures[0].Pred),
		fmt.Sprintf(`ASK { ?o a <%s> . }`, spec.ObservationClass()),
		fmt.Sprintf(`SELECT ?o WHERE { ?o a <%s> . } ORDER BY ?o LIMIT 7 OFFSET 2`, spec.ObservationClass()),
	} {
		parsed, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := plain.QueryContext(context.Background(), parsed)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := timed.QueryStringTimed(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("instrumented results differ for %s:\n%s\nvs\n%s", q, a, b)
		}
	}
}

// TestExplainAccounting pins the one recording rule of the string
// entry points: every call is counted exactly once; EXPLAIN reports
// parse and plan, EXPLAIN ANALYZE the analyzed query's phases; and a
// profile's aggregate and modifiers walls are its aggregate and sort
// phases, read off the same laps.
func TestExplainAccounting(t *testing.T) {
	spec := datagen.EurostatLike(500)
	st, err := spec.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)
	reg := obs.NewRegistry()
	eng.Instrument(reg)
	queries := reg.Counter("re2xolap_sparql_queries_total", "")
	q := fmt.Sprintf(
		`SELECT ?m (COUNT(?o) AS ?n) WHERE { ?o a <%s> . ?o <%s> ?m . } GROUP BY ?m ORDER BY ?m`,
		spec.ObservationClass(), spec.NS+spec.Dimensions[0].Pred)
	ctx := context.Background()
	counted := func(what string, call func()) {
		t.Helper()
		before := queries.Value()
		call()
		if n := queries.Value() - before; n != 1 {
			t.Errorf("%s recorded %d times, want 1", what, n)
		}
	}

	counted("EXPLAIN", func() {
		res, pt, err := eng.QueryStringTimed(ctx, "EXPLAIN "+q)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Parse <= 0 || pt.Plan <= 0 || pt.Join != 0 || pt.Aggregate != 0 || pt.Sort != 0 {
			t.Errorf("EXPLAIN phases = %+v, want parse and plan only", pt)
		}
		if pt.Rows != res.Len() {
			t.Errorf("EXPLAIN rows = %d, plan lines = %d", pt.Rows, res.Len())
		}
	})
	counted("EXPLAIN ANALYZE", func() {
		res, pt, err := eng.QueryStringTimed(ctx, "EXPLAIN ANALYZE "+q)
		if err != nil {
			t.Fatal(err)
		}
		if pt.Parse <= 0 || pt.Join <= 0 || pt.Aggregate <= 0 || pt.Sort <= 0 {
			t.Errorf("EXPLAIN ANALYZE phases = %+v, want the analyzed query's", pt)
		}
		if pt.Rows != res.Len() {
			t.Errorf("EXPLAIN ANALYZE rows = %d, profile lines = %d", pt.Rows, res.Len())
		}
	})
	counted("QueryString EXPLAIN ANALYZE", func() {
		if _, err := eng.QueryString("EXPLAIN ANALYZE " + q); err != nil {
			t.Fatal(err)
		}
	})
	counted("QueryString", func() {
		if _, err := eng.QueryString(q); err != nil {
			t.Fatal(err)
		}
	})
	counted("syntax error", func() {
		if _, err := eng.QueryString("EXPLAIN NOT SPARQL"); err == nil {
			t.Fatal("EXPLAIN of a bad query did not error")
		}
	})

	var p *Profile
	counted("Profile", func() {
		if _, p, err = eng.Profile(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	walls := map[string]time.Duration{}
	for _, n := range p.Root.Children {
		walls[n.Op] = n.Wall
	}
	if walls["aggregate"] != p.Phases.Aggregate || walls["modifiers"] != p.Phases.Sort {
		t.Errorf("node walls aggregate=%v modifiers=%v, phases aggregate=%v sort=%v",
			walls["aggregate"], walls["modifiers"], p.Phases.Aggregate, p.Phases.Sort)
	}
	if p.Root.Wall != p.Phases.Total() {
		t.Errorf("root wall %v, phase total %v", p.Root.Wall, p.Phases.Total())
	}
}
