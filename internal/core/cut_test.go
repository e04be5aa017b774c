package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"re2xolap/internal/rdf"
	"re2xolap/internal/testkg"
	"re2xolap/internal/vgraph"
)

// sameTuples reports whether two answers hold the same tuples in the
// same order: dimension members, measure keys and measure bits.
func sameTuples(a, b *ResultSet) error {
	if len(a.Tuples) != len(b.Tuples) {
		return fmt.Errorf("%d tuples, want %d", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		ta, tb := a.Tuples[i], b.Tuples[i]
		if len(ta.Dims) != len(tb.Dims) || len(ta.Measures) != len(tb.Measures) {
			return fmt.Errorf("tuple %d has another shape", i)
		}
		for d := range ta.Dims {
			if ta.Dims[d] != tb.Dims[d] {
				return fmt.Errorf("tuple %d dim %d = %v, want %v", i, d, ta.Dims[d], tb.Dims[d])
			}
		}
		for k, v := range ta.Measures {
			w, ok := tb.Measures[k]
			if !ok || math.Float64bits(v) != math.Float64bits(w) {
				return fmt.Errorf("tuple %d %s = %v, want %v (present %v)", i, k, v, w, ok)
			}
		}
	}
	return nil
}

// TestDeriveNonNumericMeasure puts non-numeric measure literals into
// the fixture: one destination has only "n/a" values (SUM and AVG
// unbound, MIN and MAX the string), another a mix. Every HAVING cut
// derived from the parent must equal the executed HAVING answer, and
// the ones over the string MIN/MAX must keep it by lexical comparison,
// as the executor does.
func TestDeriveNonNumericMeasure(t *testing.T) {
	st, c, g := testkg.BootstrapFixture(t, nil)
	for i, dest := range []string{"xx", "xx", "se"} {
		obs := testkg.IRI(fmt.Sprintf("na%d", i))
		for _, tr := range []rdf.Triple{
			rdf.NewTriple(obs, rdf.NewIRI(rdf.RDFType), testkg.IRI("Observation")),
			rdf.NewTriple(obs, testkg.IRI("dest"), testkg.IRI(dest)),
			rdf.NewTriple(obs, testkg.IRI("numApplicants"), rdf.NewString("n/a")),
		} {
			if err := st.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := NewEngine(c, g, testkg.Config())
	ctx := context.Background()
	de := testkg.IRI("de")
	q := NewOLAPQuery(testkg.ObservationClass,
		[]*vgraph.Level{g.LevelByPath([]string{testkg.NS + "dest"})},
		[]*rdf.Term{&de}, g.Measures)
	parent, err := e.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	lexical := 0
	for _, a := range q.Aggregates {
		for _, op := range []string{"<", "<=", ">", ">=", "="} {
			for _, th := range []float64{-1, 0, 5, 8, 60.5, 488, 1e16} {
				child := q.Clone()
				child.Having = append(child.Having, MeasureFilter{Col: a.OutVar, Op: op, Value: th})
				got, ok := e.Derive(parent, child)
				if !ok {
					t.Fatalf("%s: not derived", child.ToSPARQL())
				}
				want, err := e.Execute(ctx, child)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTuples(got, want); err != nil {
					t.Errorf("%s: %v", child.ToSPARQL(), err)
				}
				kept, _ := parent.Cut(child)
				if len(kept) != want.Len() {
					t.Errorf("%s: cut keeps %d, executed %d", child.ToSPARQL(), len(kept), want.Len())
				}
				for _, tp := range want.Tuples {
					if _, num := tp.Measures[a.OutVar]; !num {
						lexical++
					}
				}
			}
		}
	}
	if lexical == 0 {
		t.Error("no executed cut kept a non-numeric aggregate")
	}
}

// TestCutAbsentMeasureFails: an aggregate missing from Measures is
// unbound and fails every comparison, where reading it as 0 would keep
// it under "< 1".
func TestCutAbsentMeasureFails(t *testing.T) {
	q := &OLAPQuery{
		Measures:   []MeasureRef{{Var: "m"}},
		Aggregates: []AggColumn{{Func: "SUM", OutVar: "s"}},
	}
	rs := &ResultSet{Query: q, Tuples: []Tuple{
		{Measures: map[string]float64{}},
		{Measures: map[string]float64{"s": 0}},
	}}
	for _, op := range []string{"<", "<=", ">", ">=", "="} {
		child := q.Clone()
		child.Having = append(child.Having, MeasureFilter{Col: "s", Op: op, Value: 0.5})
		kept, ok := rs.Cut(child)
		if !ok {
			t.Fatal("cut refused")
		}
		for _, j := range kept {
			if j == 0 {
				t.Errorf("%s 0.5 keeps the absent measure", op)
			}
		}
	}
}

func TestCutRequiresExtension(t *testing.T) {
	_, c, g := testkg.BootstrapFixture(t, nil)
	e := NewEngine(c, g, testkg.Config())
	cands, err := e.Synthesize(context.Background(), Keywords("Germany"))
	if err != nil || len(cands) == 0 {
		t.Fatal(cands, err)
	}
	q := cands[0].Query
	rs, err := e.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	having := func(c *OLAPQuery) *OLAPQuery {
		c.Having = append(c.Having, MeasureFilter{Col: c.Aggregates[0].OutVar, Op: ">", Value: 1})
		return c
	}
	for name, child := range map[string]*OLAPQuery{
		"other class":    func() *OLAPQuery { c := having(q.Clone()); c.ObsClass += "x"; return c }(),
		"other variable": func() *OLAPQuery { c := having(q.Clone()); c.Dims[0].Var += "x"; return c }(),
		"no example":     func() *OLAPQuery { c := having(q.Clone()); c.Dims[0].Example = nil; return c }(),
		"fewer columns":  func() *OLAPQuery { c := having(q.Clone()); c.Aggregates = c.Aggregates[1:]; return c }(),
		"unknown column": func() *OLAPQuery { c := q.Clone(); c.Having = []MeasureFilter{{Col: "nope", Op: ">"}}; return c }(),
		"inf threshold": func() *OLAPQuery {
			c := q.Clone()
			c.Having = []MeasureFilter{{Col: c.Aggregates[0].OutVar, Op: ">", Value: math.Inf(1)}}
			return c
		}(),
		"dropped having": func() *OLAPQuery { c := q.Clone(); return c }(),
		"other measure":  func() *OLAPQuery { c := having(q.Clone()); c.Measures[0].Predicate += "x"; return c }(),
	} {
		if name == "dropped having" {
			// A child with fewer conditions than its parent.
			parent := *rs
			parent.Query = having(q.Clone())
			if _, ok := parent.Cut(child); ok {
				t.Errorf("%s: cut accepted", name)
			}
			continue
		}
		if _, ok := rs.Cut(child); ok {
			t.Errorf("%s: cut accepted", name)
		}
		if _, ok := e.Derive(rs, child); ok {
			t.Errorf("%s: derived", name)
		}
	}
	if _, ok := e.Derive(rs, having(q.Clone())); !ok {
		t.Error("HAVING extension not derived")
	}
}
