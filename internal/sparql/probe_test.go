package sparql

import (
	"fmt"
	"testing"

	"re2xolap/internal/datagen"
	"re2xolap/internal/store"
)

// probeShape is one of the query shapes ReOLAP's synthesis sends by
// the thousand (core/reolap.go): a membership ASK per (level, term), a
// LIMIT 1 witness per combination, and the keyword search that starts
// an item's resolution. Their cost is almost all the engine's fixed
// per-query cost, so they pin and time it.
type probeShape struct{ name, src string }

// probeShapes returns the shapes over the eurostat cube's IRIs.
func probeShapes() []probeShape {
	spec := datagen.EurostatLike(0)
	ns, class := spec.NS, spec.ObservationClass()
	iri := func(local string) string { return "<" + ns + local + ">" }
	return []probeShape{
		{"ask-1step", fmt.Sprintf(`ASK { ?o a <%s> . ?o %s %s . }`,
			class, iri("citizen"), iri("citizen/m7"))},
		{"ask-3step", fmt.Sprintf(`ASK { ?o a <%s> . ?o %s/%s/%s %s . }`,
			class, iri("refPeriod"), iri("inQuarter"), iri("inYear"), iri("refPeriod/inQuarter/inYear/m3"))},
		{"witness-1level", fmt.Sprintf(`SELECT ?x0 WHERE { ?o a <%s> . ?o %s/%s ?x0 . VALUES ?x0 { %s %s } } LIMIT 1`,
			class, iri("citizen"), iri("inContinent"), iri("citizen/inContinent/m2"), iri("citizen/inContinent/m5"))},
		{"witness-3level", fmt.Sprintf(`SELECT ?x0 ?x1 ?x2 WHERE { ?o a <%s> . `+
			`?o %s/%s ?x0 . VALUES ?x0 { %s } `+
			`?o %s ?x1 . VALUES ?x1 { %s %s } `+
			`?o %s/%s/%s ?x2 . VALUES ?x2 { %s } } LIMIT 1`,
			class,
			iri("citizen"), iri("inContinent"), iri("citizen/inContinent/m0"),
			iri("geo"), iri("geo/m0"), iri("geo/m11"),
			iri("refPeriod"), iri("inQuarter"), iri("inYear"), iri("refPeriod/inQuarter/inYear/m4"))},
		{"keyword-search", `SELECT DISTINCT ?m ?q ?lit WHERE { ?m ?q ?lit . FILTER (ISLITERAL(?lit)) ` +
			`FILTER (CONTAINS(LCASE(STR(?lit)), "continent 4")) FILTER (ISIRI(?m)) }`},
	}
}

// probeStore is the eurostat cube the probe shapes run against.
func probeStore(tb testing.TB) *store.Store {
	tb.Helper()
	st, err := datagen.EurostatLike(2000).BuildStore()
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// BenchmarkProbe times the parse and the (one-worker) execution of each
// probe shape apart, with allocations: the fixed cost every synthesis
// query pays.
func BenchmarkProbe(b *testing.B) {
	eng := NewEngine(probeStore(b))
	eng.Exec.Workers = 1
	for _, sh := range probeShapes() {
		q, err := Parse(sh.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sh.name+"/parse", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(sh.src); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/exec", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// probeAllocs pins the allocations of parsing and of executing (on one
// worker) each probe shape.
var probeAllocs = map[string]struct{ parse, exec float64 }{
	"ask-1step":      {5, 13},
	"ask-3step":      {7, 13},
	"witness-1level": {12, 26},
	"witness-3level": {27, 34},
	"keyword-search": {23, 79},
}

// TestProbeAllocations pins the fixed cost of the probe shapes, which
// answer as a validation needs them to: the ASKs true, the witnesses
// one row, the keyword search its matching members.
func TestProbeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	eng := NewEngine(probeStore(t))
	eng.Exec.Workers = 1
	for _, sh := range probeShapes() {
		q, err := Parse(sh.src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(q)
		switch {
		case err != nil:
			t.Fatalf("%s: %v", sh.name, err)
		case q.Ask && !res.Boolean, !q.Ask && q.Limit == 1 && res.Len() != 1, res.Len() == 0 && !q.Ask && q.Limit != 1:
			t.Fatalf("%s: answer %v", sh.name, res)
		}
		pin := probeAllocs[sh.name]
		if n := testing.AllocsPerRun(100, func() { Parse(sh.src) }); n > pin.parse {
			t.Errorf("%s: parsing allocates %v objects, want at most %v", sh.name, n, pin.parse)
		}
		if n := testing.AllocsPerRun(100, func() { eng.Query(q) }); n > pin.exec {
			t.Errorf("%s: executing allocates %v objects, want at most %v", sh.name, n, pin.exec)
		}
	}
}
