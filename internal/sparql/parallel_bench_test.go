package sparql

import (
	"context"
	"fmt"
	"testing"

	"re2xolap/internal/datagen"
	"re2xolap/internal/obs"
	"re2xolap/internal/store"
)

// benchEngines builds one store and a sequential + parallel engine over
// it; the b.Run pairs below expose the executor overhead/speedup for
// each pipeline stage.
func benchStore(b *testing.B, obs int) (*store.Store, datagen.Spec) {
	b.Helper()
	spec := datagen.EurostatLike(obs)
	st, err := spec.BuildStore()
	if err != nil {
		b.Fatal(err)
	}
	return st, spec
}

func benchQuery(b *testing.B, st *store.Store, workers int, query string) {
	b.Helper()
	eng := NewEngine(st)
	eng.Exec.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.QueryString(query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBGPJoin(b *testing.B) {
	st, spec := benchStore(b, 5000)
	q := fmt.Sprintf(
		`SELECT ?o ?m ?v WHERE { ?o a <%s> . ?o <%s> ?m . ?o <%s> ?v . } ORDER BY ?o LIMIT 1000`,
		spec.ObservationClass(), spec.NS+spec.Dimensions[0].Pred, spec.NS+spec.Measures[0].Pred)
	b.Run("seq", func(b *testing.B) { benchQuery(b, st, 1, q) })
	b.Run("par", func(b *testing.B) { benchQuery(b, st, 0, q) })
}

// BenchmarkBGP runs the one pattern-join operator in its three budget
// regimes — first solution, ten solutions, all of them — sequentially
// and on the pool.
func BenchmarkBGP(b *testing.B) {
	st, spec := benchStore(b, 5000)
	body := fmt.Sprintf(`{ ?o a <%s> . ?o <%s> ?m . ?o <%s> ?v . }`,
		spec.ObservationClass(), spec.NS+spec.Dimensions[0].Pred, spec.NS+spec.Measures[0].Pred)
	for _, c := range []struct{ name, query string }{
		{"ask", "ASK " + body},
		{"limit10", "SELECT ?o ?m ?v WHERE " + body + " LIMIT 10"},
		{"full", "SELECT ?o ?m ?v WHERE " + body},
	} {
		b.Run(c.name+"/workers=1", func(b *testing.B) { benchQuery(b, st, 1, c.query) })
		b.Run(c.name+"/workers=N", func(b *testing.B) { benchQuery(b, st, 0, c.query) })
	}
}

// BenchmarkBGPJoinObserved measures the observability overhead on the
// BGP-join workload through the string entry point the protocol layer
// uses: "nil" is the uninstrumented engine (must match the plain
// bench), "metrics" has a live registry recording phase histograms.
// The acceptance bar is <2% overhead with metrics on, ~0% with nil.
func BenchmarkBGPJoinObserved(b *testing.B) {
	st, spec := benchStore(b, 5000)
	q := fmt.Sprintf(
		`SELECT ?o ?m ?v WHERE { ?o a <%s> . ?o <%s> ?m . ?o <%s> ?v . } ORDER BY ?o LIMIT 1000`,
		spec.ObservationClass(), spec.NS+spec.Dimensions[0].Pred, spec.NS+spec.Measures[0].Pred)
	run := func(b *testing.B, reg *obs.Registry) {
		eng := NewEngine(st)
		eng.Exec.Workers = 1
		eng.Instrument(reg)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.QueryStringTimed(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil", func(b *testing.B) { run(b, nil) })
	b.Run("metrics", func(b *testing.B) { run(b, obs.NewRegistry()) })
	// The runtime profiler's enabled cost, for comparison; its disabled
	// cost is already inside "nil" (one nil check per operator).
	b.Run("profiled", func(b *testing.B) {
		eng := NewEngine(st)
		eng.Exec.Workers = 1
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.Profile(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGroupBy(b *testing.B) {
	st, spec := benchStore(b, 5000)
	q := fmt.Sprintf(
		`SELECT ?m (COUNT(?o) AS ?n) (SUM(?v) AS ?total) (AVG(?v) AS ?mean) WHERE { ?o <%s> ?m . ?o <%s> ?v . } GROUP BY ?m ORDER BY ?m`,
		spec.NS+spec.Dimensions[0].Pred, spec.NS+spec.Measures[0].Pred)
	b.Run("seq", func(b *testing.B) { benchQuery(b, st, 1, q) })
	b.Run("par", func(b *testing.B) { benchQuery(b, st, 0, q) })
	// DISTINCT: the chunk partials merge by ordered seen-set.
	qd := fmt.Sprintf(
		`SELECT ?m (COUNT(DISTINCT ?v) AS ?n) WHERE { ?o <%s> ?m . ?o <%s> ?v . } GROUP BY ?m ORDER BY ?m`,
		spec.NS+spec.Dimensions[0].Pred, spec.NS+spec.Measures[0].Pred)
	b.Run("distinct-seq", func(b *testing.B) { benchQuery(b, st, 1, qd) })
	b.Run("distinct-par", func(b *testing.B) { benchQuery(b, st, 0, qd) })
}

func BenchmarkUnion(b *testing.B) {
	st, spec := benchStore(b, 5000)
	q := fmt.Sprintf(
		`SELECT ?x WHERE { { ?o <%s> ?x . } UNION { ?o <%s> ?x . } } LIMIT 2000`,
		spec.NS+spec.Dimensions[0].Pred, spec.NS+spec.Dimensions[1].Pred)
	b.Run("seq", func(b *testing.B) { benchQuery(b, st, 1, q) })
	b.Run("par", func(b *testing.B) { benchQuery(b, st, 0, q) })
}
