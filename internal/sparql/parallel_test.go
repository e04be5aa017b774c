package sparql

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"re2xolap/internal/datagen"
	"re2xolap/internal/rdf"
)

// parQueries builds the mixed query workload for a datagen spec: BGP
// joins, short-circuit LIMIT scans, mergeable and DISTINCT aggregates,
// UNION, OPTIONAL, FILTER, and ASK — every shape the parallel executor
// forks on.
func parQueries(spec datagen.Spec) []string {
	ns := spec.NS
	obs := spec.ObservationClass()
	dim := ns + spec.Dimensions[0].Pred
	dim2 := ns + spec.Dimensions[1].Pred
	meas := ns + spec.Measures[0].Pred
	qs := []string{
		// multi-pattern join, deterministic order
		fmt.Sprintf(`SELECT ?o ?m ?v WHERE { ?o a <%s> . ?o <%s> ?m . ?o <%s> ?v . } ORDER BY ?o ?m ?v LIMIT 200`, obs, dim, meas),
		// plain LIMIT: exercises the parallel DFS frontier
		fmt.Sprintf(`SELECT ?o ?m WHERE { ?o a <%s> . ?o <%s> ?m . } LIMIT 137`, obs, dim),
		// aggregate battery (chunk partials add / keep the earlier value)
		fmt.Sprintf(`SELECT ?m (COUNT(?o) AS ?n) (SUM(?v) AS ?total) (AVG(?v) AS ?mean) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?o <%s> ?m . ?o <%s> ?v . } GROUP BY ?m ORDER BY DESC(?n) ?m`, dim, meas),
		// DISTINCT aggregate (ordered seen-set merge)
		fmt.Sprintf(`SELECT ?m (COUNT(DISTINCT ?g) AS ?n) WHERE { ?o <%s> ?m . ?o <%s> ?g . } GROUP BY ?m ORDER BY ?m`, dim, dim2),
		// HAVING over a mergeable aggregate
		fmt.Sprintf(`SELECT ?m (COUNT(?o) AS ?n) WHERE { ?o <%s> ?m . } GROUP BY ?m HAVING (COUNT(?o) > 3) ORDER BY ?m`, dim),
		// UNION branches run concurrently
		fmt.Sprintf(`SELECT DISTINCT ?x WHERE { { ?o <%s> ?x . } UNION { ?o <%s> ?x . } } ORDER BY ?x LIMIT 80`, dim, dim2),
		// OPTIONAL + FILTER
		fmt.Sprintf(`SELECT ?o ?v WHERE { ?o a <%s> . ?o <%s> ?v . FILTER(?v > 10) OPTIONAL { ?o <%s> ?m . } } ORDER BY ?v ?o LIMIT 60`, obs, meas, dim),
		// aggregate without GROUP BY
		fmt.Sprintf(`SELECT (COUNT(?o) AS ?n) (SUM(?v) AS ?total) WHERE { ?o <%s> ?v . }`, meas),
		// ASK stays sequential (budget 1) under any worker count
		fmt.Sprintf(`ASK { ?o a <%s> . ?o <%s> ?m . }`, obs, dim),
	}
	return qs
}

// TestParallelMatchesSequential asserts that the parallel executor
// produces byte-identical Results to the sequential one on randomized
// datagen graphs, across the query shapes the executor forks on —
// including ORDER BY and LIMIT, where merge order is load-bearing.
func TestParallelMatchesSequential(t *testing.T) {
	specs := []datagen.Spec{
		datagen.EurostatLike(1500),
		datagen.ProductionLike(1000),
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			st, err := spec.BuildStore()
			if err != nil {
				t.Fatal(err)
			}
			seq := NewEngine(st)
			seq.Exec.Workers = 1
			// Low threshold + more workers than cores so the parallel
			// code paths engage regardless of the host's CPU count.
			par := NewEngine(st)
			par.Exec = ExecOptions{Workers: 4, ParallelThreshold: 2}
			for qi, q := range parQueries(spec) {
				want, err := seq.QueryString(q)
				if err != nil {
					t.Fatalf("query %d sequential: %v\n%s", qi, err, q)
				}
				got, err := par.QueryString(q)
				if err != nil {
					t.Fatalf("query %d parallel: %v\n%s", qi, err, q)
				}
				if want.IsAsk != got.IsAsk || want.Boolean != got.Boolean {
					t.Fatalf("query %d: ASK mismatch: seq %v par %v", qi, want.Boolean, got.Boolean)
				}
				if ws, gs := want.String(), got.String(); ws != gs {
					t.Errorf("query %d: parallel result differs from sequential\nquery: %s\n--- sequential ---\n%s\n--- parallel ---\n%s", qi, q, ws, gs)
				}
			}
		})
	}
}

// TestParallelSubqueryAndClosure covers the remaining fork-adjacent
// shapes (subselect seeding, transitive closure) on the hand-built
// store.
func TestParallelSubqueryAndClosure(t *testing.T) {
	st := testStore(t)
	seq := NewEngine(st)
	seq.Exec.Workers = 1
	par := NewEngine(st)
	par.Exec = ExecOptions{Workers: 4, ParallelThreshold: 1}
	queries := []string{
		`SELECT ?c ?l WHERE { { SELECT ?c WHERE { ?x <http://ex.org/inContinent> ?c . } } ?c <http://ex.org/label> ?l . } ORDER BY ?l`,
		`SELECT ?s ?t WHERE { ?s <http://ex.org/inContinent>+ ?t . } ORDER BY ?s ?t`,
	}
	for qi, q := range queries {
		want, err := seq.QueryString(q)
		if err != nil {
			t.Fatalf("query %d sequential: %v", qi, err)
		}
		got, err := par.QueryString(q)
		if err != nil {
			t.Fatalf("query %d parallel: %v", qi, err)
		}
		if want.String() != got.String() {
			t.Errorf("query %d: mismatch\n--- sequential ---\n%s\n--- parallel ---\n%s", qi, want.String(), got.String())
		}
	}
}

// TestEngineConcurrentMixedQueries hammers one shared Engine from many
// goroutines with mixed SELECT/ASK/GROUP BY queries while a writer
// keeps inserting triples — the -race regression test for the
// snapshot-isolated read path and the per-query executor state.
func TestEngineConcurrentMixedQueries(t *testing.T) {
	spec := datagen.EurostatLike(600)
	st, err := spec.BuildStore()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)
	eng.Exec = ExecOptions{Workers: 4, ParallelThreshold: 2}
	queries := parQueries(spec)

	var wg, writerWG sync.WaitGroup
	stop := make(chan struct{})
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = st.Add(rdf.NewTriple(
				rdf.NewIRI(fmt.Sprintf("%sextra/%d", spec.NS, i)),
				rdf.NewIRI(spec.NS+"note"),
				rdf.NewString(fmt.Sprintf("note %d", i))))
			if i%64 == 0 {
				st.Compact()
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(queries); i++ {
				q := queries[(g+i)%len(queries)]
				if _, err := eng.QueryString(q); err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
}

// TestExplainReportsParallelism checks the plan line for both modes.
func TestExplainReportsParallelism(t *testing.T) {
	st := testStore(t)
	eng := NewEngine(st)
	eng.Exec = ExecOptions{Workers: 4, ParallelThreshold: 10}
	plan, err := eng.ExplainString(`SELECT ?m (COUNT(?o) AS ?n) WHERE { ?o <http://ex.org/origin> ?m . } GROUP BY ?m`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"4 workers", ">=10 rows", "4 aggregation chunks"} {
		if !strings.Contains(plan, want) {
			t.Errorf("explain plan missing %q:\n%s", want, plan)
		}
	}
	eng.Exec = ExecOptions{Workers: 1}
	plan, err = eng.ExplainString(`SELECT ?o WHERE { ?o <http://ex.org/origin> ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "parallel: off") {
		t.Errorf("explain plan missing sequential marker:\n%s", plan)
	}
}
