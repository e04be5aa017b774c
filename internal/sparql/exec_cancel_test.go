package sparql

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// chainStore builds a linear hierarchy a0 -> a1 -> ... -> aN plus fan,
// so transitive-closure queries have real work to do.
func chainStore(t testing.TB, n int) *store.Store {
	t.Helper()
	st := store.New()
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		ts = append(ts, rdf.NewTriple(ex(fmt.Sprintf("a%d", i)), ex("up"), ex(fmt.Sprintf("a%d", i+1))))
		// side branches give the BFS a frontier wider than one
		ts = append(ts, rdf.NewTriple(ex(fmt.Sprintf("b%d", i)), ex("up"), ex(fmt.Sprintf("a%d", i))))
	}
	if err := st.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestExecCancelledClosure: a cancelled context stops transitive
// closure expansion with an error instead of returning a partial
// (silently wrong) closure.
func TestExecCancelledClosure(t *testing.T) {
	st := chainStore(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := NewEngine(st).QueryStringTimed(ctx,
		`SELECT ?x WHERE { <http://ex.org/a0> <http://ex.org/up>+ ?x . }`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecCancelledAggregation: GROUP BY must not emit rows computed
// under a dead context.
func TestExecCancelledAggregation(t *testing.T) {
	st := testStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := NewEngine(st).QueryStringTimed(ctx,
		`SELECT ?d (SUM(?v) AS ?total) WHERE { ?o <http://ex.org/dest> ?d . ?o <http://ex.org/value> ?v . } GROUP BY ?d`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecCancelStopsSampleAndGroupConcat: the aggregate fold polls for
// cancellation on every row whatever the function, so a cancelled
// SAMPLE / GROUP_CONCAT over one large group stops at the first poll —
// within one cancelCheckInterval — instead of running the group to its
// end, and the query returns ctx.Err() and no rows.
func TestExecCancelStopsSampleAndGroupConcat(t *testing.T) {
	st := chainStore(t, 1)
	q, err := Parse(`SELECT ?g (SAMPLE(?v) AS ?any) (GROUP_CONCAT(?v) AS ?all) WHERE { ?g <http://ex.org/up> ?v . } GROUP BY ?g`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		eng := NewEngine(st)
		eng.Exec.Workers = workers
		ex := eng.newExecutor(ctx, st.View(), nil)
		g, _ := st.Dict().Lookup(rdf.NewIRI("http://ex.org/a0"))
		v, _ := st.Dict().Lookup(rdf.NewIRI("http://ex.org/a1"))
		rows := make([]row, 3*workers*cancelCheckInterval)
		for i := range rows {
			rows[i] = row{g, v}
		}
		ex.slot("g")
		ex.slot("v")

		tab := ex.foldRows(ex.compileFold(newAggSpec(q)), rows)
		if n := len(tab.groups[tab.order[0]].parts[1].parts); n >= cancelCheckInterval {
			t.Errorf("workers=%d: fold concatenated %d of %d values after the cancel, want < %d",
				workers, n, len(rows), cancelCheckInterval)
		}

		res, err := ex.aggregate(q, rows)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("workers=%d: aggregate = (%v, %v), want (nil, context.Canceled)", workers, res, err)
		}
	}
}

// TestExecDeadlineStopsClosurePromptly: an expired deadline on a large
// closure query surfaces DeadlineExceeded without walking the rest of
// the graph.
func TestExecDeadlineStopsClosurePromptly(t *testing.T) {
	st := chainStore(t, 2000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(5 * time.Millisecond) // let the deadline pass before work starts
	t0 := time.Now()
	_, _, err := NewEngine(st).QueryStringTimed(ctx,
		`SELECT ?x ?y WHERE { ?x <http://ex.org/up>+ ?y . }`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Errorf("query ran %s after its deadline expired", elapsed)
	}
}

// TestExecCancelStopsJoin: cancelling mid-query must abort the pattern
// join wherever it is — on a cartesian product any of its loops alone
// can run for minutes after the client is gone. Found by driving
// sparqld: killed clients left their in-flight slots occupied.
func TestExecCancelStopsJoin(t *testing.T) {
	st := chainStore(t, 400) // 800 triples → 800³ product rows
	const product = `{ ?a ?p ?b . ?c ?q ?d . ?e ?r ?f . }`
	for _, tc := range []struct {
		name  string
		exec  ExecOptions
		query string
	}{
		// One goroutine, the whole time inside the third step's Match.
		{"deep step", ExecOptions{Workers: 1}, `SELECT (COUNT(?a) AS ?n) WHERE ` + product},
		// Budget 1 stays sequential under any worker count; the filter
		// rejects every row of the last step.
		{"budgeted search", ExecOptions{Workers: 4}, `ASK { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f . FILTER (?a = ?f && ?a != ?a) }`},
		// The frontier splits after the first step: every clone pipelines
		// the other two over its chunk.
		{"worker clones", ExecOptions{Workers: 4, ParallelThreshold: 2}, `SELECT (COUNT(?a) AS ?n) WHERE ` + product},
		// Never wide enough to split: the pool expands step by step, and
		// the third expansion loops over an 800² seed.
		{"seed loop", ExecOptions{Workers: 4, ParallelThreshold: 1 << 30}, `SELECT (COUNT(?a) AS ?n) WHERE ` + product},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(st)
			eng.Exec = tc.exec
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, _, err := eng.QueryStringTimed(ctx, tc.query)
				done <- err
			}()
			time.Sleep(50 * time.Millisecond) // let the join get going
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the join ignored cancellation")
			}
		})
	}
}

// TestExecCancelStopsBudgetedJoin: a query that starts under a dead
// context must notice inside the join's recursion, not only at pattern
// boundaries: ASK with an unsatisfiable filter explores the whole
// product space before giving up.
func TestExecCancelStopsBudgetedJoin(t *testing.T) {
	st := chainStore(t, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := NewEngine(st).QueryStringTimed(ctx,
		`ASK { ?a ?p ?b . ?c ?q ?d . ?e ?r ?f . FILTER (?a = ?f && ?a != ?a) }`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecContextNilSafe: queries without a context still work (the
// executor treats a nil context as "never cancelled").
func TestExecContextNilSafe(t *testing.T) {
	st := chainStore(t, 10)
	res, err := NewEngine(st).QueryString(
		`SELECT ?x WHERE { <http://ex.org/a0> <http://ex.org/up>+ ?x . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Errorf("closure size = %d, want 10", res.Len())
	}
}
