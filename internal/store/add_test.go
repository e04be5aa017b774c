package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"re2xolap/internal/rdf"
)

// modelIDs encodes triples whose terms are all interned.
func modelIDs(t *testing.T, d *Dict, trs ...rdf.Triple) []spoTriple {
	t.Helper()
	out := make([]spoTriple, len(trs))
	for i, tr := range trs {
		for c, tm := range []rdf.Term{tr.S, tr.P, tr.O} {
			id, ok := d.Lookup(tm)
			if !ok {
				t.Fatalf("term %v of a stored triple is not interned", tm)
			}
			out[i][c] = id
		}
	}
	return out
}

// TestConcurrentWritersMatchModel: writers add overlapping triple sets
// in the same order, over terms none of them has seen, so they race to
// mint every term and to insert every triple, and each re-adds earlier
// triples too. An Add that mints a term skips the duplicate probe; if
// the mint and the insert were not one critical section, two writers
// would both store a triple and Len, Generation and the reads would
// count it twice. Run with -race -count=10.
func TestConcurrentWritersMatchModel(t *testing.T) {
	const writers, autoCompact = 4, 250
	// A new subject every 3 triples and a new object every triple, half
	// of them literals (the full-text index path), one predicate new
	// every 100 triples.
	var pool []rdf.Triple
	for i := 0; i < 900; i++ {
		o := rdf.NewIRI(fmt.Sprintf("http://ex/o%d", i))
		if i%2 == 1 {
			o = rdf.NewString(fmt.Sprintf("label %d", i))
		}
		pool = append(pool, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i/3)),
			P: rdf.NewIRI(fmt.Sprintf("http://ex/p%d", i%5+i/100*5)),
			O: o,
		})
	}
	s := New()
	s.autoCompact = autoCompact
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			<-start
			for i, tr := range pool {
				if err := s.Add(tr); err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(4) == 0 { // a duplicate, wherever it lives now
					if err := s.Add(pool[rng.Intn(i+1)]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	want := modelIDs(t, s.Dict(), pool...)
	distinct := len(pool)
	if n := s.Len(); n != distinct {
		t.Fatalf("Len = %d, want %d distinct triples", n, distinct)
	}
	if g, w := s.Generation(), uint64(distinct+distinct/autoCompact); g != w {
		t.Fatalf("Generation = %d, want %d (one per distinct triple, one per compaction)", g, w)
	}
	rng := rand.New(rand.NewSource(1))
	probes := make([]spoTriple, 48)
	for i := range probes {
		probes[i] = want[rng.Intn(len(want))]
	}
	checkReads(t, "after the writers", s, want, probes)
	checkReads(t, "view after the writers", s.View(), want, probes)
	checkRunInvariant(t, s)
	for _, tr := range pool {
		if !s.Contains(tr) {
			t.Fatalf("Contains(%v) = false", tr)
		}
	}
	s.Compact()
	checkReads(t, "compacted", s, want, probes)
}

// TestAddMatchesModel drives rdf.Triple values through Add and AddAll
// against the storeModel, with terms minted as the triples arrive — so
// the path that skips the duplicate probe for a fresh term and the
// writer's subject and predicate memo both run — in subject-grouped and
// interleaved orders, with duplicates of just-minted triples and of
// older ones, and AddAll into a non-empty store.
func TestAddMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			s := New()
			s.autoCompact = []int{0, 700, 5, tailCap}[seed-1]
			m := &storeModel{set: map[spoTriple]struct{}{}}
			var subs, preds, objs []rdf.Term
			fresh := 0
			newTerm := func(kind int) rdf.Term {
				fresh++
				switch kind {
				case 0:
					return rdf.NewIRI(fmt.Sprintf("http://ex/s%d", fresh))
				case 1:
					return rdf.NewIRI(fmt.Sprintf("http://ex/p%d", fresh))
				case 2:
					return rdf.NewInteger(int64(fresh))
				default:
					return rdf.NewLangString(fmt.Sprintf("name %d", fresh), "en")
				}
			}
			// pick returns a known term of the list or, with probability
			// 1/freshOdds (always for an empty list), a new one.
			pick := func(list *[]rdf.Term, kind, freshOdds int) rdf.Term {
				if len(*list) == 0 || rng.Intn(freshOdds) == 0 {
					*list = append(*list, newTerm(kind))
					return (*list)[len(*list)-1]
				}
				return (*list)[rng.Intn(len(*list))]
			}
			object := func() rdf.Term {
				if len(subs) > 0 && rng.Intn(4) == 0 {
					return subs[rng.Intn(len(subs))] // shared by SPO and OSP
				}
				return pick(&objs, 2+rng.Intn(2), 3)
			}
			var all []rdf.Triple
			add := func(tr rdf.Triple) {
				t.Helper()
				if err := s.Add(tr); err != nil {
					t.Fatal(err)
				}
				all = append(all, tr)
				m.add(modelIDs(t, s.Dict(), tr)[0], s.autoCompact)
			}
			check := func(step int) {
				t.Helper()
				var probes []spoTriple
				for i := 0; i < 4 && len(all) > 0; i++ {
					probes = append(probes, modelIDs(t, s.Dict(), all[len(all)-1-rng.Intn(min(len(all), 70))])[0])
				}
				what := fmt.Sprintf("step %d (pending %d)", step, m.pending)
				checkReads(t, what, s, m.list, probes)
				checkReads(t, what+" view", s.View(), m.list, probes[:min(1, len(probes))])
				if g := s.Generation(); g != m.gen {
					t.Fatalf("%s: Generation = %d, want %d", what, g, m.gen)
				}
				if st := s.Stats(); st.Triples != len(m.set) || st.DeltaSize != m.pending {
					t.Fatalf("%s: Stats = %+v, want %d triples, %d pending", what, st, len(m.set), m.pending)
				}
				checkRunInvariant(t, s)
			}

			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(100); {
				case op < 35: // one subject's triples in a row, the subject maybe new
					sub := pick(&subs, 0, 4)
					for n := 1 + rng.Intn(6); n > 0; n-- {
						add(rdf.Triple{S: sub, P: pick(&preds, 1, 40), O: object()})
					}
				case op < 70: // interleaved
					add(rdf.Triple{S: pick(&subs, 0, 6), P: pick(&preds, 1, 40), O: object()})
				case op < 80 && len(all) > 0: // a duplicate of a just-minted triple
					add(all[len(all)-1-rng.Intn(min(len(all), 3))])
				case op < 88 && len(all) > 0: // a duplicate from anywhere
					add(all[rng.Intn(len(all))])
				case op < 90 && len(all) > 0: // AddAll into a non-empty store
					batch := make([]rdf.Triple, 1+rng.Intn(80))
					for i := range batch {
						if rng.Intn(3) == 0 {
							batch[i] = all[rng.Intn(len(all))]
						} else {
							batch[i] = rdf.Triple{S: pick(&subs, 0, 5), P: pick(&preds, 1, 40), O: object()}
						}
					}
					if err := s.AddAll(batch); err != nil {
						t.Fatal(err)
					}
					for _, id := range modelIDs(t, s.Dict(), batch...) {
						m.add(id, s.autoCompact)
					}
					m.compact()
					all = append(all, batch...)
				case op < 91:
					s.Compact()
					m.compact()
				default:
					continue
				}
				if near := (m.pending + 1) % tailCap; near <= 2 && m.pending > 2 || rng.Intn(20) == 0 {
					check(step)
				}
			}
			check(3000)
		})
	}
}

// TestAddKnownTermsDoesNotAllocate pins the steady state of the write
// path: an Add of a new triple over interned terms, between tail
// flushes, allocates nothing.
func TestAddKnownTermsDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	s := New()
	var subs, objs []rdf.Term
	p := rdf.NewIRI("http://ex/p")
	for i := 0; i < 60; i++ {
		subs = append(subs, rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)))
		objs = append(objs, rdf.NewString(fmt.Sprintf("value %d", i)))
	}
	// Store every term once, so the literals are in the text index too.
	for i := range subs {
		if err := s.Add(rdf.Triple{S: subs[i], P: p, O: objs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	s.Compact()
	next := 0
	add := func() {
		// Subject-grouped: the same subject for three triples in a row.
		tr := rdf.Triple{S: subs[next/3], P: p, O: objs[(next+1)%len(objs)]}
		next++
		if err := s.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	add() // starts a tail
	if allocs := testing.AllocsPerRun(50, add); allocs != 0 {
		t.Errorf("Add of a known-term triple makes %v allocations, want 0", allocs)
	}
	if len(s.tail) != next || len(s.runs) != 0 {
		t.Fatalf("test setup: %d triples in the tail, %d runs, want all %d added in one tail", len(s.tail), len(s.runs), next)
	}
}
