package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"re2xolap/internal/rdf"
)

// storeModel is the reference the layered store is checked against: a
// plain set of ID triples plus the counters the store's contract fixes.
type storeModel struct {
	set     map[spoTriple]struct{}
	list    []spoTriple // the set in insertion order; a prefix is an earlier state
	pending int         // triples added since the last compaction
	gen     uint64      // +1 per new triple, +1 per non-empty compaction
}

func (m *storeModel) add(t spoTriple, autoCompact int) {
	if _, dup := m.set[t]; dup {
		return
	}
	m.set[t] = struct{}{}
	m.list = append(m.list, t)
	m.pending++
	m.gen++
	if autoCompact > 0 && m.pending >= autoCompact {
		m.compact()
	}
}

func (m *storeModel) compact() {
	if m.pending > 0 {
		m.pending = 0
		m.gen++
	}
}

// matching returns the triples matching the pattern, sorted.
func matching(set []spoTriple, pat spoTriple) []spoTriple {
	var out []spoTriple
	for _, t := range set {
		if matches(t, pat) {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, tripleCmp)
	return out
}

// matcher is what Store and View share.
type matcher interface {
	Match(sub, pred, obj ID, fn func(s, p, o ID) bool)
	MatchCount(sub, pred, obj ID) int
	Len() int
}

// checkReads compares a Store or View with a triple set on Len and, for
// each probe triple, on all 8 bound/unbound patterns of it.
func checkReads(t *testing.T, what string, got matcher, want []spoTriple, probes []spoTriple) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", what, got.Len(), len(want))
	}
	for i, probe := range probes {
		for mask := 0; mask < 8; mask++ {
			if mask == 0 && i > 0 {
				continue // the all-wildcard pattern once
			}
			var pat spoTriple
			for c := 0; c < 3; c++ {
				if mask&(1<<c) != 0 {
					pat[c] = probe[c]
				}
			}
			w := matching(want, pat)
			var g []spoTriple
			got.Match(pat[0], pat[1], pat[2], func(s, p, o ID) bool {
				g = append(g, spoTriple{s, p, o})
				return true
			})
			slices.SortFunc(g, tripleCmp)
			if !slices.Equal(g, w) { // also catches a triple served by two layers
				t.Fatalf("%s: Match%v returned %d triples, want %d (or other ones)", what, pat, len(g), len(w))
			}
			if n := got.MatchCount(pat[0], pat[1], pat[2]); n != len(w) {
				t.Fatalf("%s: MatchCount%v = %d, want %d", what, pat, n, len(w))
			}
		}
	}
}

// checkRunInvariant verifies the shape the write path maintains: a
// tail below its cap and runs that at least double towards the old end.
func checkRunInvariant(t *testing.T, s *Store) {
	t.Helper()
	if len(s.tail) >= tailCap {
		t.Fatalf("tail holds %d triples, cap %d", len(s.tail), tailCap)
	}
	for i := range s.runs {
		r := &s.runs[i]
		for p := range r {
			if !sort.SliceIsSorted(r[p].entries, func(a, b int) bool { return tripleLess(r[p].entries[a], r[p].entries[b]) }) {
				t.Fatalf("run %d permutation %d is not sorted", i, p)
			}
			if len(r[p].entries) != r.size() {
				t.Fatalf("run %d permutation %d holds %d entries, SPO %d", i, p, len(r[p].entries), r.size())
			}
		}
		if i > 0 && s.runs[i-1].size() < runGrowth*r.size() {
			t.Fatalf("run %d (%d triples) is not %dx its younger neighbour (%d)", i-1, s.runs[i-1].size(), runGrowth, r.size())
		}
	}
}

// TestLayeredStoreMatchesModel drives random interleavings of Add (with
// duplicates within and across layers), Compact, AddAll on a non-empty
// store and View against the model, checking every read method at
// pending sizes around each multiple of the tail cap — where tails
// become runs and runs merge — and at random points in between.
func TestLayeredStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			s := New()
			s.autoCompact = []int{0, 0, 1500, 700, 5, tailCap}[seed-1]
			// Terms are interned up front so the model can work in IDs.
			// Subjects double as objects, so OSP and SPO share IDs.
			var subs, preds, objs []rdf.Term
			for i := 0; i < 60; i++ {
				subs = append(subs, iri(fmt.Sprintf("s%d", i)))
			}
			for i := 0; i < 6; i++ {
				preds = append(preds, iri(fmt.Sprintf("p%d", i)))
			}
			objs = append(objs, subs[:20]...)
			for i := 0; i < 30; i++ {
				objs = append(objs, rdf.NewInteger(int64(i)))
			}
			for _, ts := range [][]rdf.Term{subs, preds, objs} {
				for _, tm := range ts {
					s.Dict().Encode(tm)
				}
			}
			randTriple := func() rdf.Triple {
				return rdf.Triple{S: subs[rng.Intn(len(subs))], P: preds[rng.Intn(len(preds))], O: objs[rng.Intn(len(objs))]}
			}
			enc := func(tr rdf.Triple) spoTriple {
				var e spoTriple
				for i, tm := range []rdf.Term{tr.S, tr.P, tr.O} {
					id, ok := s.Dict().Lookup(tm)
					if !ok {
						t.Fatalf("term %v not interned", tm)
					}
					e[i] = id
				}
				return e
			}
			m := &storeModel{set: map[spoTriple]struct{}{}}
			var all []rdf.Triple // every triple ever offered, for duplicates
			offered := func() rdf.Triple {
				if len(all) == 0 {
					return randTriple()
				}
				return all[rng.Intn(len(all))]
			}

			type frozen struct {
				v    *View
				want []spoTriple
				due  int
			}
			var views []frozen

			check := func(step int) {
				t.Helper()
				probes := []spoTriple{enc(randTriple()), enc(randTriple()), enc(offered()), enc(offered()), enc(offered())}
				what := fmt.Sprintf("step %d (pending %d)", step, m.pending)
				checkReads(t, what, s, m.list, probes)
				checkReads(t, what+" view", s.View(), m.list, probes[:2])
				for _, tr := range all[max(0, len(all)-3):] {
					if !s.Contains(tr) {
						t.Fatalf("%s: Contains(%v) = false", what, tr)
					}
				}
				if tr := randTriple(); s.Contains(tr) != (len(matching(m.list, enc(tr))) == 1) {
					t.Fatalf("%s: Contains(%v) = %v", what, tr, s.Contains(tr))
				}
				distinct := func(c int) int {
					ids := map[ID]struct{}{}
					for _, tr := range m.list {
						ids[tr[c]] = struct{}{}
					}
					return len(ids)
				}
				st := s.Stats()
				if st.Triples != len(m.set) || st.DeltaSize != m.pending || st.Subjects != distinct(0) || st.Predicates != distinct(1) {
					t.Fatalf("%s: Stats = %+v, want %d triples, %d pending, %d subjects, %d predicates",
						what, st, len(m.set), m.pending, distinct(0), distinct(1))
				}
				if g := s.Generation(); g != m.gen {
					t.Fatalf("%s: Generation = %d, want %d", what, g, m.gen)
				}
				checkRunInvariant(t, s)
			}

			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(1000); {
				case op < 4:
					s.Compact()
					m.compact()
				case op < 8 && len(m.set) > 0:
					batch := make([]rdf.Triple, 1+rng.Intn(100))
					for i := range batch {
						batch[i] = randTriple()
						m.add(enc(batch[i]), s.autoCompact)
					}
					all = append(all, batch...)
					if err := s.AddAll(batch); err != nil {
						t.Fatal(err)
					}
					m.compact()
				case op < 20:
					views = append(views, frozen{v: s.View(), want: m.list[:len(m.list):len(m.list)], due: step + 1 + rng.Intn(600)})
				default:
					tr := randTriple()
					if rng.Intn(4) == 0 {
						tr = offered() // a duplicate, wherever it lives now
					}
					all = append(all, tr)
					if err := s.Add(tr); err != nil {
						t.Fatal(err)
					}
					m.add(enc(tr), s.autoCompact)
				}
				// Around every multiple of the tail cap, and now and then.
				if near := (m.pending + 1) % tailCap; near <= 2 && m.pending > 2 || rng.Intn(25) == 0 {
					check(step)
				}
				for i := 0; i < len(views); i++ {
					if f := views[i]; f.due <= step {
						checkReads(t, fmt.Sprintf("view due at step %d", f.due), f.v, f.want,
							[]spoTriple{enc(randTriple()), enc(offered())})
						views = append(views[:i], views[i+1:]...)
						i--
					}
				}
			}
			check(4000)
		})
	}
}

// TestStatsCountsPendingTriples: predicate and subject counts cover the
// triples not yet compacted (they used to be read off the base alone).
func TestStatsCountsPendingTriples(t *testing.T) {
	s := New()
	if err := s.AddAll([]rdf.Triple{tr("s1", "p1", "o1"), tr("s2", "p1", "o2")}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if err := s.Add(tr("s3", "p2", "o1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(tr("s1", "p2", "o1")); err != nil { // known subject, same new predicate
		t.Fatal(err)
	}
	got := s.Stats()
	if got.DeltaSize != 2 || got.Predicates != before.Predicates+1 || got.Subjects != before.Subjects+1 {
		t.Fatalf("Stats with pending writes = %+v, before them %+v", got, before)
	}
	s.Compact()
	after := s.Stats()
	if after.DeltaSize != 0 || after.Predicates != got.Predicates || after.Subjects != got.Subjects {
		t.Fatalf("Stats after Compact = %+v, before %+v", after, got)
	}
	if grown := s.EstimatedBytes(); grown <= int64(s.Len())*3*12 {
		t.Fatalf("EstimatedBytes = %d leaves out the offset arrays and the dictionary", grown)
	}
}

// TestViewsUnderWriterCrossingCompaction: one writer adds past an
// automatic compaction (through tail flushes and run merges) while
// readers take fresh views; each view must be internally consistent
// and must hold everything written before it was taken. Run with
// -race -count=10.
func TestViewsUnderWriterCrossingCompaction(t *testing.T) {
	const total, autoCompact, readers = 2600, 1000, 4
	s := New()
	s.autoCompact = autoCompact
	subj := func(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)) }
	p, o := rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/o")
	pid := s.Dict().Encode(p)
	var written atomic.Int64 // triples 0..written-1 are in the store
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if err := s.Add(rdf.Triple{S: subj(i), P: p, O: o}); err != nil {
				t.Error(err)
				return
			}
			written.Store(int64(i + 1))
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for done := false; !done; {
				floor := int(written.Load())
				done = floor == total
				v := s.View()
				n := v.Len()
				if n < floor {
					t.Errorf("view taken after %d writes holds %d triples", floor, n)
					return
				}
				seen := 0
				v.Match(0, pid, 0, func(_, _, _ ID) bool { seen++; return true })
				if seen != n || v.MatchCount(0, pid, 0) != n {
					t.Errorf("inconsistent view: Len %d, Match saw %d, MatchCount %d", n, seen, v.MatchCount(0, pid, 0))
					return
				}
				if floor > 0 {
					id, ok := s.Dict().Lookup(subj(rng.Intn(floor)))
					if !ok || v.MatchCount(id, pid, 0) != 1 {
						t.Errorf("a triple written before the view was taken is missing from it")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != total {
		t.Fatalf("Len = %d, want %d", s.Len(), total)
	}
	if want := uint64(total + total/autoCompact); s.Generation() != want {
		t.Fatalf("Generation = %d, want %d (one per triple, one per compaction)", s.Generation(), want)
	}
}

// TestViewDoesNotCopyPendingTriples: taking a view costs one small
// allocation however many triples are pending.
func TestViewDoesNotCopyPendingTriples(t *testing.T) {
	s := New()
	p := rdf.NewIRI("http://ex/p")
	for i := 0; i < 60000; i++ {
		if err := s.Add(rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), P: p, O: rdf.NewInteger(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.DeltaSize != 60000 {
		t.Fatalf("test setup: %d pending triples, want 60000", st.DeltaSize)
	}
	var v *View
	if allocs := testing.AllocsPerRun(100, func() { v = s.View() }); allocs != 1 && !raceEnabled {
		t.Errorf("View() makes %v allocations, want 1", allocs)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		v = s.View()
	}
	runtime.ReadMemStats(&after)
	if perView := (after.TotalAlloc - before.TotalAlloc) / runs; perView > 512 {
		t.Errorf("View() allocates %d bytes with 60000 triples pending, want a few hundred", perView)
	}
	if v.Len() != 60000 {
		t.Fatalf("view Len = %d", v.Len())
	}
}

func TestScanRange(t *testing.T) {
	entries := []spoTriple{
		{2, 1, 1}, {2, 1, 4}, {2, 3, 2}, {2, 7, 1}, {2, 7, 2}, {2, 7, 9},
		{5, 2, 2},
		{6, 1, 1}, {6, 9, 9},
	}
	tests := []struct {
		name       string
		k1, k2, k3 ID
		lo, hi     int
	}{
		{"unbound", 0, 0, 0, 0, 9},
		{"first bucket", 2, 0, 0, 0, 6},
		{"single-entry bucket", 5, 0, 0, 6, 7},
		{"last bucket", 6, 0, 0, 7, 9},
		{"k1 below the first ID", 1, 0, 0, 0, 0},
		{"k1 in a gap", 4, 0, 0, 6, 6},
		{"k1 is the last ID", 6, 9, 0, 8, 9},
		{"k1 beyond the last ID", 7, 0, 0, 9, 9},
		{"k1 far beyond the last ID", 1 << 31, 1, 1, 9, 9},
		{"k2 first in its bucket", 2, 1, 0, 0, 2},
		{"k2 inside its bucket", 2, 3, 0, 2, 3},
		{"k2 last in its bucket", 2, 7, 0, 3, 6},
		{"k2 first in the last bucket", 6, 1, 0, 7, 8},
		{"k2 absent below the bucket", 5, 1, 0, 6, 6},
		{"k2 absent inside the bucket", 2, 5, 0, 3, 3},
		{"k2 absent above the bucket", 2, 8, 0, 6, 6},
		{"k2 of another bucket", 5, 7, 0, 7, 7},
		{"k3 first", 2, 7, 1, 3, 4},
		{"k3 last", 2, 7, 9, 5, 6},
		{"k3 absent", 2, 7, 5, 5, 5},
		{"full key in a single-entry bucket", 5, 2, 2, 6, 7},
	}
	plain := index{entries: entries}
	offsets := index{entries: entries}
	offsets.buildOffsets()
	if want := []uint32{0, 0, 0, 6, 6, 6, 7, 9}; !reflect.DeepEqual(offsets.off, want) {
		t.Fatalf("offset array = %v, want %v", offsets.off, want)
	}
	for _, tt := range tests {
		for name, ix := range map[string]*index{"run": &plain, "base": &offsets} {
			lo, hi := ix.scanRange(tt.k1, tt.k2, tt.k3)
			// An empty range may sit anywhere; only its emptiness counts.
			if hi-lo != tt.hi-tt.lo || hi > lo && lo != tt.lo {
				t.Errorf("%s (%s): scanRange(%d,%d,%d) = [%d,%d), want [%d,%d)", tt.name, name, tt.k1, tt.k2, tt.k3, lo, hi, tt.lo, tt.hi)
			}
		}
	}
	var empty index
	empty.buildOffsets()
	for _, k1 := range []ID{0, 1, 9} {
		if lo, hi := empty.scanRange(k1, 0, 0); lo != hi {
			t.Errorf("empty index: scanRange(%d) = [%d,%d)", k1, lo, hi)
		}
	}
	if n, more := empty.scan(permSPO, spoTriple{1, 2, 3}, func(_, _, _ ID) bool { return false }); n != 0 || !more {
		t.Errorf("empty index: scan = %d, %v", n, more)
	}
}

// TestPendingLayersPrunedByKeyRange: reads of subjects below, inside,
// between and above the subject ranges of the base, of two runs and of
// the tail, where a run is skipped on its range, agree with the model
// through Match and MatchCount, on the store and on a view.
func TestPendingLayersPrunedByKeyRange(t *testing.T) {
	s := New()
	s.autoCompact = 0
	subs := make([]rdf.Term, 100)
	for i := range subs {
		subs[i] = iri(fmt.Sprintf("s%02d", i))
		s.Dict().Encode(subs[i])
	}
	preds := []rdf.Term{iri("p0"), iri("p1"), iri("p2")}
	m := &storeModel{set: map[spoTriple]struct{}{}}
	triple := func(i, j int) rdf.Triple {
		return rdf.Triple{S: subs[i], P: preds[j%3], O: rdf.NewInteger(int64(j))}
	}
	enc := func(tr rdf.Triple) spoTriple {
		var e spoTriple
		for i, tm := range []rdf.Term{tr.S, tr.P, tr.O} {
			e[i], _ = s.Dict().Lookup(tm)
		}
		return e
	}
	// Subjects 40-49 in the base, 20-29 in the older run (two tails
	// merged), 60-69 in the younger run and 80-84 in the tail.
	var base []rdf.Triple
	for n := 0; n < 100; n++ {
		base = append(base, triple(40+n%10, n))
	}
	if err := s.AddAll(base); err != nil {
		t.Fatal(err)
	}
	add := func(lo, width, count int) {
		for n := 0; n < count; n++ {
			tr := triple(lo+n%width, n)
			if err := s.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(20, 10, 2*tailCap)
	add(60, 10, tailCap)
	add(80, 5, 10)
	for _, tr := range s.Triples() {
		m.add(enc(tr), 0)
	}
	if len(s.runs) != 2 || len(s.tail) != 10 {
		t.Fatalf("layers: %d runs, a tail of %d; want 2 and 10", len(s.runs), len(s.tail))
	}
	var probes []spoTriple
	for _, i := range []int{0, 19, 20, 25, 29, 30, 35, 40, 45, 49, 50, 55, 59, 60, 65, 69, 70, 79, 80, 82, 84, 85, 99} {
		probes = append(probes, enc(triple(i, i)), enc(triple(i, 7)))
	}
	checkReads(t, "store", s, m.list, probes)
	checkReads(t, "view", s.View(), m.list, probes)
}
