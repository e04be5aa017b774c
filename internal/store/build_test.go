package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"re2xolap/internal/rdf"
)

// buildFixture is a seeded triple set with repeats, literal objects
// for the text index, and the same triples dictionary-encoded in
// encounter order (what Build takes).
func buildFixture(seed int64, n int) (ts []rdf.Triple, terms []rdf.Term, enc [][3]ID) {
	rng := rand.New(rand.NewSource(seed))
	ids := map[rdf.Term]ID{}
	intern := func(t rdf.Term) ID {
		id, ok := ids[t]
		if !ok {
			terms = append(terms, t)
			id = ID(len(terms))
			ids[t] = id
		}
		return id
	}
	for i := 0; i < n; i++ {
		t := rdf.Triple{S: iri(fmt.Sprintf("s%d", rng.Intn(40))), P: iri(fmt.Sprintf("p%d", rng.Intn(5)))}
		switch rng.Intn(3) {
		case 0:
			t.O = iri(fmt.Sprintf("s%d", rng.Intn(40)))
		case 1:
			t.O = rdf.NewLangString(fmt.Sprintf("Label number %d of Germany", rng.Intn(30)), "en")
		default:
			t.O = rdf.NewInteger(int64(rng.Intn(50)))
		}
		ts = append(ts, t)
		enc = append(enc, [3]ID{intern(t.S), intern(t.P), intern(t.O)})
	}
	return ts, terms, enc
}

// requireSameContents compares two stores on everything a reader can
// observe: dictionary, Match and MatchCount per access pattern,
// TextSearch and Stats.
func requireSameContents(t *testing.T, got, want *Store) {
	t.Helper()
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("Stats = %+v, want %+v", g, w)
	}
	n := want.Dict().Len()
	for id := ID(1); int(id) <= n; id++ {
		if g, w := got.Dict().Decode(id), want.Dict().Decode(id); g != w {
			t.Fatalf("ID %d decodes to %v, want %v", id, g, w)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		var pat [3]ID
		for j := range pat {
			if rng.Intn(2) == 0 {
				pat[j] = ID(1 + rng.Intn(n))
			}
		}
		g, w := collectMatch(got, pat[0], pat[1], pat[2]), collectMatch(want, pat[0], pat[1], pat[2])
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("Match%v = %v, want %v", pat, g, w)
		}
		if gc, wc := got.MatchCount(pat[0], pat[1], pat[2]), want.MatchCount(pat[0], pat[1], pat[2]); gc != wc || gc != len(w) {
			t.Fatalf("MatchCount%v = %d, want %d (%d matches)", pat, gc, wc, len(w))
		}
	}
	if !reflect.DeepEqual(got.Triples(), want.Triples()) {
		t.Fatal("Triples() order differs")
	}
	for _, kw := range []string{"germany", "label number 7", "number 1", "nothing"} {
		if g, w := got.TextSearch(kw), want.TextSearch(kw); !reflect.DeepEqual(g, w) {
			t.Fatalf("TextSearch(%q) = %v, want %v", kw, g, w)
		}
	}
}

// TestBuildEqualsIncremental: the from-scratch constructor, AddAll and
// Load on an empty store (which delegate to it) all produce the store
// the one-triple-at-a-time delta path produces.
func TestBuildEqualsIncremental(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ts, terms, enc := buildFixture(seed, 30*int(seed))

		want := New()
		for _, tr := range ts {
			if err := want.Add(tr); err != nil {
				t.Fatal(err)
			}
		}
		want.Compact()

		built, err := Build(terms, enc)
		if err != nil {
			t.Fatal(err)
		}
		requireSameContents(t, built, want)

		bulk := New()
		if err := bulk.AddAll(ts); err != nil {
			t.Fatal(err)
		}
		requireSameContents(t, bulk, want)

		var nt strings.Builder
		for _, tr := range ts {
			fmt.Fprintln(&nt, tr)
		}
		loaded := New()
		if n, err := loaded.Load(strings.NewReader(nt.String())); err != nil || n != len(ts) {
			t.Fatalf("Load = %d, %v; want %d triples", n, err, len(ts))
		}
		requireSameContents(t, loaded, want)

		// New distinct triples + one compaction, on every path.
		for name, st := range map[string]*Store{"Build": built, "AddAll": bulk, "Load": loaded} {
			if g, w := st.Generation(), want.Generation(); g != w || g == 0 {
				t.Errorf("seed %d: %s generation = %d, incremental path %d", seed, name, g, w)
			}
		}
	}
}

// TestBuildThenWrite: a built store is an ordinary store afterwards —
// later writes go through the pending layers and see the built base.
func TestBuildThenWrite(t *testing.T) {
	ts, terms, enc := buildFixture(3, 200)
	s, err := Build(terms, enc)
	if err != nil {
		t.Fatal(err)
	}
	gen, n := s.Generation(), s.Len()
	if err := s.Add(ts[0]); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != gen || s.Len() != n {
		t.Fatalf("re-adding a built triple changed the store: gen %d→%d, len %d→%d", gen, s.Generation(), n, s.Len())
	}
	fresh := tr("new-s", "new-p", "new-o")
	if err := s.AddAll([]rdf.Triple{fresh, ts[1]}); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(fresh) || s.Len() != n+1 {
		t.Fatalf("AddAll after Build: Contains = %v, Len = %d, want %d", s.Contains(fresh), s.Len(), n+1)
	}
	if g := s.Generation(); g != gen+2 {
		t.Fatalf("generation after one new triple = %d, want %d (insert + compaction)", g, gen+2)
	}
}

func TestBuildEmpty(t *testing.T) {
	s, err := Build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Generation() != 0 {
		t.Fatalf("empty build: Len = %d, Generation = %d", s.Len(), s.Generation())
	}
	if err := s.Add(tr("s", "p", "o")); err != nil || s.Len() != 1 {
		t.Fatalf("Add after empty build: %v, Len = %d", err, s.Len())
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	a, p, lit := iri("a"), iri("p"), rdf.NewString("x")
	for name, in := range map[string]struct {
		terms   []rdf.Term
		triples [][3]ID
	}{
		"duplicate term":    {[]rdf.Term{a, p, a}, [][3]ID{{1, 2, 3}}},
		"zero ID":           {[]rdf.Term{a, p}, [][3]ID{{1, 2, 0}}},
		"ID out of range":   {[]rdf.Term{a, p}, [][3]ID{{1, 2, 3}}},
		"literal subject":   {[]rdf.Term{a, p, lit}, [][3]ID{{3, 2, 1}}},
		"literal predicate": {[]rdf.Term{a, p, lit}, [][3]ID{{1, 3, 1}}},
	} {
		if _, err := Build(in.terms, in.triples); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestIngestErrorKeepsPrefix: a bad triple stops a bulk insert with an
// error and leaves what was read before it queryable.
func TestIngestErrorKeepsPrefix(t *testing.T) {
	bad := rdf.Triple{S: rdf.NewString("lit"), P: iri("p"), O: iri("o")}
	s := New()
	if err := s.AddAll([]rdf.Triple{tr("a", "p", "b"), bad, tr("c", "p", "d")}); err == nil {
		t.Fatal("AddAll accepted a literal subject")
	}
	if !s.Contains(tr("a", "p", "b")) || s.Contains(tr("c", "p", "d")) || s.Len() != 1 {
		t.Fatalf("after failed AddAll on an empty store: Len = %d", s.Len())
	}
	if err := s.AddAll([]rdf.Triple{tr("e", "p", "f"), bad}); err == nil {
		t.Fatal("AddAll accepted a literal subject")
	}
	if !s.Contains(tr("e", "p", "f")) || s.Len() != 2 {
		t.Fatalf("after failed AddAll on a loaded store: Len = %d", s.Len())
	}
}
