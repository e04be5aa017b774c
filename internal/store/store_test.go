package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"re2xolap/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://ex.org/" + s) }

func tr(s, p, o string) rdf.Triple {
	return rdf.NewTriple(iri(s), iri(p), iri(o))
}

func TestAddContainsLen(t *testing.T) {
	s := New()
	if s.Len() != 0 {
		t.Fatalf("empty store Len = %d", s.Len())
	}
	t1 := tr("s1", "p1", "o1")
	if err := s.Add(t1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(t1); err != nil { // duplicate
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len after duplicate add = %d, want 1", s.Len())
	}
	if !s.Contains(t1) {
		t.Error("Contains(t1) = false")
	}
	if s.Contains(tr("s1", "p1", "o2")) {
		t.Error("Contains(absent) = true")
	}
	s.Compact()
	if s.Len() != 1 || !s.Contains(t1) {
		t.Error("compaction lost the triple")
	}
	if err := s.Add(t1); err != nil { // duplicate against compacted base
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len after post-compact duplicate = %d, want 1", s.Len())
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	s := New()
	bad := rdf.NewTriple(rdf.NewString("lit"), iri("p"), iri("o"))
	if err := s.Add(bad); err == nil {
		t.Error("literal subject accepted")
	}
}

func collectMatch(s *Store, sub, pred, obj ID) []spoTriple {
	var out []spoTriple
	s.Match(sub, pred, obj, func(ts, tp, to ID) bool {
		out = append(out, spoTriple{ts, tp, to})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return tripleLess(out[i], out[j]) })
	return out
}

func TestMatchPatterns(t *testing.T) {
	s := New()
	data := []rdf.Triple{
		tr("s1", "p1", "o1"), tr("s1", "p1", "o2"), tr("s1", "p2", "o1"),
		tr("s2", "p1", "o1"), tr("s2", "p2", "o3"),
	}
	if err := s.AddAll(data); err != nil {
		t.Fatal(err)
	}
	d := s.Dict()
	id := func(name string) ID {
		v, ok := d.Lookup(iri(name))
		if !ok {
			t.Fatalf("unknown term %s", name)
		}
		return v
	}
	tests := []struct {
		name    string
		s, p, o ID
		want    int
	}{
		{"all", 0, 0, 0, 5},
		{"s", id("s1"), 0, 0, 3},
		{"p", 0, id("p1"), 0, 3},
		{"o", 0, 0, id("o1"), 3},
		{"sp", id("s1"), id("p1"), 0, 2},
		{"po", 0, id("p1"), id("o1"), 2},
		{"so", id("s1"), 0, id("o1"), 2},
		{"spo", id("s2"), id("p2"), id("o3"), 1},
		{"none", id("s2"), id("p2"), id("o1"), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := collectMatch(s, tt.s, tt.p, tt.o)
			if len(got) != tt.want {
				t.Errorf("Match(%v,%v,%v) returned %d, want %d", tt.s, tt.p, tt.o, len(got), tt.want)
			}
			if n := s.MatchCount(tt.s, tt.p, tt.o); n != tt.want {
				t.Errorf("MatchCount = %d, want %d", n, tt.want)
			}
		})
	}
}

func TestMatchSeesDelta(t *testing.T) {
	s := New()
	s.autoCompact = 0 // keep everything in the delta
	if err := s.Add(tr("s", "p", "o")); err != nil {
		t.Fatal(err)
	}
	d := s.Dict()
	pid, _ := d.Lookup(iri("p"))
	if got := collectMatch(s, 0, pid, 0); len(got) != 1 {
		t.Fatalf("delta triple not visible to Match: %v", got)
	}
	if st := s.Stats(); st.DeltaSize != 1 {
		t.Errorf("DeltaSize = %d, want 1", st.DeltaSize)
	}
}

func TestMatchEarlyStop(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		if err := s.Add(tr(fmt.Sprintf("s%d", i), "p", "o")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	s.Match(0, 0, 0, func(ID, ID, ID) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	terms := []rdf.Term{
		rdf.NewIRI("http://a"), rdf.NewString("a"), rdf.NewLangString("a", "en"),
		rdf.NewTyped("a", rdf.XSDString), rdf.NewBlank("a"), rdf.NewInteger(1),
	}
	ids := map[ID]bool{}
	for _, tm := range terms {
		id := d.Encode(tm)
		if ids[id] {
			t.Errorf("duplicate id %d for %v", id, tm)
		}
		ids[id] = true
		if got := d.Decode(id); got != tm {
			t.Errorf("Decode(Encode(%v)) = %v", tm, got)
		}
		if id2 := d.Encode(tm); id2 != id {
			t.Errorf("re-Encode(%v) = %d, want %d", tm, id2, id)
		}
	}
	if d.Len() != len(terms) {
		t.Errorf("Len = %d, want %d", d.Len(), len(terms))
	}
	if n, ok := d.Numeric(d.Encode(rdf.NewInteger(1))); !ok || n != 1 {
		t.Errorf("Numeric cache = %v,%v", n, ok)
	}
	if _, ok := d.Numeric(d.Encode(rdf.NewString("a"))); ok {
		t.Error("string literal reported numeric")
	}
}

// Property: a randomly generated triple set is fully recoverable
// regardless of interleaved Add/Compact operations.
func TestQuickStoreRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		s.autoCompact = 8 // force frequent compactions
		want := map[rdf.Triple]bool{}
		for i := 0; i < int(n); i++ {
			tri := tr(
				fmt.Sprintf("s%d", rng.Intn(10)),
				fmt.Sprintf("p%d", rng.Intn(4)),
				fmt.Sprintf("o%d", rng.Intn(10)),
			)
			want[tri] = true
			if s.Add(tri) != nil {
				return false
			}
		}
		if s.Len() != len(want) {
			return false
		}
		got := s.Triples()
		if len(got) != len(want) {
			return false
		}
		for _, tri := range got {
			if !want[tri] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: MatchCount equals the length of Match output for random
// patterns.
func TestQuickMatchCountConsistent(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		_ = s.Add(tr(
			fmt.Sprintf("s%d", rng.Intn(20)),
			fmt.Sprintf("p%d", rng.Intn(5)),
			fmt.Sprintf("o%d", rng.Intn(20)),
		))
	}
	f := func(sx, px, ox uint8) bool {
		var sub, pred, obj ID
		if sx%3 == 0 {
			sub, _ = s.Dict().Lookup(iri(fmt.Sprintf("s%d", sx%20)))
		}
		if px%2 == 0 {
			pred, _ = s.Dict().Lookup(iri(fmt.Sprintf("p%d", px%5)))
		}
		if ox%3 == 0 {
			obj, _ = s.Dict().Lookup(iri(fmt.Sprintf("o%d", ox%20)))
		}
		return s.MatchCount(sub, pred, obj) == len(collectMatch(s, sub, pred, obj))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLoad(t *testing.T) {
	src := `@prefix ex: <http://ex.org/> .
ex:s ex:p ex:o ; ex:q "v" .
`
	s := New()
	n, err := s.Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || s.Len() != 2 {
		t.Errorf("Load = %d triples, Len = %d, want 2", n, s.Len())
	}
	if _, err := s.Load(strings.NewReader("garbage here now .")); err == nil {
		t.Error("Load accepted garbage")
	}
}

func TestStats(t *testing.T) {
	s := New()
	_ = s.AddAll([]rdf.Triple{
		tr("s1", "p1", "o1"),
		tr("s1", "p2", "o2"),
		tr("s2", "p1", "o1"),
		rdf.NewTriple(iri("s2"), iri("p3"), rdf.NewString("hello world")),
	})
	st := s.Stats()
	if st.Triples != 4 {
		t.Errorf("Triples = %d, want 4", st.Triples)
	}
	if st.Predicates != 3 {
		t.Errorf("Predicates = %d, want 3", st.Predicates)
	}
	if st.Subjects != 2 {
		t.Errorf("Subjects = %d, want 2", st.Subjects)
	}
	if st.TextIndexTerms == 0 {
		t.Error("text index empty after literal insert")
	}
}

func TestTextSearch(t *testing.T) {
	s := New()
	label := iri("label")
	add := func(name, text string) {
		_ = s.Add(rdf.NewTriple(iri(name), label, rdf.NewString(text)))
	}
	add("de", "Germany")
	add("fr", "France")
	add("de2", "East Germany")
	add("y", "2014")
	add("ny", "New York City")

	tests := []struct {
		kw   string
		want []string
	}{
		{"germany", []string{"Germany", "East Germany"}},
		{"GERMANY", []string{"Germany", "East Germany"}},
		{"german", []string{"Germany", "East Germany"}},
		{"france", []string{"France"}},
		{"2014", []string{"2014"}},
		{"east germany", []string{"East Germany"}},
		{"new york", []string{"New York City"}},
		{"york city", []string{"New York City"}},
		{"nowhere", nil},
		{"", nil},
		{"new jersey", nil},
	}
	for _, tt := range tests {
		t.Run(tt.kw, func(t *testing.T) {
			ids := s.TextSearch(tt.kw)
			var got []string
			for _, id := range ids {
				got = append(got, s.Dict().Decode(id).Value)
			}
			sort.Strings(got)
			want := append([]string(nil), tt.want...)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("TextSearch(%q) = %v, want %v", tt.kw, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("TextSearch(%q) = %v, want %v", tt.kw, got, want)
				}
			}
		})
	}
}

func TestIndexPermutations(t *testing.T) {
	for _, p := range []perm{permSPO, permPOS, permOSP} {
		orig := spoTriple{1, 2, 3}
		if got := p.restore(p.reorder(orig)); got != orig {
			t.Errorf("perm %d: restore(reorder(%v)) = %v", p, orig, got)
		}
	}
}

func TestIndexMerge(t *testing.T) {
	got := mergeEntries([][]spoTriple{{{1, 1, 1}, {3, 3, 3}}, {{2, 2, 2}, {3, 3, 3}, {4, 4, 4}}})
	want := []spoTriple{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}, {4, 4, 4}}
	if !slices.Equal(got, want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
}

// TestConcurrentReadWrite exercises parallel queries during inserts
// under the race detector.
func TestConcurrentReadWrite(t *testing.T) {
	s := New()
	s.autoCompact = 64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			_ = s.Add(tr(fmt.Sprintf("s%d", i%100), fmt.Sprintf("p%d", i%5), fmt.Sprintf("o%d", i)))
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 0
				s.Match(0, 0, 0, func(_, _, _ ID) bool {
					n++
					return n < 50
				})
				_ = s.Len()
				_ = s.TextSearch("o1")
			}
		}()
	}
	<-done
	wg.Wait()
	if s.Len() != 2000 {
		t.Errorf("Len = %d, want 2000", s.Len())
	}
}

func TestEstimatedBytes(t *testing.T) {
	s := New()
	if s.EstimatedBytes() != 0 {
		t.Errorf("empty store bytes = %d", s.EstimatedBytes())
	}
	_ = s.AddAll([]rdf.Triple{tr("s", "p", "o")})
	if s.EstimatedBytes() <= 0 {
		t.Error("non-empty store reports zero bytes")
	}
}
