package store

import (
	"fmt"
	"sync"
	"testing"

	"re2xolap/internal/rdf"
)

func viewTriple(s, p, o string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: rdf.NewIRI(o)}
}

func TestViewMatchesStore(t *testing.T) {
	s := New()
	s.autoCompact = 4 // force compactions mid-load
	for i := 0; i < 30; i++ {
		if err := s.Add(viewTriple(
			fmt.Sprintf("http://ex/s%d", i%7),
			fmt.Sprintf("http://ex/p%d", i%3),
			fmt.Sprintf("http://ex/o%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v := s.View()
	if v.Len() != s.Len() {
		t.Fatalf("view Len %d != store Len %d", v.Len(), s.Len())
	}
	p1, _ := s.Dict().Lookup(rdf.NewIRI("http://ex/p1"))
	collect := func(match func(ID, ID, ID, func(ID, ID, ID) bool)) []spoTriple {
		var out []spoTriple
		match(0, p1, 0, func(a, b, c ID) bool {
			out = append(out, spoTriple{a, b, c})
			return true
		})
		return out
	}
	fromStore := collect(s.Match)
	fromView := collect(v.Match)
	if len(fromStore) == 0 || len(fromStore) != len(fromView) {
		t.Fatalf("store matched %d, view matched %d", len(fromStore), len(fromView))
	}
	for i := range fromStore {
		if fromStore[i] != fromView[i] {
			t.Fatalf("row %d: store %v view %v", i, fromStore[i], fromView[i])
		}
	}
	if got, want := v.MatchCount(0, p1, 0), s.MatchCount(0, p1, 0); got != want {
		t.Fatalf("view MatchCount %d, store %d", got, want)
	}
}

// TestViewSnapshotIsolation: writes (including a compaction that
// recycles the delta backing array) after View() must not leak into an
// existing view.
func TestViewSnapshotIsolation(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		s.Add(viewTriple(fmt.Sprintf("http://ex/s%d", i), "http://ex/p", "http://ex/o"))
	}
	// Leave some triples in the delta so the view must copy it.
	if s.pending() == 0 {
		t.Fatal("test setup: expected a non-empty delta")
	}
	v := s.View()
	before := v.Len()
	for i := 10; i < 200; i++ {
		s.Add(viewTriple(fmt.Sprintf("http://ex/s%d", i), "http://ex/p", "http://ex/o"))
	}
	s.Compact()
	if v.Len() != before {
		t.Fatalf("view grew from %d to %d after post-view writes", before, v.Len())
	}
	n := 0
	v.Match(0, 0, 0, func(_, _, _ ID) bool { n++; return true })
	if n != before {
		t.Fatalf("view Match saw %d triples, want %d", n, before)
	}
}

// TestViewTextSearchIsSnapshot: a view's keyword search finds the
// literals stored when it was taken, not those a writer adds after,
// while a later view finds both.
func TestViewTextSearchIsSnapshot(t *testing.T) {
	s := New()
	label := func(sub, lit string) rdf.Triple {
		return rdf.NewTriple(rdf.NewIRI(sub), rdf.NewIRI("http://ex/label"), rdf.NewString(lit))
	}
	if err := s.Add(label("http://ex/a", "kw old")); err != nil {
		t.Fatal(err)
	}
	v := s.View()
	if err := s.Add(label("http://ex/b", "kw new")); err != nil {
		t.Fatal(err)
	}
	old, _ := s.Dict().Lookup(rdf.NewString("kw old"))
	if got := v.TextSearch("kw"); len(got) != 1 || got[0] != old {
		t.Errorf("view search = %v, want only the literal stored before it (%d)", got, old)
	}
	if got := s.View().TextSearch("kw"); len(got) != 2 {
		t.Errorf("later view search = %v, want both literals", got)
	}
}

// TestViewConcurrentWithWrites hammers view scans while a writer keeps
// adding and compacting; run under -race this is the regression test
// for the lock-free read path.
func TestViewConcurrentWithWrites(t *testing.T) {
	s := New()
	s.autoCompact = 64
	for i := 0; i < 500; i++ {
		s.Add(viewTriple(fmt.Sprintf("http://ex/s%d", i%50), "http://ex/p", fmt.Sprintf("http://ex/o%d", i)))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 500; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Add(viewTriple(fmt.Sprintf("http://ex/s%d", i%50), "http://ex/p", fmt.Sprintf("http://ex/o%d", i)))
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := s.View()
				want := v.Len()
				n := 0
				v.Match(0, 0, 0, func(_, _, _ ID) bool { n++; return true })
				if n != want {
					t.Errorf("inconsistent view: Match saw %d, Len says %d", n, want)
					return
				}
			}
		}()
	}
	// Concurrent dictionary readers exercising the lock-free snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		d := s.Dict()
		for i := 0; i < 20000; i++ {
			n := ID(d.Len())
			if n == 0 {
				continue
			}
			id := ID(i)%n + 1
			_ = d.Decode(id)
			_, _ = d.Numeric(id)
			d.Encode(rdf.NewIRI("http://ex/p")) // interned: read-lock fast path
		}
	}()
	close(stop)
	wg.Wait()
}

// BenchmarkDictDecodeParallel measures the lock-free decode fast path
// under parallel load (the projection hot path of the query executor).
func BenchmarkDictDecodeParallel(b *testing.B) {
	d := NewDict()
	for i := 0; i < 10000; i++ {
		d.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/term%d", i)))
	}
	n := ID(d.Len())
	b.RunParallel(func(pb *testing.PB) {
		var i ID
		for pb.Next() {
			i = i%n + 1
			_ = d.Decode(i)
		}
	})
}

// BenchmarkViewMatch measures the lock-free scan path against the
// locked Store.Match path on the same data, then what pending writes
// cost a reader: point lookups through a view and View() itself with
// 0, 1 000 and 60 000 triples not yet compacted.
func BenchmarkViewMatch(b *testing.B) {
	s := New()
	for i := 0; i < 5000; i++ {
		s.Add(viewTriple(fmt.Sprintf("http://ex/s%d", i%100), fmt.Sprintf("http://ex/p%d", i%5), fmt.Sprintf("http://ex/o%d", i)))
	}
	p, _ := s.Dict().Lookup(rdf.NewIRI("http://ex/p1"))
	b.Run("store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			s.Match(0, p, 0, func(_, _, _ ID) bool { n++; return true })
		}
	})
	b.Run("view", func(b *testing.B) {
		v := s.View()
		for i := 0; i < b.N; i++ {
			n := 0
			v.Match(0, p, 0, func(_, _, _ ID) bool { n++; return true })
		}
	})
	for _, pending := range []int{0, 1000, 60000} {
		s := New()
		var ts []rdf.Triple
		for i := 0; i < 20000; i++ {
			ts = append(ts, viewTriple(fmt.Sprintf("http://ex/s%d", i/5), fmt.Sprintf("http://ex/p%d", i%5), fmt.Sprintf("http://ex/o%d", i%97)))
		}
		if err := s.AddAll(ts); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < pending; i++ {
			s.Add(viewTriple(fmt.Sprintf("http://ex/new%d", i/5), fmt.Sprintf("http://ex/p%d", i%5), fmt.Sprintf("http://ex/o%d", i%97)))
		}
		if got := s.Stats().DeltaSize; got != pending {
			b.Fatalf("%d triples pending, want %d", got, pending)
		}
		p1, _ := s.Dict().Lookup(rdf.NewIRI("http://ex/p1"))
		subjects := make([]ID, 1024) // compacted subjects, like a query's probes
		for i := range subjects {
			subjects[i], _ = s.Dict().Lookup(rdf.NewIRI(fmt.Sprintf("http://ex/s%d", (i*37)%4000)))
		}
		b.Run(fmt.Sprintf("point/delta=%d", pending), func(b *testing.B) {
			v := s.View()
			found := 0
			for i := 0; i < b.N; i++ {
				v.Match(subjects[i%len(subjects)], p1, 0, func(_, _, _ ID) bool { found++; return true })
			}
			if found != b.N {
				b.Fatalf("%d lookups found %d triples", b.N, found)
			}
		})
		b.Run(fmt.Sprintf("View/delta=%d", pending), func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				n += s.View().Len()
			}
			if n != b.N*(20000+pending) {
				b.Fatalf("views saw %d triples in total", n)
			}
		})
	}
}
