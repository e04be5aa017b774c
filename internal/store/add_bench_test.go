package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"re2xolap/internal/datagen"
	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// BenchmarkStoreAdd measures the incremental write path the way a
// store that keeps growing sees it: a 1 500-observation cube restored
// from a snapshot, then one automatic-compaction period of new
// 6-triple observations (type, four dimension members, one measure)
// added one triple at a time. One iteration is one such period; the
// restart is not timed. ns/triple and allocs/triple are per Add.
func BenchmarkStoreAdd(b *testing.B) {
	snap, writes := addWorkload(b)
	b.ResetTimer()
	var mallocs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := store.ReadSnapshot(bytes.NewReader(snap))
		if err != nil {
			b.Fatal(err)
		}
		gen := s.Generation()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for _, t := range writes {
			if err := s.Add(t); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if got := s.Generation() - gen; got != uint64(len(writes))+1 {
			b.Fatalf("generation advanced %d, want %d (one per triple, one compaction)", got, len(writes)+1)
		}
		b.StartTimer()
	}
	n := float64(b.N * len(writes))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/triple")
	b.ReportMetric(float64(mallocs)/n, "allocs/triple")
}

// addWorkload returns the snapshot of a 1 500-observation cube and the
// triples of DefaultAutoCompact/6 new observations to add to it.
func addWorkload(tb testing.TB) ([]byte, []rdf.Triple) {
	spec := datagen.EurostatLike(1500)
	var base []rdf.Triple
	spec.Generate(func(t rdf.Triple) { base = append(base, t) })
	st := store.New()
	if err := st.AddAll(base); err != nil {
		tb.Fatal(err)
	}
	var snap bytes.Buffer
	if err := st.WriteSnapshot(&snap); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	iri := func(local string) rdf.Term { return rdf.NewIRI(spec.NS + local) }
	typePred, class := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(spec.ObservationClass())
	meas := iri(spec.Measures[0].Pred)
	var writes []rdf.Triple
	for k := 0; len(writes) < store.DefaultAutoCompact; k++ {
		o := iri(fmt.Sprintf("obs/new/%d", k))
		writes = append(writes, rdf.NewTriple(o, typePred, class))
		for _, d := range spec.Dimensions {
			writes = append(writes, rdf.NewTriple(o, iri(d.Pred), iri(fmt.Sprintf("%s/m%d", d.Pred, rng.Intn(d.Members)))))
		}
		writes = append(writes, rdf.NewTriple(o, meas, rdf.NewInteger(int64(rng.ExpFloat64()*250)+1)))
	}
	return snap.Bytes(), writes
}
