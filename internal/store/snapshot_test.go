package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"re2xolap/internal/rdf"
)

func snapshotRoundTrip(t *testing.T, s *Store) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New()
	_ = s.AddAll([]rdf.Triple{
		tr("s1", "p1", "o1"),
		rdf.NewTriple(iri("s1"), iri("label"), rdf.NewString("Hello World")),
		rdf.NewTriple(iri("s2"), iri("label"), rdf.NewLangString("ciao", "it")),
		rdf.NewTriple(iri("s2"), iri("value"), rdf.NewInteger(42)),
		rdf.NewTriple(rdf.NewBlank("b1"), iri("p1"), rdf.NewDouble(2.5)),
	})
	got := snapshotRoundTrip(t, s)
	if got.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), s.Len())
	}
	want := map[rdf.Triple]bool{}
	for _, tri := range s.Triples() {
		want[tri] = true
	}
	for _, tri := range got.Triples() {
		if !want[tri] {
			t.Errorf("unexpected triple %v", tri)
		}
	}
	// Full-text index is rebuilt.
	if ids := got.TextSearch("hello"); len(ids) != 1 {
		t.Errorf("text search after load = %v", ids)
	}
	// Numeric cache is rebuilt.
	vid, ok := got.Dict().Lookup(rdf.NewInteger(42))
	if !ok {
		t.Fatal("integer term missing")
	}
	if n, isNum := got.Dict().Numeric(vid); !isNum || n != 42 {
		t.Errorf("numeric cache = %v/%v", n, isNum)
	}
}

func TestSnapshotFlushesDelta(t *testing.T) {
	s := New()
	s.autoCompact = 0
	_ = s.Add(tr("s", "p", "o"))
	got := snapshotRoundTrip(t, s)
	if got.Len() != 1 {
		t.Errorf("delta triple lost: Len = %d", got.Len())
	}
}

func TestSnapshotErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("R2XS\xff"),     // bad version
		[]byte("R2XS\x01\x02"), // truncated terms
		append([]byte("R2XS\x01\x01\x00\x03abc\x01\x01"), 9, 9, 9), // triple refs unknown term
	}
	for i, b := range bad {
		if _, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
			t.Errorf("case %d: bad snapshot accepted", i)
		}
	}
}

// TestSnapshotForgedCounts: a header announcing far more terms,
// triples or string bytes than the input holds ends in an error after a
// bounded allocation, not one of the announced size (a count of 1<<62
// used to panic in makeslice, a string length of 1<<28 allocated
// 256 MB).
func TestSnapshotForgedCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	for name, b := range map[string][]byte{
		"terms":   append([]byte("R2XS\x01"), huge...),
		"triples": append([]byte("R2XS\x01\x00"), huge...),
		"string":  append([]byte("R2XS\x01\x01\x00"), binary.AppendUvarint(nil, 1<<28)...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadSnapshot(bytes.NewReader(b))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: forged snapshot accepted", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 16<<20 {
			t.Errorf("%s: forged snapshot allocated %d bytes", name, n)
		}
	}
}

// Property: a randomly populated store survives a snapshot round trip
// with identical query behaviour.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		for i := 0; i < int(n); i++ {
			var obj rdf.Term
			switch rng.Intn(3) {
			case 0:
				obj = iri(fmt.Sprintf("o%d", rng.Intn(10)))
			case 1:
				obj = rdf.NewString(fmt.Sprintf("label %d", rng.Intn(10)))
			default:
				obj = rdf.NewInteger(int64(rng.Intn(100)))
			}
			if s.Add(rdf.NewTriple(iri(fmt.Sprintf("s%d", rng.Intn(10))), iri(fmt.Sprintf("p%d", rng.Intn(4))), obj)) != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if s.WriteSnapshot(&buf) != nil {
			return false
		}
		got, err := ReadSnapshot(&buf)
		if err != nil || got.Len() != s.Len() {
			return false
		}
		want := map[rdf.Triple]bool{}
		for _, tri := range s.Triples() {
			want[tri] = true
		}
		for _, tri := range got.Triples() {
			if !want[tri] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotVersusNTriples(t *testing.T) {
	// The snapshot and N-Triples export of the same store must load to
	// equivalent stores.
	s := New()
	_ = s.AddAll([]rdf.Triple{
		tr("a", "p", "b"),
		rdf.NewTriple(iri("a"), iri("l"), rdf.NewString("tricky \"x\"\nnewline")),
	})
	var nt strings.Builder
	for _, tri := range s.Triples() {
		nt.WriteString(tri.String())
		nt.WriteByte('\n')
	}
	fromNT := New()
	if _, err := fromNT.Load(strings.NewReader(nt.String())); err != nil {
		t.Fatal(err)
	}
	fromSnap := snapshotRoundTrip(t, s)
	if fromNT.Len() != fromSnap.Len() {
		t.Errorf("NT = %d triples, snapshot = %d", fromNT.Len(), fromSnap.Len())
	}
}

// TestReadSnapshotInternsSpellings: the literals ReadSnapshot returns
// share one copy of each datatype IRI and language tag.
func TestReadSnapshotInternsSpellings(t *testing.T) {
	s := New()
	for i := 0; i < 4; i++ {
		sub := iri(fmt.Sprint("s", i))
		for _, o := range []rdf.Term{rdf.NewInteger(int64(i)), rdf.NewLangString(fmt.Sprint("name ", i), "en")} {
			if err := s.Add(rdf.Triple{S: sub, P: iri("p"), O: o}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := snapshotRoundTrip(t, s)
	copies := map[string]map[*byte]bool{}
	for _, tm := range got.dict.terms {
		for _, sp := range []string{tm.Datatype, tm.Lang} {
			if sp != "" {
				if copies[sp] == nil {
					copies[sp] = map[*byte]bool{}
				}
				copies[sp][unsafe.StringData(sp)] = true
			}
		}
	}
	if len(copies) != 2 {
		t.Fatalf("spellings %v, want the integer datatype and one language tag", copies)
	}
	for sp, c := range copies {
		if len(c) != 1 {
			t.Errorf("%q is held in %d copies, want 1", sp, len(c))
		}
	}
}
