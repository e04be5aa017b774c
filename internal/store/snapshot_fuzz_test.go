package store_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"re2xolap/internal/datagen"
	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// FuzzReadSnapshot: ReadSnapshot never panics, and a store it accepts
// re-writes to a snapshot that reads back to a store writing the same
// bytes again (a round-trip fixpoint).
func FuzzReadSnapshot(f *testing.F) {
	// A one-observation cube cut down to its observation and its first
	// label: IRIs, a plain and a typed literal in a snapshot of about
	// 650 bytes, small enough to mutate and minimize quickly.
	var all, ts []rdf.Triple
	datagen.EurostatLike(1).Generate(func(t rdf.Triple) { all = append(all, t) })
	observation := all[len(all)-1].S
	for i, t := range all {
		if i == 0 || t.S == observation {
			ts = append(ts, t)
		}
	}
	st := store.New()
	if err := st.AddAll(ts); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := st.WriteSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	b := snap.Bytes()
	f.Add(b)
	for _, n := range []int{4, 5, 6, len(b) / 2, len(b) - 1} {
		f.Add(b[:n])
	}
	forged := binary.AppendUvarint(nil, 1<<62)
	f.Add(append([]byte("R2XS\x01"), forged...))
	f.Add(append([]byte("R2XS\x01\x00"), forged...))
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := store.ReadSnapshot(bytes.NewReader(in))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := s.WriteSnapshot(&once); err != nil {
			t.Fatalf("accepted snapshot does not write: %v", err)
		}
		again, err := store.ReadSnapshot(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("own snapshot %q rejected: %v", once.Bytes(), err)
		}
		if err := again.WriteSnapshot(&twice); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-writing moved: %q then %q (%v)", once.Bytes(), twice.Bytes(), err)
		}
	})
}
