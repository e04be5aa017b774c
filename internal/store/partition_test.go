package store

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"re2xolap/internal/rdf"
)

func TestLoadPartitioned(t *testing.T) {
	nt := `<http://t/a> <http://t/p> "1" .
<http://t/b> <http://t/p> "2" .
<http://t/a> <http://t/q> "3" .
<http://t/c> <http://t/p> "4" .
`
	// Route by last byte of the subject IRI: a→0, b→1, c→2.
	shardOf := func(s rdf.Term) int { return int(s.Value[len(s.Value)-1] - 'a') }
	stores, n, err := LoadPartitioned(rdf.NewDecoder(strings.NewReader(nt)).Decode, 3, shardOf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("loaded %d triples, want 4", n)
	}
	for i, want := range []int{2, 1, 1} {
		if got := stores[i].Len(); got != want {
			t.Errorf("shard %d: %d triples, want %d", i, got, want)
		}
	}
	// All of subject a's triples are on shard 0.
	count := 0
	for _, tr := range stores[0].Triples() {
		if tr.S.Value == "http://t/a" {
			count++
		}
	}
	if count != 2 {
		t.Errorf("shard 0 subject a: %d triples, want 2", count)
	}

	if _, _, err := LoadPartitioned(rdf.NewDecoder(strings.NewReader(nt)).Decode, 0, shardOf); err == nil {
		t.Error("shard count 0 must fail")
	}
	bad := func(rdf.Term) int { return 7 }
	if _, _, err := LoadPartitioned(rdf.NewDecoder(strings.NewReader(nt)).Decode, 3, bad); err == nil {
		t.Error("out-of-range shard must fail")
	}

	// -1 skips a triple: a load of partition b alone reads all four.
	onlyB := func(s rdf.Term) int {
		if shardOf(s) == 1 {
			return 0
		}
		return -1
	}
	stores, n, err = LoadPartitioned(rdf.NewDecoder(strings.NewReader(nt)).Decode, 1, onlyB)
	if err != nil || n != 4 || stores[0].Len() != 1 {
		t.Fatalf("load of partition b: %d read, err %v; want 4 read and 1 kept", n, err)
	}
}

// TestLoadPartitionedEqualsLoad: every shard store is the store Load
// builds from that shard's triples alone — contents, dictionary IDs
// and generation — because both take the same bulk path.
func TestLoadPartitionedEqualsLoad(t *testing.T) {
	const n = 3
	shardOf := func(s rdf.Term) int {
		h := fnv.New32a()
		h.Write([]byte(s.Value))
		return int(h.Sum32() % n)
	}
	for seed := int64(1); seed <= 5; seed++ {
		ts, _, _ := buildFixture(seed, 400)
		var all strings.Builder
		var parts [n]strings.Builder
		for _, tr := range ts {
			fmt.Fprintln(&all, tr)
			fmt.Fprintln(&parts[shardOf(tr.S)], tr)
		}
		stores, total, err := LoadPartitioned(rdf.NewDecoder(strings.NewReader(all.String())).Decode, n, shardOf)
		if err != nil || total != len(ts) {
			t.Fatalf("LoadPartitioned = %d triples, %v; want %d", total, err, len(ts))
		}
		for i, got := range stores {
			want := New()
			if _, err := want.Load(strings.NewReader(parts[i].String())); err != nil {
				t.Fatal(err)
			}
			requireSameContents(t, got, want)
			if g, w := got.Generation(), want.Generation(); g != w {
				t.Errorf("seed %d shard %d: generation %d, Load gives %d", seed, i, g, w)
			}
			if st := got.Stats(); st.DeltaSize != 0 {
				t.Errorf("seed %d shard %d: %d triples left pending", seed, i, st.DeltaSize)
			}
		}
	}
}
