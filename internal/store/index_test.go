package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSortTriplesMatchesComparisonSort property-tests the radix kernel
// against slices.SortFunc(tripleCmp) + slices.Compact: sizes on both
// sides of radixCutoff, IDs that differ in every byte (≥ 2^24
// included), in one byte only or in a few outliers, duplicates, and
// input that is already sorted or reverse-sorted.
func TestSortTriplesMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := map[string]func() ID{
		"dense":    func() ID { return ID(1 + rng.Intn(40)) },
		"wide":     func() ID { return ID(rng.Uint32()) },
		"top-byte": func() ID { return ID(rng.Intn(3))<<24 | 0x00abcdef },
		"low-byte": func() ID { return 0x01020300 | ID(rng.Intn(256)) },
		"skewed": func() ID {
			if rng.Intn(20) == 0 {
				return ID(rng.Uint32())
			}
			return 5
		},
	}
	orders := map[string]func([][3]ID){
		"random":   func([][3]ID) {},
		"sorted":   func(ts [][3]ID) { slices.SortFunc(ts, tripleCmp) },
		"reversed": func(ts [][3]ID) { slices.SortFunc(ts, func(a, b [3]ID) int { return tripleCmp(b, a) }) },
	}
	for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 4099} {
		for idName, id := range ids {
			for orderName, order := range orders {
				for _, dups := range []bool{false, true} {
					ts := make([][3]ID, n)
					for i := range ts {
						if dups && i > 0 && rng.Intn(3) == 0 {
							ts[i] = ts[rng.Intn(i)]
							continue
						}
						ts[i] = [3]ID{id(), id(), id()}
					}
					order(ts)
					want := slices.Clone(ts)
					slices.SortFunc(want, tripleCmp)
					want = slices.Compact(want)
					got := SortTriples(slices.Clone(ts))
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d ids=%s order=%s dups=%v: radix sort diverges from the comparison sort", n, idName, orderName, dups)
					}
				}
			}
		}
	}
}

// BenchmarkSortEntries sorts one base permutation at the federated
// workload's gather scale and at a whole-store scale, IDs dense.
func BenchmarkSortEntries(b *testing.B) {
	for _, n := range []int{16_000, 200_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			terms := n / 3
			src := make([]spoTriple, n)
			for i := range src {
				src[i] = spoTriple{ID(1 + rng.Intn(terms)), ID(1 + rng.Intn(20)), ID(1 + rng.Intn(terms))}
			}
			var ix index
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.entries = append(ix.entries[:0], src...)
				ix.sortEntries()
			}
		})
	}
}
