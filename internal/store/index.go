package store

import (
	"cmp"
	"slices"
	"sort"
)

// spoTriple is a dictionary-encoded triple in subject/predicate/object
// order. Index permutations reorder the components. It is an alias so
// Build can adopt a caller's [][3]ID without copying.
type spoTriple = [3]ID

// perm identifies one of the three index permutations.
type perm uint8

const (
	permSPO perm = iota
	permPOS
	permOSP
)

// reorder maps an SPO-ordered triple into the permutation's key order.
func (p perm) reorder(t spoTriple) spoTriple {
	switch p {
	case permSPO:
		return t
	case permPOS:
		return spoTriple{t[1], t[2], t[0]}
	default: // permOSP
		return spoTriple{t[2], t[0], t[1]}
	}
}

// restore maps a permutation-ordered triple back to SPO order.
func (p perm) restore(t spoTriple) spoTriple {
	switch p {
	case permSPO:
		return t
	case permPOS:
		return spoTriple{t[2], t[0], t[1]}
	default: // permOSP
		return spoTriple{t[1], t[2], t[0]}
	}
}

func tripleLess(a, b spoTriple) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// tripleCmp is tripleLess as a three-way comparison for slices.SortFunc.
func tripleCmp(a, b spoTriple) int {
	for i := range a {
		if a[i] != b[i] {
			return cmp.Compare(a[i], b[i])
		}
	}
	return 0
}

// index is one sorted permutation of the triple set. Entries are stored
// in the permutation's key order.
type index struct {
	p       perm
	entries []spoTriple
}

// sortEntries sorts and deduplicates the entries.
func (ix *index) sortEntries() {
	slices.SortFunc(ix.entries, tripleCmp)
	ix.entries = slices.Compact(ix.entries)
}

// scanRange returns the half-open [lo, hi) range of entries matching the
// bound prefix (k1 and optionally k2; 0 means unbound). Binding k2
// without k1 is not a valid prefix and must be handled by the caller
// through a different permutation or a scan.
func (ix *index) scanRange(k1, k2 ID) (int, int) {
	n := len(ix.entries)
	if k1 == 0 {
		return 0, n
	}
	lo := sort.Search(n, func(i int) bool {
		e := ix.entries[i]
		if e[0] != k1 {
			return e[0] > k1
		}
		return k2 == 0 || e[1] >= k2
	})
	hi := sort.Search(n, func(i int) bool {
		e := ix.entries[i]
		if e[0] != k1 {
			return e[0] > k1
		}
		return k2 != 0 && e[1] > k2
	})
	return lo, hi
}

// contains reports whether the fully-bound triple (in permutation key
// order) is present.
func (ix *index) contains(t spoTriple) bool {
	n := len(ix.entries)
	i := sort.Search(n, func(i int) bool { return !tripleLess(ix.entries[i], t) })
	return i < n && ix.entries[i] == t
}

// merge inserts the (sorted, deduplicated) batch into the index,
// preserving order.
func (ix *index) merge(batch []spoTriple) {
	if len(batch) == 0 {
		return
	}
	if len(ix.entries) == 0 {
		ix.entries = append(ix.entries, batch...)
		return
	}
	merged := make([]spoTriple, 0, len(ix.entries)+len(batch))
	i, j := 0, 0
	for i < len(ix.entries) && j < len(batch) {
		a, b := ix.entries[i], batch[j]
		switch {
		case a == b:
			merged = append(merged, a)
			i++
			j++
		case tripleLess(a, b):
			merged = append(merged, a)
			i++
		default:
			merged = append(merged, b)
			j++
		}
	}
	merged = append(merged, ix.entries[i:]...)
	merged = append(merged, batch[j:]...)
	ix.entries = merged
}
