package store

import (
	"cmp"
	"slices"
)

// spoTriple is a dictionary-encoded triple in subject/predicate/object
// order. Index permutations reorder the components. It is an alias so
// Build can adopt a caller's [][3]ID without copying.
type spoTriple = [3]ID

// perm identifies one of the three index permutations; it is also the
// permutation's position in a run.
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

// index is one sorted permutation of a triple set. Entries are stored
// in the permutation's key order and are never mutated once a reader
// can see them. off, when present, is a dense offset array over the
// leading ID: the entries whose first component is k are
// entries[off[k]:off[k+1]]. Only the base permutations carry one; the
// small sorted runs of pending triples are searched whole.
type index struct {
	entries []spoTriple
	off     []uint32
}

// sortEntries sorts and deduplicates the entries.
func (ix *index) sortEntries() {
	ix.entries = SortTriples(ix.entries)
}

// radixCutoff is the length below which SortTriples compares instead
// of counting: every radix pass walks a 256-bucket histogram, which
// only pays once there are a few hundred entries to move.
const radixCutoff = 256

// SortTriples sorts ts component-wise ascending (the order tripleCmp
// defines) in place, removes duplicates and returns the shortened
// slice. Past radixCutoff it is an LSD radix sort over the twelve
// bytes of a triple, least significant first; a byte position on
// which every triple agrees cannot reorder anything and is skipped,
// so dense IDs below 2^16 cost six passes, not twelve.
func SortTriples(ts [][3]ID) [][3]ID {
	if len(ts) < radixCutoff {
		slices.SortFunc(ts, tripleCmp)
		return slices.Compact(ts)
	}
	// counts[d] is the histogram of byte position d, numbered from the
	// least significant: d = 4*(2-component) + byte within the ID.
	var counts [12][256]uint32
	for _, t := range ts {
		for c, id := range t {
			base := 4 * (2 - c)
			counts[base][uint8(id)]++
			counts[base+1][uint8(id>>8)]++
			counts[base+2][uint8(id>>16)]++
			counts[base+3][uint8(id>>24)]++
		}
	}
	n := uint32(len(ts))
	src, dst := ts, make([][3]ID, len(ts))
	for d := range counts {
		c, shift := 2-d/4, 8*uint(d%4)
		h := &counts[d]
		if h[uint8(src[0][c]>>shift)] == n {
			continue // every triple shares this byte
		}
		var off [256]uint32
		sum := uint32(0)
		for b, k := range h {
			off[b] = sum
			sum += k
		}
		for _, t := range src {
			b := uint8(t[c] >> shift)
			dst[off[b]] = t
			off[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
	return slices.Compact(ts)
}

// packBits is the width of one ID in a packed triple: when every ID is
// below 2^packBits a triple fits one uint64 whose integer order is the
// triple order, so a handful of them sort without a comparison function.
const packBits = 21

// sortPacked sorts distinct triples in place through their packed form,
// using keys (as long as ts) as scratch. It reports false, leaving ts
// as it was, when an ID is too large to pack.
func sortPacked(ts []spoTriple, keys []uint64) bool {
	var all ID
	for _, t := range ts {
		all |= t[0] | t[1] | t[2]
	}
	if all >= 1<<packBits {
		return false
	}
	for i, t := range ts {
		keys[i] = uint64(t[0])<<(2*packBits) | uint64(t[1])<<packBits | uint64(t[2])
	}
	slices.Sort(keys)
	const mask = 1<<packBits - 1
	for i, k := range keys {
		ts[i] = spoTriple{ID(k >> (2 * packBits)), ID(k >> packBits & mask), ID(k & mask)}
	}
	return true
}

// buildOffsets derives the offset array from the sorted entries in one
// pass. It covers the IDs up to the largest leading one, so it costs
// at most 4 bytes per dictionary term.
func (ix *index) buildOffsets() {
	n := len(ix.entries)
	if n == 0 {
		ix.off = nil
		return
	}
	off := make([]uint32, int(ix.entries[n-1][0])+2)
	next := 0 // off[:next] is final
	for i, e := range ix.entries {
		for ; next <= int(e[0]); next++ {
			off[next] = uint32(i)
		}
	}
	off[next] = uint32(n)
	ix.off = off
}

// scanRange returns the half-open [lo, hi) range of entries matching
// the bound key prefix (k1, then k2, then k3; 0 means unbound, and
// nothing bound may follow an unbound component).
func (ix *index) scanRange(k1, k2, k3 ID) (int, int) {
	lo, hi := 0, len(ix.entries)
	switch {
	case k1 == 0:
		return lo, hi
	case ix.off == nil:
		lo, hi = equalRange(ix.entries, lo, hi, 0, k1)
	case int(k1) < len(ix.off)-1:
		lo, hi = int(ix.off[k1]), int(ix.off[k1+1])
	default:
		return hi, hi
	}
	if k2 == 0 {
		return lo, hi
	}
	lo, hi = equalRange(ix.entries, lo, hi, 1, k2)
	if k3 == 0 {
		return lo, hi
	}
	return equalRange(ix.entries, lo, hi, 2, k3)
}

// equalRange narrows e[lo:hi], whose entries agree on every component
// before c and are therefore sorted by component c, to the entries
// whose component c equals k.
func equalRange(e []spoTriple, lo, hi, c int, k ID) (int, int) {
	a, b := lo, hi
	for a < b { // first entry with component c >= k
		m := int(uint(a+b) >> 1)
		if e[m][c] < k {
			a = m + 1
		} else {
			b = m
		}
	}
	lo = a
	for b = hi; a < b; { // first entry with component c > k
		m := int(uint(a+b) >> 1)
		if e[m][c] <= k {
			a = m + 1
		} else {
			b = m
		}
	}
	return lo, a
}

// scan visits the entries matching the key prefix (see scanRange) in
// index order, restored to SPO order, and returns how many there are.
// A nil fn only counts. The second result is false when fn stopped the
// iteration.
func (ix *index) scan(p perm, key spoTriple, fn func(s, p, o ID) bool) (int, bool) {
	lo, hi := ix.scanRange(key[0], key[1], key[2])
	if fn != nil {
		for _, e := range ix.entries[lo:hi] {
			t := p.restore(e)
			if !fn(t[0], t[1], t[2]) {
				return hi - lo, false
			}
		}
	}
	return hi - lo, true
}

// has reports whether the index holds the entry e, given in its key
// order: an offset lookup (on the base) and one binary search, after
// two comparisons rule out an entry outside the index's key range.
func (ix *index) has(e spoTriple) bool {
	lo, hi := 0, len(ix.entries)
	if hi == 0 || tripleLess(e, ix.entries[0]) || tripleLess(ix.entries[hi-1], e) {
		return false
	}
	if ix.off != nil { // e[0] is in range: the last entry is not below it
		lo, hi = int(ix.off[e[0]]), int(ix.off[e[0]+1])
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tripleLess(ix.entries[m], e) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(ix.entries) && ix.entries[lo] == e
}

// mergeEntries returns the union of sorted, deduplicated parts in one
// pass, so each entry is copied once however many parts there are. The
// parts are kept ordered by their first entry: the first gives up its
// entries below the second's head in one block, then moves back to its
// place. parts is modified; a single non-empty part is returned as it is.
func mergeEntries(parts [][]spoTriple) []spoTriple {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	parts = slices.DeleteFunc(parts, func(p []spoTriple) bool { return len(p) == 0 })
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	slices.SortFunc(parts, func(a, b []spoTriple) int { return tripleCmp(a[0], b[0]) })
	out := make([]spoTriple, 0, n)
	for len(parts) > 1 {
		p, bound := parts[0], parts[1][0]
		j := 0
		for j < len(p) && tripleLess(p[j], bound) {
			j++
		}
		out = append(out, p[:j]...)
		if j < len(p) && p[j] == bound { // the second part has it too
			j++
		}
		if p = p[j:]; len(p) == 0 {
			parts = parts[1:]
			continue
		}
		i := 1
		for ; i < len(parts) && tripleLess(parts[i][0], p[0]); i++ {
			parts[i-1] = parts[i]
		}
		parts[i-1] = p
	}
	return append(out, parts[0]...)
}
