package store

import "slices"

// run is one immutable sorted triple set: its three permutations,
// indexed by perm.
type run [3]index

func (r *run) size() int { return len(r[permSPO].entries) }

// buildOffsets gives every permutation its offset array; only the base
// has them.
func (r *run) buildOffsets() {
	for i := range r {
		r[i].buildOffsets()
	}
}

const (
	// tailCap bounds the unsorted tail, the only part of the store a
	// lookup scans linearly.
	tailCap = 64
	// runGrowth is the size ratio kept between neighbouring runs: a run
	// is merged into its older neighbour unless that neighbour is at
	// least runGrowth times its size, so n pending triples sit in at
	// most log2(n/tailCap)+1 runs and each is re-merged O(log n) times.
	runGrowth = 2
)

// layers is the triple set as readers see it: the compacted base with
// its offset arrays, the sorted runs of pending triples (oldest first)
// and the short unsorted tail of the newest ones. No triple is in two
// layers. Everything reachable from a layers value that a reader may
// have copied is immutable: base and runs are replaced, never edited,
// the runs slice is rebuilt on every change, and the tail's backing
// array is only ever appended to beyond the length a reader captured
// (a flush starts a new array). That is what lets Store.View hand out
// a copy of the headers and lets readers of it run without a lock.
type layers struct {
	base run
	runs []run
	tail []spoTriple
}

// pending returns the number of triples not yet compacted.
func (l *layers) pending() int {
	n := len(l.tail)
	for i := range l.runs {
		n += l.runs[i].size()
	}
	return n
}

func (l *layers) len() int { return l.base.size() + l.pending() }

// choosePerm picks the permutation whose key order starts with the
// bound components of the pattern, and returns them as that
// permutation's key prefix (zero-padded). Every pattern has one, so a
// sorted layer answers it with a range and nothing to filter.
func choosePerm(sub, pred, obj ID) (perm, spoTriple) {
	switch {
	case sub != 0 && pred != 0:
		return permSPO, spoTriple{sub, pred, obj}
	case pred != 0:
		return permPOS, spoTriple{pred, obj}
	case obj != 0:
		return permOSP, spoTriple{obj, sub}
	default:
		return permSPO, spoTriple{sub}
	}
}

// scan is the store's one read primitive: it visits every triple
// matching the pattern (a zero ID is a wildcard) — the base in index
// order, then the runs oldest first, then the tail — until fn returns
// false, and returns the number of matches when it ran to the end. A
// nil fn only counts, which costs a range lookup per sorted layer.
func (l *layers) scan(sub, pred, obj ID, fn func(s, p, o ID) bool) int {
	p, key := choosePerm(sub, pred, obj)
	n, more := l.base[p].scan(p, key, fn)
	for i := 0; more && i < len(l.runs); i++ {
		var m int
		m, more = l.runs[i][p].scan(p, key, fn)
		n += m
	}
	if !more {
		return n
	}
	want := spoTriple{sub, pred, obj}
	for _, t := range l.tail {
		if !matches(t, want) {
			continue
		}
		n++
		if fn != nil && !fn(t[0], t[1], t[2]) {
			break
		}
	}
	return n
}

// distinctLeading counts the distinct first components of permutation
// p — subjects for SPO, predicates for POS — over all layers.
func (l *layers) distinctLeading(p perm) int {
	base := &l.base[p]
	n := 0
	for k := 1; k < len(base.off); k++ {
		if base.off[k] != base.off[k-1] {
			n++
		}
	}
	// Leading IDs only pending triples have. Pending triples are few
	// (Add compacts past DefaultAutoCompact), so a set is cheap.
	fresh := map[ID]struct{}{}
	note := func(k ID) {
		if lo, hi := base.scanRange(k, 0, 0); lo == hi {
			fresh[k] = struct{}{}
		}
	}
	for i := range l.runs {
		var last ID
		for _, e := range l.runs[i][p].entries {
			if e[0] != last {
				last = e[0]
				note(last)
			}
		}
	}
	for _, t := range l.tail {
		note(p.reorder(t)[0])
	}
	return n + len(fresh)
}

func matches(t, want spoTriple) bool {
	return (want[0] == 0 || t[0] == want[0]) &&
		(want[1] == 0 || t[1] == want[1]) &&
		(want[2] == 0 || t[2] == want[2])
}

// contains reports whether the layers hold the triple: a point probe of
// the SPO permutation of the base and of every run (see index.has),
// then of the tail.
func (l *layers) contains(t spoTriple) bool {
	if l.base[permSPO].has(t) {
		return true
	}
	for i := range l.runs {
		if l.runs[i][permSPO].has(t) {
			return true
		}
	}
	return slices.Contains(l.tail, t)
}

// add appends a triple the layers do not hold yet to the tail, turning
// a full tail into a run.
func (l *layers) add(t spoTriple) {
	if l.tail == nil {
		l.tail = make([]spoTriple, 0, tailCap)
	}
	l.tail = append(l.tail, t)
	if len(l.tail) == tailCap {
		l.flushTail()
	}
}

// flushTail sorts the tail into a run and restores the run invariant:
// the new run absorbs its older neighbours while they are too small,
// all of them in one merge. No triple is in two layers, so the merged
// size is the sum of the sizes.
func (l *layers) flushTail() {
	if len(l.tail) == 0 {
		return
	}
	r := newRun(l.tail)
	n, size := len(l.runs), r.size()
	for n > 0 && l.runs[n-1].size() < runGrowth*size {
		n--
		size += l.runs[n].size()
	}
	if n < len(l.runs) {
		r = mergeRuns(append(l.runs[n:len(l.runs):len(l.runs)], r)) // appends to a copy
	}
	l.runs = append(l.runs[:n:n], r) // a new slice: readers hold the old one
	l.tail = nil
}

// compact merges every pending triple into the base, in one merge, and
// reports whether there was one.
func (l *layers) compact() bool {
	l.flushTail()
	if len(l.runs) == 0 {
		return false
	}
	l.base = mergeRuns(append([]run{l.base}, l.runs...))
	l.base.buildOffsets()
	l.runs = nil
	return true
}

// newRun builds the three sorted permutations of at most tailCap
// distinct SPO-ordered triples, which it copies.
func newRun(triples []spoTriple) run {
	var keys [tailCap]uint64
	var r run
	for i := range r {
		p := perm(i)
		e := make([]spoTriple, len(triples))
		for j, t := range triples {
			e[j] = p.reorder(t)
		}
		if !sortPacked(e, keys[:len(e)]) {
			e = SortTriples(e)
		}
		r[i].entries = e
	}
	return r
}

// mergeRuns returns the union of runs; none is modified. The result has
// no offset arrays.
func mergeRuns(runs []run) run {
	var r run
	parts := make([][]spoTriple, len(runs))
	for p := range r {
		for i := range runs {
			parts[i] = runs[i][p].entries
		}
		r[p].entries = mergeEntries(parts)
	}
	return r
}
