// Package store implements an in-memory, dictionary-encoded RDF triple
// store with three sorted, offset-indexed permutations (SPO, POS, OSP),
// LSM-style pending layers for incremental inserts (sorted runs plus a
// short tail, see layers), cardinality statistics for join ordering,
// and an inverted full-text index over literals.
//
// It plays the role of the external triplestore (Virtuoso in the paper):
// the SPARQL engine in internal/sparql executes against it, and
// internal/endpoint exposes it over the SPARQL protocol.
package store

import (
	"strconv"
	"sync"
	"sync/atomic"

	"re2xolap/internal/rdf"
)

// ID is a dictionary-assigned term identifier. 0 is reserved and never
// denotes a term.
type ID uint32

// Dict maps RDF terms to dense integer IDs and back. It is safe for
// concurrent use.
//
// Concurrency contract: the dictionary is append-only — a term, once
// interned, keeps its ID forever and is never removed. Encode takes the
// read lock on its fast path (already-interned terms) and upgrades to
// the write lock only for genuinely new terms, so concurrent query
// workers encoding known terms do not serialize on the mutex. Decode
// and Numeric are lock-free for every term that existed when the
// current snapshot was published (i.e. all but terms interned
// nanoseconds ago), falling back to the read lock only for brand-new
// IDs; this keeps the projection hot path (one Decode per output cell)
// off the mutex entirely.
type Dict struct {
	mu    sync.RWMutex
	ids   map[rdf.Term]ID
	terms []rdf.Term // terms[id-1]
	// nums caches the parsed numeric value of numeric literals so
	// aggregation never re-parses lexical forms.
	nums []float64
	isN  []bool
	// snap is the atomically published read view backing the lock-free
	// Decode/Numeric fast path. It holds slice headers over the same
	// append-only backing arrays; readers only index below the
	// snapshot's length, which append never overwrites.
	snap atomic.Pointer[dictSnap]
}

// dictSnap is an immutable view of the dictionary's term storage.
type dictSnap struct {
	terms []rdf.Term
	nums  []float64
	isN   []bool
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	d := &Dict{ids: make(map[rdf.Term]ID, 1024)}
	d.snap.Store(&dictSnap{})
	return d
}

// Encode returns the ID for t, assigning a fresh one if t is new. The
// interned case (every call after the first for a given term) takes
// only the read lock, so concurrent encoders of known terms proceed in
// parallel.
func (d *Dict) Encode(t rdf.Term) ID {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id, fresh := d.internLocked(t)
	if fresh {
		d.publishLocked()
	}
	return id
}

// resolve sets every zero entry of ids to the ID of the term at the
// same position, minting the missing terms under one write-lock hold
// that publishes the read snapshot once, and reports whether it minted
// any.
func (d *Dict) resolve(terms *[3]rdf.Term, ids *spoTriple) bool {
	missing := false
	d.mu.RLock()
	for i, id := range ids {
		if id == 0 {
			ids[i] = d.ids[terms[i]]
			missing = missing || ids[i] == 0
		}
	}
	d.mu.RUnlock()
	if !missing {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	minted := false
	for i, id := range ids {
		if id == 0 {
			var fresh bool
			ids[i], fresh = d.internLocked(terms[i])
			minted = minted || fresh
		}
	}
	if minted {
		d.publishLocked()
	}
	return minted
}

// internLocked returns the ID for t, appending it when new (reported
// by the second result). The caller holds the write lock and must
// call publishLocked before releasing it if anything was appended;
// until then new IDs resolve through Decode's locked fallback.
func (d *Dict) internLocked(t rdf.Term) (ID, bool) {
	if id, ok := d.ids[t]; ok {
		return id, false
	}
	d.terms = append(d.terms, t)
	n, isNum := t.Numeric()
	d.nums = append(d.nums, n)
	d.isN = append(d.isN, isNum)
	id := ID(len(d.terms))
	d.ids[t] = id
	return id, true
}

// publishLocked republishes the lock-free read snapshot. Bulk loaders
// call it once per batch instead of once per new term.
func (d *Dict) publishLocked() {
	d.snap.Store(&dictSnap{terms: d.terms, nums: d.nums, isN: d.isN})
}

// Lookup returns the ID for t without assigning one. The second result
// reports whether t is known.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[t]
	return id, ok
}

// Decode returns the term for id. It panics on an unknown id, which
// indicates a programming error (IDs only come from this dictionary).
// The common case is lock-free (see the Dict concurrency contract).
func (d *Dict) Decode(id ID) rdf.Term {
	if s := d.snap.Load(); int(id) <= len(s.terms) {
		return s.terms[id-1]
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms[id-1]
}

// Numeric returns the cached numeric value of the term with the given
// id. The second result reports whether the term is a numeric literal.
// Like Decode, the common case is lock-free.
func (d *Dict) Numeric(id ID) (float64, bool) {
	if s := d.snap.Load(); int(id) <= len(s.nums) {
		return s.nums[id-1], s.isN[id-1]
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.nums[id-1], d.isN[id-1]
}

// Len returns the number of distinct terms.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}

// String renders a summary, useful in logs.
func (d *Dict) String() string {
	return "dict(" + strconv.Itoa(d.Len()) + " terms)"
}
