package store

import "slices"

// View is a consistent, immutable read-only view of the store, taken at
// a point in time by Store.View. It exists for the parallel query
// pipeline: Store.Match takes the store's read lock on every call,
// which is correct but makes concurrent scan workers contend on one
// RWMutex cache line per lookup. A View captures the slice headers of
// the store's layers — base permutations and offset arrays, the runs
// slice, the tail up to its current length — none of which is mutated
// in place after publication (see layers), so taking one copies a
// couple of hundred bytes however many triples are pending, and
// Match/MatchCount on it touch no locks at all: many workers can scan
// simultaneously at memory speed.
//
// Writes that happen after View is taken are simply not visible to it,
// which is exactly the snapshot-isolation contract the SPARQL executor
// wants: one query sees one version of the data.
type View struct {
	st *Store
	l  layers // read-only: the slices are shared with the store
	// terms is the dictionary's length when the view was taken: every
	// literal the text index held then has an ID up to it, and every
	// literal a writer indexes later one above it (see TextSearch).
	terms ID
}

// View returns a consistent read-only view of the store's current
// contents. The returned view is safe for concurrent use by any number
// of goroutines, concurrently with writes to the store.
func (s *Store) View() *View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Every writer that mints and indexes a literal publishes the
	// dictionary snapshot before it releases s.mu, so under s.mu the
	// snapshot counts every indexed literal.
	return &View{st: s, l: s.layers, terms: ID(len(s.dict.snap.Load().terms))}
}

// Dict returns the term dictionary. The dictionary is shared with the
// store (terms are append-only), so IDs resolved through the view stay
// valid forever.
func (v *View) Dict() *Dict { return v.st.dict }

// Match streams every triple in the view matching the pattern, where a
// zero ID is a wildcard, exactly like Store.Match — but without taking
// any lock, so concurrent workers never serialize. fn returning false
// stops the iteration.
func (v *View) Match(sub, pred, obj ID, fn func(s, p, o ID) bool) {
	v.l.scan(sub, pred, obj, fn)
}

// MatchCount returns the number of triples in the view matching the
// pattern, lock-free (see Store.MatchCount).
func (v *View) MatchCount(sub, pred, obj ID) int {
	return v.l.scan(sub, pred, obj, nil)
}

// Len returns the number of distinct triples visible in the view.
func (v *View) Len() int { return v.l.len() }

// TextSearch resolves a full-text keyword against the store's inverted
// index as the view sees it. The text index has no snapshot (it is a
// set of mutable posting maps), so this searches it on the locked store
// path and drops the IDs minted after the view was taken. That is
// exact because every write path mints a literal and indexes it in one
// hold of s.mu; only a literal interned through Dict.Encode before the
// view and first stored after it would still show, and no write path
// interns that way. It runs once per keyword filter during query
// rewrite, not per row, so the lock is off the hot path.
func (v *View) TextSearch(keyword string) []ID {
	ids := v.st.TextSearch(keyword) // ascending
	n, _ := slices.BinarySearch(ids, v.terms+1)
	return ids[:n]
}
