package store

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"re2xolap/internal/rdf"
)

// Store is an in-memory RDF triple store. Reads may proceed
// concurrently; writes are serialized. Incremental Adds accumulate in a
// delta buffer that Compact (or a sufficiently large delta) merges into
// the sorted base indexes.
//
// Concurrency contract: every exported method is safe for concurrent
// use. Read methods (Match, MatchCount, Contains, TextSearch, Stats)
// take the read lock per call; writers (Add, AddAll, Load, Compact)
// take the write lock. Base index entry slices are never mutated in
// place once published — Compact builds freshly merged slices — which
// is what makes the lock-free View read path sound. Query engines that
// issue many lookups per query should take a View once at query start
// instead of calling Match per lookup: a View is immune to both lock
// contention and mid-query compaction (snapshot isolation).
type Store struct {
	mu   sync.RWMutex
	dict *Dict

	base  [3]index // sorted permutations of the compacted triple set
	delta []spoTriple
	// deltaSet dedupes the delta in O(1); it is discarded on Compact.
	deltaSet map[spoTriple]struct{}

	text *fullText

	// autoCompact is the delta size that triggers an automatic Compact
	// during Add. Zero disables automatic compaction.
	autoCompact int

	// gen counts content-changing events: every actual triple insert
	// and every non-empty compaction bumps it. Result caches key on it
	// so a mutation invalidates cached answers without coordination.
	// Duplicate inserts do not bump it — the answer set is unchanged.
	gen atomic.Uint64
}

// DefaultAutoCompact is the delta size at which Add compacts
// automatically.
const DefaultAutoCompact = 1 << 16

// New returns an empty store with automatic compaction enabled.
func New() *Store {
	s := &Store{
		dict:        NewDict(),
		deltaSet:    map[spoTriple]struct{}{},
		text:        newFullText(),
		autoCompact: DefaultAutoCompact,
	}
	s.base[0].p = permSPO
	s.base[1].p = permPOS
	s.base[2].p = permOSP
	return s
}

// Dict exposes the store's term dictionary.
func (s *Store) Dict() *Dict { return s.dict }

// Add inserts one triple. Duplicate inserts are ignored. It returns an
// error only for invalid triples.
func (s *Store) Add(t rdf.Triple) error {
	if err := t.Validate(); err != nil {
		return err
	}
	enc := spoTriple{s.dict.Encode(t.S), s.dict.Encode(t.P), s.dict.Encode(t.O)}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(enc, t.O)
	return nil
}

// AddAll bulk-inserts triples and compacts once at the end, which is the
// fast path for loading a dataset.
func (s *Store) AddAll(ts []rdf.Triple) error {
	i := 0
	_, err := s.ingest(func() (rdf.Triple, error) {
		if i == len(ts) {
			return rdf.Triple{}, io.EOF
		}
		i++
		return ts[i-1], nil
	})
	return err
}

func (s *Store) addLocked(enc spoTriple, obj rdf.Term) {
	if _, dup := s.deltaSet[enc]; dup {
		return
	}
	if s.base[0].contains(enc) {
		return
	}
	s.deltaSet[enc] = struct{}{}
	s.delta = append(s.delta, enc)
	s.gen.Add(1)
	if obj.IsLiteral() {
		s.text.add(enc[2], obj.Value)
	}
	if s.autoCompact > 0 && len(s.delta) >= s.autoCompact {
		s.compactLocked()
	}
}

// Load reads triples from r (N-Triples or the supported Turtle subset)
// until EOF and bulk-inserts them.
func (s *Store) Load(r io.Reader) (int, error) {
	n, err := s.ingest(rdf.NewDecoder(r).Decode)
	if err != nil {
		return n, fmt.Errorf("store: load: %w", err)
	}
	return n, nil
}

// Compact merges the delta buffer into the sorted base indexes.
func (s *Store) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactLocked()
}

func (s *Store) compactLocked() {
	if len(s.delta) == 0 {
		return
	}
	for i := range s.base {
		batch := make([]spoTriple, len(s.delta))
		for j, t := range s.delta {
			batch[j] = s.base[i].p.reorder(t)
		}
		tmp := index{p: s.base[i].p, entries: batch}
		tmp.sortEntries()
		s.base[i].merge(tmp.entries)
	}
	s.delta = s.delta[:0]
	s.deltaSet = map[spoTriple]struct{}{}
	s.gen.Add(1)
}

// Generation returns a monotonic counter that advances whenever the
// stored triple set changes (Add of a new triple, Load, AddAll) and on
// every non-empty Compact. Equal generations imply identical query
// answers, which is the invariant the serve-layer result cache keys on.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Len returns the number of distinct triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.base[0].entries) + len(s.delta)
}

// Contains reports whether the store holds the triple.
func (s *Store) Contains(t rdf.Triple) bool {
	sid, ok := s.dict.Lookup(t.S)
	if !ok {
		return false
	}
	pid, ok := s.dict.Lookup(t.P)
	if !ok {
		return false
	}
	oid, ok := s.dict.Lookup(t.O)
	if !ok {
		return false
	}
	enc := spoTriple{sid, pid, oid}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, dup := s.deltaSet[enc]; dup {
		return true
	}
	return s.base[0].contains(enc)
}

// Match streams every triple matching the pattern, where a zero ID is a
// wildcard, invoking fn with the triple's subject, predicate, and object
// IDs (in no particular order). fn returning false stops the iteration.
// The store lock is held for the duration, so fn must not call store
// write methods.
func (s *Store) Match(sub, pred, obj ID, fn func(s, p, o ID) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix, k1, k2 := s.chooseIndex(sub, pred, obj)
	lo, hi := ix.scanRange(k1, k2)
	want := spoTriple{sub, pred, obj}
	for i := lo; i < hi; i++ {
		t := ix.p.restore(ix.entries[i])
		if matches(t, want) && !fn(t[0], t[1], t[2]) {
			return
		}
	}
	for _, t := range s.delta {
		if matches(t, want) && !fn(t[0], t[1], t[2]) {
			return
		}
	}
}

// MatchCount returns the number of triples matching the pattern, used by
// the query planner for selectivity estimation.
func (s *Store) MatchCount(sub, pred, obj ID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix, k1, k2 := s.chooseIndex(sub, pred, obj)
	lo, hi := ix.scanRange(k1, k2)
	want := spoTriple{sub, pred, obj}
	n := 0
	fullyKeyed := bound(sub)+bound(pred)+bound(obj) == keyedCount(k1, k2)
	if fullyKeyed {
		n = hi - lo
	} else {
		for i := lo; i < hi; i++ {
			if matches(ix.p.restore(ix.entries[i]), want) {
				n++
			}
		}
	}
	for _, t := range s.delta {
		if matches(t, want) {
			n++
		}
	}
	return n
}

func bound(id ID) int {
	if id != 0 {
		return 1
	}
	return 0
}

func keyedCount(k1, k2 ID) int { return bound(k1) + bound(k2) }

func matches(t, want spoTriple) bool {
	return (want[0] == 0 || t[0] == want[0]) &&
		(want[1] == 0 || t[1] == want[1]) &&
		(want[2] == 0 || t[2] == want[2])
}

// chooseIndex picks the permutation whose key prefix covers the most
// bound components, returning the index plus the one or two leading key
// values usable for the range scan.
func (s *Store) chooseIndex(sub, pred, obj ID) (*index, ID, ID) {
	return chooseIndex(&s.base, sub, pred, obj)
}

// chooseIndex is the lock-agnostic core shared by Store and View.
func chooseIndex(base *[3]index, sub, pred, obj ID) (*index, ID, ID) {
	switch {
	case sub != 0 && pred != 0:
		return &base[0], sub, pred // SPO
	case pred != 0 && obj != 0:
		return &base[1], pred, obj // POS
	case obj != 0 && sub != 0:
		return &base[2], obj, sub // OSP
	case sub != 0:
		return &base[0], sub, 0
	case pred != 0:
		return &base[1], pred, 0
	case obj != 0:
		return &base[2], obj, 0
	default:
		return &base[0], 0, 0
	}
}

// Triples returns every stored triple decoded. Intended for tests and
// small exports.
func (s *Store) Triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, s.Len())
	s.Match(0, 0, 0, func(sub, pred, obj ID) bool {
		out = append(out, rdf.Triple{S: s.dict.Decode(sub), P: s.dict.Decode(pred), O: s.dict.Decode(obj)})
		return true
	})
	return out
}

// TextSearch returns the IDs of literal terms whose value contains the
// keyword, case-insensitively, using the inverted full-text index.
func (s *Store) TextSearch(keyword string) []ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.text.search(keyword, s.dict)
}

// Stats summarizes the store for planners and dataset reports.
type Stats struct {
	Triples        int
	Terms          int
	Predicates     int
	Subjects       int
	DeltaSize      int
	TextIndexTerms int
}

// Stats computes summary statistics. Predicate and subject counts scan
// the POS/SPO indexes and are O(triples).
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Triples:        len(s.base[0].entries) + len(s.delta),
		Terms:          s.dict.Len(),
		DeltaSize:      len(s.delta),
		TextIndexTerms: s.text.size(),
	}
	var last ID
	for _, e := range s.base[1].entries { // POS: first component is P
		if e[0] != last {
			st.Predicates++
			last = e[0]
		}
	}
	last = 0
	for _, e := range s.base[0].entries {
		if e[0] != last {
			st.Subjects++
			last = e[0]
		}
	}
	return st
}

// EstimatedBytes approximates the in-memory footprint of the store:
// three index permutations at 12 bytes per triple plus dictionary
// string storage. Reported by the Table 3 dataset-characteristics
// harness.
func (s *Store) EstimatedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	triples := int64(len(s.base[0].entries) + len(s.delta))
	var dictBytes int64
	s.dict.mu.RLock()
	for _, t := range s.dict.terms {
		dictBytes += int64(len(t.Value)+len(t.Datatype)+len(t.Lang)) + 48
	}
	s.dict.mu.RUnlock()
	return triples*3*12 + dictBytes
}
