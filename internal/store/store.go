package store

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"re2xolap/internal/rdf"
)

// Store is an in-memory RDF triple store. Reads may proceed
// concurrently; writes are serialized. Incremental Adds accumulate as
// pending triples — a short unsorted tail in front of sorted runs, see
// layers — that Compact (or sufficiently many of them) merges into the
// sorted base indexes.
//
// Concurrency contract: every exported method is safe for concurrent
// use. Read methods (Match, MatchCount, Contains, TextSearch, Stats)
// take the read lock per call; writers (Add, AddAll, Load, Compact)
// take the write lock. Nothing a reader can reach through the layers
// is mutated in place once published — merges build fresh slices —
// which is what makes the lock-free View read path sound. Query engines
// that issue many lookups per query should take a View once at query
// start instead of calling Match per lookup: a View is immune to both
// lock contention and mid-query compaction (snapshot isolation).
type Store struct {
	mu   sync.RWMutex
	dict *Dict

	layers

	text *fullText

	// recent is the writer's memo of the terms it resolved last.
	recent writerMemo

	// autoCompact is the number of pending triples that triggers an
	// automatic Compact during Add. Zero disables automatic compaction.
	autoCompact int

	// gen counts content-changing events: every actual triple insert
	// and every non-empty compaction bumps it. Result caches key on it
	// so a mutation invalidates cached answers without coordination.
	// Duplicate inserts do not bump it — the answer set is unchanged.
	gen atomic.Uint64
}

// DefaultAutoCompact is the number of pending triples at which Add
// compacts automatically.
const DefaultAutoCompact = 1 << 16

// New returns an empty store with automatic compaction enabled.
func New() *Store {
	return &Store{
		dict:        NewDict(),
		text:        newFullText(),
		autoCompact: DefaultAutoCompact,
	}
}

// Dict exposes the store's term dictionary.
func (s *Store) Dict() *Dict { return s.dict }

// Add inserts one triple. Duplicate inserts are ignored. It returns an
// error only for invalid triples.
func (s *Store) Add(t rdf.Triple) error {
	if err := t.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(t)
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

// addLocked encodes and inserts one valid triple; the caller holds s.mu.
// A triple with a term this call minted is new without a probe: that
// term had no ID before, so no stored triple can hold it, and no other
// writer can store one between the mint and the insert because the
// mint happens under s.mu too. (Dict.Encode, which mints outside s.mu,
// never inserts.)
func (s *Store) addLocked(t rdf.Triple) {
	ids := spoTriple{s.recent.subject(t.S), s.recent.predicate(t.P)}
	minted := s.dict.resolve(&[3]rdf.Term{t.S, t.P, t.O}, &ids)
	s.recent.note(t.S, t.P, ids)
	if !minted && s.contains(ids) {
		return
	}
	s.layers.add(ids)
	s.gen.Add(1)
	if t.O.IsLiteral() {
		s.text.add(ids[2], t.O.Value)
	}
	if s.autoCompact > 0 && s.pending() >= s.autoCompact {
		s.compactLocked()
	}
}

// writerMemo remembers the IDs of the subject and the few predicates
// the writer resolved last, so a writer that adds a subject's triples
// in a row resolves them by comparison instead of by hashing. IDs never
// change, so an entry cannot go stale. It is guarded by Store.mu.
type writerMemo struct {
	subj  memoTerm
	preds [8]memoTerm // in the order first seen, overwritten round robin
	last  int         // the slot of the predicate resolved last
	fill  int         // the slot the next new predicate takes
}

type memoTerm struct {
	t  rdf.Term
	id ID
}

// subject returns the ID of t if it is the last subject, else 0.
func (m *writerMemo) subject(t rdf.Term) ID {
	if m.subj.id != 0 && t == m.subj.t {
		return m.subj.id
	}
	return 0
}

// predicate returns the ID of t if it is a recent predicate, else 0. A
// writer that repeats its predicates in the same order finds each one
// at the first slot it tries.
func (m *writerMemo) predicate(t rdf.Term) ID {
	for i := 1; i <= len(m.preds); i++ {
		k := (m.last + i) % len(m.preds)
		if e := &m.preds[k]; e.id != 0 && e.t == t {
			m.last = k
			return e.id
		}
	}
	return 0
}

// note records the IDs resolved for a triple's subject and predicate.
func (m *writerMemo) note(sub, pred rdf.Term, ids spoTriple) {
	m.subj = memoTerm{sub, ids[0]}
	if m.preds[m.last].id != ids[1] { // not in the memo yet
		m.preds[m.fill] = memoTerm{pred, ids[1]}
		m.last, m.fill = m.fill, (m.fill+1)%len(m.preds)
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

// Compact merges the pending triples into the sorted base indexes.
func (s *Store) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.compactLocked()
}

func (s *Store) compactLocked() {
	if s.layers.compact() {
		s.gen.Add(1)
	}
}

// Generation returns a monotonic counter that advances whenever the
// stored triple set changes (Add of a new triple, Load, AddAll) and on
// every non-empty Compact; moving pending triples between tail and
// runs is not a change. Equal generations imply identical query
// answers, which is the invariant the serve-layer result cache keys on.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Len returns the number of distinct triples.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.layers.len()
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.contains(spoTriple{sid, pid, oid})
}

// Match streams every triple matching the pattern, where a zero ID is a
// wildcard, invoking fn with the triple's subject, predicate, and object
// IDs: the compacted triples in the order of the index that serves the
// pattern, then the pending ones in no particular order. fn returning
// false stops the iteration. The store lock is held for the duration,
// so fn must not call store write methods.
func (s *Store) Match(sub, pred, obj ID, fn func(s, p, o ID) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.scan(sub, pred, obj, fn)
}

// MatchCount returns the number of triples matching the pattern, used by
// the query planner for selectivity estimation.
func (s *Store) MatchCount(sub, pred, obj ID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.scan(sub, pred, obj, nil)
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

// Stats computes summary statistics over every layer, pending triples
// included. Predicate and subject counts walk the POS/SPO offset
// arrays and the pending triples: O(terms + pending).
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Triples:        s.layers.len(),
		Terms:          s.dict.Len(),
		Predicates:     s.distinctLeading(permPOS),
		Subjects:       s.distinctLeading(permSPO),
		DeltaSize:      s.pending(),
		TextIndexTerms: s.text.size(),
	}
}

// EstimatedBytes approximates the in-memory footprint of the store:
// three index permutations at 12 bytes per triple, their offset arrays
// and dictionary string storage. Reported by the Table 3
// dataset-characteristics harness.
func (s *Store) EstimatedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bytes := int64(s.layers.len()) * 3 * 12
	for i := range s.base {
		bytes += int64(len(s.base[i].off)) * 4
	}
	s.dict.mu.RLock()
	for _, t := range s.dict.terms {
		bytes += int64(len(t.Value)+len(t.Datatype)+len(t.Lang)) + 48
	}
	s.dict.mu.RUnlock()
	return bytes
}
