package store

import (
	"fmt"
	"io"

	"re2xolap/internal/rdf"
)

// Build constructs a store from scratch out of a term table and
// dictionary-encoded triples: terms[i] becomes ID i+1 and every triple
// component must be such an ID. It is the bulk path for callers that
// already work in ID space (the shard coordinator's gather plan):
// compared with New+AddAll it hashes each distinct term once instead
// of once per occurrence and goes straight to the sorted base indexes.
// Duplicate triples are dropped; duplicate terms and triples that
// violate the RDF model are errors. Build takes ownership of triples.
func Build(terms []rdf.Term, triples [][3]ID) (*Store, error) {
	s := New()
	if err := s.dict.fill(terms); err != nil {
		return nil, fmt.Errorf("store: build: %w", err)
	}
	for i, t := range triples {
		for _, id := range t {
			if id == 0 || int(id) > len(terms) {
				return nil, fmt.Errorf("store: build: triple %d references unknown term %d", i, id)
			}
		}
		tr := rdf.Triple{S: terms[t[0]-1], P: terms[t[1]-1], O: terms[t[2]-1]}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("store: build: %w", err)
		}
	}
	s.installBase(triples)
	return s, nil
}

// fill bulk-interns terms into a new dictionary in order, so terms[i]
// gets ID i+1, and publishes the read snapshot once.
func (d *Dict) fill(terms []rdf.Term) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ids = make(map[rdf.Term]ID, len(terms))
	d.terms = make([]rdf.Term, 0, len(terms))
	d.nums = make([]float64, 0, len(terms))
	d.isN = make([]bool, 0, len(terms))
	defer d.publishLocked()
	for _, t := range terms {
		if _, fresh := d.internLocked(t); !fresh {
			return fmt.Errorf("duplicate term %v", t)
		}
	}
	return nil
}

// installBase makes triples the compacted base of a store that holds
// none yet, skipping everything that only serves a store with data —
// the tail, the runs and the per-triple duplicate probe. The
// generation advances as the incremental path would have: once per
// distinct triple plus one compaction.
func (s *Store) installBase(triples []spoTriple) {
	spo := &s.base[permSPO]
	spo.entries = triples
	spo.sortEntries()
	if len(spo.entries) == 0 {
		return
	}
	for i := 1; i < 3; i++ {
		ix := &s.base[i]
		ix.entries = make([]spoTriple, len(spo.entries))
		for j, t := range spo.entries {
			ix.entries[j] = perm(i).reorder(t)
		}
		ix.sortEntries()
	}
	s.base.buildOffsets()
	// OSP groups triples by object: one visit per distinct object.
	var last ID
	for _, e := range s.base[permOSP].entries {
		if e[0] == last {
			continue
		}
		last = e[0]
		if obj := s.dict.Decode(last); obj.IsLiteral() {
			s.text.add(last, obj.Value)
		}
	}
	s.gen.Add(uint64(len(spo.entries)) + 1)
}

// ingest inserts every triple next yields, until io.EOF, and compacts
// once at the end; it returns how many triples it read. A store with
// no triples yet takes the from-scratch path (bulkLoad), anything else
// goes through the pending layers.
func (s *Store) ingest(next func() (rdf.Triple, error)) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.layers.len() > 0 {
		n, err := drain(next, s.addLocked)
		if err == nil {
			s.compactLocked()
		}
		return n, err
	}
	// On an error the triples read so far are still installed.
	b := s.beginBulk()
	n, err := drain(next, b.add)
	b.finish()
	return n, err
}

// bulkLoad fills a store that holds no triples yet: it interns under
// one dictionary lock hold, publishes the dictionary snapshot once and
// installs the collected triples as the base.
type bulkLoad struct {
	s     *Store
	batch []spoTriple
}

// beginBulk starts a bulk load. The caller holds s.mu, and finish must
// follow: until then the dictionary is locked.
func (s *Store) beginBulk() *bulkLoad {
	s.dict.mu.Lock()
	return &bulkLoad{s: s}
}

func (b *bulkLoad) add(t rdf.Triple) {
	d := b.s.dict
	sub, _ := d.internLocked(t.S)
	pred, _ := d.internLocked(t.P)
	obj, _ := d.internLocked(t.O)
	b.batch = append(b.batch, spoTriple{sub, pred, obj})
}

func (b *bulkLoad) finish() {
	b.s.dict.publishLocked()
	b.s.dict.mu.Unlock()
	b.s.installBase(b.batch)
}

// drain feeds add every valid triple next yields until io.EOF and
// stops at the first decode or validation error.
func drain(next func() (rdf.Triple, error), add func(rdf.Triple)) (int, error) {
	for n := 0; ; n++ {
		t, err := next()
		if err == io.EOF {
			return n, nil
		}
		if err == nil {
			err = t.Validate()
		}
		if err != nil {
			return n, err
		}
		add(t)
	}
}
