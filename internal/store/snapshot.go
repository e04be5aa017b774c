package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"re2xolap/internal/rdf"
)

// Snapshot format: a compact binary serialization of the store that
// loads an order of magnitude faster than re-parsing N-Triples (see
// BenchmarkSnapshot). Layout, all integers varint-encoded:
//
//	magic "R2XS" | version u8
//	term count | per term: kind u8, value, [datatype, lang for literals]
//	triple count | per triple: s, p, o as dictionary IDs
//
// Strings are length-prefixed. The snapshot stores the compacted
// triple set; pending triples are compacted before writing.

const (
	snapshotMagic   = "R2XS"
	snapshotVersion = 1
	// snapshotPresize caps how many terms, triples or string bytes
	// ReadSnapshot allocates on the word of a count it has not read yet;
	// past it, slices and strings grow with the input that arrives.
	snapshotPresize = 1 << 16
	// snapshotBuffer sizes the bufio reader and writer: large enough to
	// batch I/O, small enough that a small snapshot does not pay for
	// clearing a megabyte on every read and write.
	snapshotBuffer = 1 << 16
)

// WriteSnapshot serializes the store. The store is compacted first.
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.Compact()
	s.mu.RLock()
	defer s.mu.RUnlock()
	bw := bufio.NewWriterSize(w, snapshotBuffer)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return err
	}
	d := s.dict
	writeUvarint(bw, uint64(len(d.terms)))
	for _, t := range d.terms {
		if err := writeTerm(bw, t); err != nil {
			return err
		}
	}
	entries := s.base[0].entries
	writeUvarint(bw, uint64(len(entries)))
	for _, e := range entries {
		writeUvarint(bw, uint64(e[0]))
		writeUvarint(bw, uint64(e[1]))
		writeUvarint(bw, uint64(e[2]))
	}
	return bw.Flush()
}

// ReadSnapshot deserializes a snapshot written by WriteSnapshot into a
// fresh store.
func ReadSnapshot(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, snapshotBuffer)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("store: not a snapshot (magic %q)", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("store: unsupported snapshot version %d", version)
	}
	nTerms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: term count: %w", err)
	}
	// A forged count ends in an EOF error below, not in an allocation
	// the input never backs.
	terms := make([]rdf.Term, 0, min(nTerms, snapshotPresize))
	tr := termReader{r: br, interned: map[string]string{}}
	for i := uint64(0); i < nTerms; i++ {
		t, err := tr.term()
		if err != nil {
			return nil, fmt.Errorf("store: term %d: %w", i, err)
		}
		terms = append(terms, t)
	}
	nTriples, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: triple count: %w", err)
	}
	entries := make([]spoTriple, 0, min(nTriples, snapshotPresize))
	for i := uint64(0); i < nTriples; i++ {
		var e spoTriple
		for j := range e {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("store: triple %d: %w", i, err)
			}
			if v == 0 || v > nTerms {
				return nil, fmt.Errorf("store: triple %d references unknown term %d", i, v)
			}
			e[j] = ID(v)
		}
		entries = append(entries, e)
	}
	// Build re-derives the POS/OSP permutations and the full-text index.
	return Build(terms, entries)
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) error {
	writeUvarint(w, uint64(len(s)))
	_, err := w.WriteString(s)
	return err
}

// termReader reads a snapshot's terms. Strings go through one reused
// buffer, and each datatype IRI and language tag, which literals
// repeat, is kept once.
type termReader struct {
	r        *bufio.Reader
	buf      []byte
	interned map[string]string
}

// bytes reads a length-prefixed string. Up to snapshotPresize bytes it
// lands in the reused buffer; a longer one grows only as far as the
// input backs its length.
func (tr *termReader) bytes() ([]byte, error) {
	n, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return nil, err
	}
	if n > 1<<28 {
		return nil, fmt.Errorf("string length %d too large", n)
	}
	if n > snapshotPresize {
		var b bytes.Buffer
		_, err := io.CopyN(&b, tr.r, int64(n))
		return b.Bytes(), err
	}
	tr.buf = slices.Grow(tr.buf[:0], int(n))[:n]
	_, err = io.ReadFull(tr.r, tr.buf)
	return tr.buf, err
}

func (tr *termReader) str() (string, error) {
	b, err := tr.bytes()
	return string(b), err
}

// spelling reads a datatype IRI or language tag as its one copy.
func (tr *termReader) spelling() (string, error) {
	b, err := tr.bytes()
	if err != nil {
		return "", err
	}
	s, ok := tr.interned[string(b)]
	if !ok {
		s = string(b)
		tr.interned[s] = s
	}
	return s, nil
}

// term kind encoding: low 2 bits = TermKind; bit 2 = has datatype,
// bit 3 = has lang.
func writeTerm(w *bufio.Writer, t rdf.Term) error {
	kind := byte(t.Kind)
	if t.Datatype != "" {
		kind |= 1 << 2
	}
	if t.Lang != "" {
		kind |= 1 << 3
	}
	if err := w.WriteByte(kind); err != nil {
		return err
	}
	if err := writeString(w, t.Value); err != nil {
		return err
	}
	if t.Datatype != "" {
		if err := writeString(w, t.Datatype); err != nil {
			return err
		}
	}
	if t.Lang != "" {
		if err := writeString(w, t.Lang); err != nil {
			return err
		}
	}
	return nil
}

func (tr *termReader) term() (rdf.Term, error) {
	kind, err := tr.r.ReadByte()
	if err != nil {
		return rdf.Term{}, err
	}
	k := rdf.TermKind(kind & 3)
	if k > rdf.TermLiteral {
		return rdf.Term{}, fmt.Errorf("bad term kind %d", k)
	}
	t := rdf.Term{Kind: k}
	if t.Value, err = tr.str(); err != nil {
		return rdf.Term{}, err
	}
	if kind&(1<<2) != 0 {
		if t.Datatype, err = tr.spelling(); err != nil {
			return rdf.Term{}, err
		}
	}
	if kind&(1<<3) != 0 {
		if t.Lang, err = tr.spelling(); err != nil {
			return rdf.Term{}, err
		}
	}
	if (t.Datatype != "" || t.Lang != "") && t.Kind != rdf.TermLiteral {
		return rdf.Term{}, fmt.Errorf("non-literal term with datatype/lang")
	}
	return t, nil
}
