package endpoint

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"

	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
)

// tsvResultsContentType is the media type of the SPARQL 1.1 Query
// Results TSV Format. Server answers in it when the Accept header lists
// it before the JSON type.
const tsvResultsContentType = "text/tab-separated-values"

// privateTSVContentType names the same TSV body between HTTPClient and
// Server only. HTTPClient asks for it first (acceptResults), so answers
// between the two travel as TSV: about a quarter of the bytes of
// SPARQL-JSON for the same result. Other stores do not know the type
// and answer JSON; asking them for text/tab-separated-values instead
// would get their own TSV dialects, such as an ASK answer as a
// one-column table.
const privateTSVContentType = "application/x-re2xolap-tsv"

// acceptResults is the Accept header HTTPClient sends. An endpoint
// without the private type answers JSON, and the client decodes by
// Content-Type.
const acceptResults = privateTSVContentType + ", " + ResultsContentType + ";q=0.9"

// errNotTSV is appendResultsTSV's report that the result has no TSV
// form: an ASK answer, or a variable name, blank node label or language
// tag holding a tab, newline or carriage return. Server answers JSON
// instead.
var errNotTSV = errors.New("endpoint: result has no TSV form")

// isPrivateTSV reports whether a Content-Type header names the private
// TSV type, the only TSV that HTTPClient decodes.
func isPrivateTSV(contentType string) bool {
	mt, _, _ := strings.Cut(contentType, ";")
	return strings.EqualFold(strings.TrimSpace(mt), privateTSVContentType)
}

// tsvField says where a string goes in a TSV document, which decides
// what is escaped in it.
type tsvField uint8

const (
	// tsvLiteral is the inside of "…": ECHAR for \t \b \n \r \f " and
	// \, UCHAR for the other control characters.
	tsvLiteral tsvField = 1 << iota
	// tsvIRI is the inside of <…>: UCHAR for control characters, space
	// and <>"{}|^`\.
	tsvIRI
	// tsvRaw is a variable name, blank node label or language tag, which
	// have no escapes: a tab, newline or carriage return in one has no
	// TSV form.
	tsvRaw
)

// tsvSpecial[b] holds the fields in which byte b is not copied as it
// stands; every byte from 0x80 up is checked for valid UTF-8.
var tsvSpecial = func() (t [256]tsvField) {
	for b := 0; b < ' '; b++ {
		t[b] = tsvLiteral | tsvIRI
	}
	for b := utf8.RuneSelf; b < len(t); b++ {
		t[b] = tsvLiteral | tsvIRI | tsvRaw
	}
	for _, b := range "\t\n\r" {
		t[b] |= tsvRaw
	}
	for _, b := range `"\` {
		t[b] |= tsvLiteral
	}
	for _, b := range " <>\"{}|^`\\" {
		t[b] |= tsvIRI
	}
	return t
}()

// echar[b] is the letter of the Turtle ECHAR that writes b, or 0.
var echar = [256]byte{'\t': 't', '\b': 'b', '\n': 'n', '\r': 'r', '\f': 'f', '"': '"', '\'': '\'', '\\': '\\'}

// appendResultsTSV appends the TSV document for res to dst: a header of
// ?-prefixed variable names, then one line per row, every line ending
// in a newline. A cell is empty when unbound and otherwise the term in
// Turtle syntax: <iri>, _:label, "lexical" with @lang or ^^<datatype>,
// and a bare integer, decimal, double or boolean when its lexical form
// is the Turtle token for it (numericToken), so the lexical form
// survives. Invalid UTF-8 becomes U+FFFD, byte by byte, as on the JSON
// path. A row with more cells than variables is an error, as there;
// errNotTSV says the result has no TSV form.
func appendResultsTSV(dst []byte, res *sparql.Results) ([]byte, error) {
	if res.IsAsk {
		return dst, errNotTSV
	}
	var ok bool
	for i, v := range res.Vars {
		if i > 0 {
			dst = append(dst, '\t')
		}
		if dst, ok = appendTSVString(append(dst, '?'), v, tsvRaw); !ok {
			return dst, errNotTSV
		}
	}
	dst = append(dst, '\n')
	for ri, row := range res.Rows {
		if len(row) > len(res.Vars) {
			return dst, fmt.Errorf("endpoint: encode results: row %d has %d cells for %d variables", ri, len(row), len(res.Vars))
		}
		for i := range res.Vars {
			if i > 0 {
				dst = append(dst, '\t')
			}
			if i < len(row) {
				if dst, ok = appendTSVTerm(dst, &row[i]); !ok {
					return dst, errNotTSV
				}
			}
		}
		dst = append(dst, '\n')
	}
	return dst, nil
}

// appendTSVTerm appends one cell. Of a literal's language and datatype,
// only the language is written when it has both, and neither when it is
// not a literal: what the JSON decoder keeps.
func appendTSVTerm(dst []byte, t *rdf.Term) ([]byte, bool) {
	if *t == (rdf.Term{}) {
		return dst, true
	}
	var ok bool
	switch min(t.Kind, rdf.TermLiteral) {
	case rdf.TermIRI:
		dst, _ = appendTSVString(append(dst, '<'), t.Value, tsvIRI)
		return append(dst, '>'), true
	case rdf.TermBlank:
		return appendTSVString(append(dst, "_:"...), t.Value, tsvRaw)
	}
	if t.Lang == "" && t.Datatype != "" {
		if dt, isToken := numericToken(t.Value); isToken && dt == t.Datatype ||
			t.Datatype == rdf.XSDBoolean && (t.Value == "true" || t.Value == "false") {
			return append(dst, t.Value...), true
		}
	}
	dst, _ = appendTSVString(append(dst, '"'), t.Value, tsvLiteral)
	dst = append(dst, '"')
	switch {
	case t.Lang != "":
		dst, ok = appendTSVString(append(dst, '@'), t.Lang, tsvRaw)
		return dst, ok
	case t.Datatype != "":
		dst, _ = appendTSVString(append(dst, "^^<"...), t.Datatype, tsvIRI)
		dst = append(dst, '>')
	}
	return dst, true
}

// appendTSVString appends s escaped for field f, copying it a span at a
// time, found four bytes per step. It reports false for a tsvRaw string
// that holds a tab, newline or carriage return.
func appendTSVString(dst []byte, s string, f tsvField) ([]byte, bool) {
	start := 0
	for i := 0; i < len(s); {
		for ; i+8 <= len(s); i += 8 {
			w := s[i : i+8]
			if (tsvSpecial[w[0]]|tsvSpecial[w[1]]|tsvSpecial[w[2]]|tsvSpecial[w[3]]|
				tsvSpecial[w[4]]|tsvSpecial[w[5]]|tsvSpecial[w[6]]|tsvSpecial[w[7]])&f != 0 {
				break
			}
		}
		if i == len(s) {
			break
		}
		b := s[i]
		switch {
		case tsvSpecial[b]&f == 0:
			i++
			continue
		case b >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(dst, s[start:i]...)
				dst = append(dst, string(utf8.RuneError)...)
				start = i + size
			}
			i += size
			continue
		case f == tsvRaw:
			return dst, false
		}
		dst = append(dst, s[start:i]...)
		if f == tsvLiteral && echar[b] != 0 {
			dst = append(dst, '\\', echar[b])
		} else {
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		}
		i++
		start = i
	}
	return append(dst, s[start:]...), true
}

// numericToken returns the datatype of s when s is a Turtle INTEGER,
// DECIMAL or DOUBLE token: [+-]? then digits, digits around a '.' with
// at least one after it, or a mantissa of either kind (the '.' may end
// it) with an exponent.
func numericToken(s string) (string, bool) {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits := func() int {
		start := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i - start
	}
	whole, frac, dot := digits(), 0, false
	if i < len(s) && s[i] == '.' {
		i++
		dot, frac = true, digits()
	}
	if whole+frac == 0 {
		return "", false
	}
	if i == len(s) {
		switch {
		case !dot:
			return rdf.XSDInteger, true
		case frac > 0:
			return rdf.XSDDecimal, true
		}
		return "", false
	}
	if s[i] != 'e' && s[i] != 'E' {
		return "", false
	}
	i++
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	if digits() == 0 || i < len(s) {
		return "", false
	}
	return rdf.XSDDouble, true
}

// decodeTSVBody reads a TSV results body, presized by its Content-Length
// when that is known, and decodes it (decodeTSV).
func decodeTSVBody(r io.Reader, size int64) (*sparql.Results, error) {
	return readBody(r, size, func(data []byte) (*sparql.Results, error) {
		return decodeTSV(tsvDocument(data))
	})
}

// tsvDocument is the body as one string, each byte of invalid UTF-8
// replaced by U+FFFD as the JSON decoder does.
func tsvDocument(data []byte) string {
	if utf8.Valid(data) {
		return string(data)
	}
	var b strings.Builder
	b.Grow(len(data) + len(data)/2)
	for len(data) > 0 {
		r, size := utf8.DecodeRune(data)
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(r)
		} else {
			b.Write(data[:size])
		}
		data = data[size:]
	}
	return b.String()
}

// decodeTSV parses a TSV results document. Besides the Turtle forms
// appendResultsTSV writes it reads single-quoted literals and \U
// escapes; a language tag or blank node label is the rest of its cell,
// a variable name the rest of its header cell after the '?', and
// anything else, a raw carriage return anywhere, a row with another
// field count than the header and a document not ending in a newline
// are errors. Of a variable named twice, every column holds the last
// bound cell of the name, as on the JSON path.
//
// The rows are carved from one slab, and every cell without an escape
// is a slice of doc: nothing is allocated per cell, and a term the
// caller keeps keeps the whole document alive.
func decodeTSV(doc string) (*sparql.Results, error) {
	if len(doc) == 0 || doc[len(doc)-1] != '\n' {
		return nil, fmt.Errorf("%w: TSV document does not end in a newline", io.ErrUnexpectedEOF)
	}
	nl := strings.IndexByte(doc, '\n')
	head, d := doc[:nl], tsvDecoder{doc: doc, pos: nl + 1}
	var vars []string
	if head != "" {
		vars = make([]string, 0, strings.Count(head, "\t")+1)
		for more := true; more; {
			var cell string
			cell, head, more = strings.Cut(head, "\t")
			if cell == "" || cell[0] != '?' || strings.IndexByte(cell, '\r') >= 0 {
				return nil, fmt.Errorf("header cell %q is not a ?variable", cell)
			}
			vars = append(vars, cell[1:])
		}
	}
	n := strings.Count(doc[d.pos:], "\n")
	if n == 0 {
		return &sparql.Results{Vars: vars}, nil
	}
	rows, slab := make([][]rdf.Term, n), make([]rdf.Term, n*len(vars))
	repeats := repeatedColumns(vars)
	for r := range rows {
		row := slab[:len(vars):len(vars)]
		slab = slab[len(vars):]
		for c := range row {
			if c > 0 {
				if err := d.expect('\t', r); err != nil {
					return nil, err
				}
			}
			if err := d.cell(&row[c]); err != nil {
				return nil, err
			}
		}
		if err := d.expect('\n', r); err != nil {
			return nil, err
		}
		for _, cols := range repeats {
			var last rdf.Term
			for _, c := range cols {
				if sparql.Bound(row[c]) {
					last = row[c]
				}
			}
			for _, c := range cols {
				row[c] = last
			}
		}
		rows[r] = row
	}
	return &sparql.Results{Vars: vars, Rows: rows}, nil
}

// repeatedColumns lists, per variable name that names more than one
// column, the columns it names.
func repeatedColumns(vars []string) [][]int {
	var out [][]int
	for i, v := range vars {
		if slices.Contains(vars[:i], v) || !slices.Contains(vars[i+1:], v) {
			continue
		}
		cols := []int{i}
		for j := i + 1; j < len(vars); j++ {
			if vars[j] == v {
				cols = append(cols, j)
			}
		}
		out = append(out, cols)
	}
	return out
}

// tsvDecoder is decodeTSV's cursor over the document.
type tsvDecoder struct {
	doc string
	pos int
}

// tsvStop[b] says where byte b ends a scan: the bytes that close or
// escape an IRI or a literal, or are not allowed raw in one, and those
// that end a cell.
var tsvStop = func() (t [256]tsvField) {
	for b := 0; b <= ' '; b++ {
		t[b] = tsvIRI
	}
	for _, b := range "<>\"{}|^`\\" {
		t[b] |= tsvIRI
	}
	for _, b := range "\t\n\r\"'\\" {
		t[b] |= tsvLiteral
	}
	for _, b := range "\t\n\r" {
		t[b] |= tsvRaw
	}
	return t
}()

// scan moves the cursor to the next byte at or after i that stops field
// f, or to the end of the document.
func (d *tsvDecoder) scan(i int, f tsvField) {
	s := d.doc
	for ; i+8 <= len(s); i += 8 {
		w := s[i : i+8]
		if (tsvStop[w[0]]|tsvStop[w[1]]|tsvStop[w[2]]|tsvStop[w[3]]|
			tsvStop[w[4]]|tsvStop[w[5]]|tsvStop[w[6]]|tsvStop[w[7]])&f != 0 {
			break
		}
	}
	for i < len(s) && tsvStop[s[i]]&f == 0 {
		i++
	}
	d.pos = i
}

// expect consumes the separator c that must follow a cell of row r.
func (d *tsvDecoder) expect(c byte, r int) error {
	switch d.doc[d.pos] {
	case c:
		d.pos++
		return nil
	case '\n':
		return fmt.Errorf("row %d has fewer fields than the header, at offset %d", r, d.pos)
	}
	return fmt.Errorf("row %d has more fields than the header, at offset %d", r, d.pos)
}

func (d *tsvDecoder) syntax(want string) error {
	return fmt.Errorf("want %s at offset %d, found %q", want, d.pos, d.doc[d.pos])
}

// cell reads the term at the cursor into t, leaving the cursor on the
// tab or newline after it.
func (d *tsvDecoder) cell(t *rdf.Term) (err error) {
	switch c := d.doc[d.pos]; {
	case c == '\t' || c == '\n':
		return nil
	case c == '<':
		t.Value, err = d.iri()
		if t.Value == "" {
			*t = rdf.Term{} // the empty IRI is the unbound cell
		}
	case c == '"' || c == '\'':
		t.Kind = rdf.TermLiteral
		if t.Value, err = d.quoted(c); err != nil {
			return err
		}
		switch d.doc[d.pos] {
		case '@':
			d.pos++
			if t.Lang = d.rest(); t.Lang == "" {
				return d.syntax("a language tag")
			}
		case '^':
			if !strings.HasPrefix(d.doc[d.pos:], "^^<") {
				return d.syntax("^^<")
			}
			d.pos += 2
			if t.Datatype, err = d.iri(); err == nil && t.Datatype == "" {
				return fmt.Errorf("empty datatype IRI before offset %d", d.pos)
			}
		}
	case c == '_':
		if !strings.HasPrefix(d.doc[d.pos:], "_:") {
			return d.syntax("_:")
		}
		d.pos += 2
		t.Kind, t.Value = rdf.TermBlank, d.rest()
	case c == 't' || c == 'f':
		t.Kind, t.Datatype, t.Value = rdf.TermLiteral, rdf.XSDBoolean, d.rest()
		if t.Value != "true" && t.Value != "false" {
			return fmt.Errorf("%q is not a term, before offset %d", t.Value, d.pos)
		}
	default:
		start := d.pos
		t.Kind, t.Value = rdf.TermLiteral, d.rest()
		var ok bool
		if t.Datatype, ok = numericToken(t.Value); !ok {
			d.pos = start
			return d.syntax("a term")
		}
	}
	if err == nil && d.doc[d.pos] != '\t' && d.doc[d.pos] != '\n' {
		return d.syntax("the end of a cell")
	}
	return err
}

// rest consumes the rest of the cell. A carriage return stops it short,
// which the caller reports.
func (d *tsvDecoder) rest() string {
	start := d.pos
	d.scan(start, tsvRaw)
	return d.doc[start:d.pos]
}

// iri reads the <…> at the cursor and returns its value: a slice of the
// document unless it holds a UCHAR.
func (d *tsvDecoder) iri() (string, error) {
	start := d.pos + 1
	d.scan(start, tsvIRI)
	escaped := false
	for d.doc[d.pos] == '\\' { // the last byte, a newline, stops every scan
		escaped = true
		d.scan(d.pos+1, tsvIRI)
	}
	if d.doc[d.pos] != '>' {
		return "", d.syntax("'>'")
	}
	d.pos++
	if !escaped {
		return d.doc[start : d.pos-1], nil
	}
	return d.unescape(start, d.pos-1, true)
}

// quoted reads the literal at the cursor, quoted by q, and returns its
// lexical form: a slice of the document unless it holds an escape.
func (d *tsvDecoder) quoted(q byte) (string, error) {
	start := d.pos + 1
	escaped := false
	for i := start; ; {
		d.scan(i, tsvLiteral)
		switch c := d.doc[d.pos]; {
		case c == q:
			d.pos++
			if !escaped {
				return d.doc[start : d.pos-1], nil
			}
			return d.unescape(start, d.pos-1, false)
		case c == '\\' && d.pos+2 < len(d.doc):
			escaped, i = true, d.pos+2
		case c == '"' || c == '\'':
			i = d.pos + 1
		default:
			return "", d.syntax("a closing quote")
		}
	}
}

// unescape resolves the escapes of doc[start:end]: UCHARs in an IRI,
// ECHARs and UCHARs in a literal.
func (d *tsvDecoder) unescape(start, end int, iri bool) (string, error) {
	s := d.doc[start:end]
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		j := strings.IndexByte(s[i:], '\\')
		if j < 0 {
			b.WriteString(s[i:])
			break
		}
		b.WriteString(s[i : i+j])
		i += j + 1
		if i == len(s) {
			return "", fmt.Errorf("escape at the end of a term before offset %d", d.pos)
		}
		switch e := s[i]; {
		case e == 'u' || e == 'U':
			n := 4
			if e == 'U' {
				n = 8
			}
			r := hexRune(s[i+1:], n)
			if r < 0 || !utf8.ValidRune(r) {
				return "", fmt.Errorf("bad \\%c escape before offset %d", e, d.pos)
			}
			b.WriteRune(r)
			i += 1 + n
		case !iri && e != 0 && echar[unechar[e]] == e:
			b.WriteByte(unechar[e])
			i++
		default:
			return "", fmt.Errorf("bad escape \\%c before offset %d", e, d.pos)
		}
	}
	return b.String(), nil
}

// unechar[e] is the byte the ECHAR \e stands for (0 for no ECHAR).
var unechar = func() (t [256]byte) {
	for b, e := range echar {
		if e != 0 {
			t[e] = byte(b)
		}
	}
	return t
}()
