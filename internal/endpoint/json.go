// Package endpoint implements the SPARQL protocol boundary that the
// paper's architecture relies on: RE2xOLAP is "a server application
// [that] sends SPARQL queries to a standard RDF triplestore". The
// Client interface abstracts that triplestore; InProcess wraps a local
// store directly, while Server/HTTPClient speak the SPARQL protocol
// with application/sparql-results+json bodies over HTTP.
package endpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
)

// ResultsContentType is the media type of SPARQL JSON results.
const ResultsContentType = "application/sparql-results+json"

// maxPooledBody is the largest body buffer bodyPool keeps. A larger
// one (an unusually big answer) is left to the collector, so one big
// response does not pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

// bodyPool recycles the buffers a JSON body is built in (server) or
// read into (client). Nothing the codec returns points into one.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// EncodeResults writes res as application/sparql-results+json, with one
// Write.
func EncodeResults(w io.Writer, res *sparql.Results) error {
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	var err error
	if *bp, err = appendResults((*bp)[:0], res); err != nil {
		return err
	}
	_, err = w.Write(*bp)
	return err
}

// appendResults appends the document for res to dst. The bytes are what
// the standard library's reflective encoder gives for the equivalent
// struct of maps (the reference in reference_test.go): the members of a
// binding in sorted variable order, a repeated variable name once with
// the value of its last bound column, "head":{} without variables,
// HTML-safe string escapes, and a trailing newline. A row with more
// cells than variables cannot be rendered and is the only error.
func appendResults(dst []byte, res *sparql.Results) ([]byte, error) {
	if res.IsAsk {
		dst = append(dst, `{"head":{},"boolean":`...)
		dst = strconv.AppendBool(dst, res.Boolean)
		return append(dst, "}\n"...), nil
	}
	dst = append(dst, `{"head":{`...)
	for i, v := range res.Vars {
		if i == 0 {
			dst = append(dst, `"vars":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = appendString(dst, v)
	}
	if len(res.Vars) > 0 {
		dst = append(dst, ']')
	}
	dst = append(dst, `},"results":{"bindings":[`...)
	cols := bindingColumns(res.Vars)
	var tails literalTails
	for ri, row := range res.Rows {
		if len(row) > len(res.Vars) {
			return dst, fmt.Errorf("endpoint: encode results: row %d has %d cells for %d variables", ri, len(row), len(res.Vars))
		}
		if ri > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		first := true
		for k := 0; k < len(cols); k++ {
			c := &cols[k]
			var t *rdf.Term
			if c.idx < len(row) {
				t = &row[c.idx]
			}
			for c.repeated { // the last bound column of the name wins
				k++
				c = &cols[k]
				if c.idx < len(row) && sparql.Bound(row[c.idx]) {
					t = &row[c.idx]
				}
			}
			if t == nil || t.Value == "" && !sparql.Bound(*t) {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, c.prefix...)
			if c.end > 0 && sameTerm(t, &c.last) {
				dst = append(dst, dst[c.start:c.end]...)
				continue
			}
			start := len(dst)
			dst = tails.appendTerm(dst, t)
			c.last, c.start, c.end = *t, start, len(dst)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}}\n"...), nil
}

// bindingColumn is one column of a result in the order its member
// appears in a binding object.
type bindingColumn struct {
	prefix   []byte // `"var":`, rendered once per result
	idx      int    // the column in Results.Rows
	repeated bool   // the next column carries the same name

	last       rdf.Term // the term last rendered under this name
	start, end int      // its bytes in the document
}

// bindingColumns orders the columns by variable name, columns of one
// name by position.
func bindingColumns(vars []string) []bindingColumn {
	cols := make([]bindingColumn, len(vars))
	for i := range cols {
		cols[i].idx = i
	}
	sort.SliceStable(cols, func(i, j int) bool { return vars[cols[i].idx] < vars[cols[j].idx] })
	var prefixes []byte
	for k := range cols {
		start := len(prefixes)
		prefixes = append(appendString(prefixes, vars[cols[k].idx]), ':')
		cols[k].prefix = prefixes[start:]
		cols[k].repeated = k+1 < len(cols) && vars[cols[k].idx] == vars[cols[k+1].idx]
	}
	return cols
}

// sameTerm is *a == *b, testing first where two IRIs of one column
// mostly differ: at the end.
func sameTerm(a, b *rdf.Term) bool {
	n := len(a.Value)
	return n == len(b.Value) && (n == 0 || a.Value[n-1] == b.Value[n-1]) && *a == *b
}

// termOpenings are the members a term object opens with, by kind, as the
// encoder writes them after the '{'. The decoder's fast path reads a
// term that opens this way without its general member loop.
var termOpenings = [...]string{
	rdf.TermIRI:     `"type":"uri","value":`,
	rdf.TermBlank:   `"type":"bnode","value":`,
	rdf.TermLiteral: `"type":"literal","value":`,
}

// literalTails renders the tail of a literal cell, what follows its
// value: `,"xml:lang":…`, `,"datatype":…` and the closing brace. A
// response has a handful of (language, datatype) pairs, so each pair is
// escaped once, into dst itself, and its later cells copy those bytes.
type literalTails struct {
	n     int
	slots [8]literalTail
}

type literalTail struct {
	lang, datatype string
	start, end     int // the tail's bytes in dst
}

func (lt *literalTails) appendTerm(dst []byte, t *rdf.Term) []byte {
	kind := min(t.Kind, rdf.TermLiteral)
	dst = append(dst, '{')
	dst = append(dst, termOpenings[kind]...)
	dst = appendString(dst, t.Value)
	if kind != rdf.TermLiteral || t.Lang == "" && t.Datatype == "" {
		return append(dst, '}')
	}
	for i := lt.n - 1; i >= 0; i-- {
		if s := &lt.slots[i]; s.datatype == t.Datatype && s.lang == t.Lang {
			return append(dst, dst[s.start:s.end]...)
		}
	}
	start := len(dst)
	if t.Lang != "" {
		dst = append(dst, `,"xml:lang":`...)
		dst = appendString(dst, t.Lang)
	}
	if t.Datatype != "" {
		dst = append(dst, `,"datatype":`...)
		dst = appendString(dst, t.Datatype)
	}
	dst = append(dst, '}')
	if lt.n < len(lt.slots) {
		lt.slots[lt.n] = literalTail{t.Lang, t.Datatype, start, len(dst)}
		lt.n++
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// copiesAsIs[b] is 1 when byte b stands for itself in an encoded
// string — printable ASCII other than ", \, <, > and & — and 0
// otherwise, so that the lookups of four bytes combine with &.
var copiesAsIs = func() (t [256]uint8) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = 1
	}
	for _, b := range `"\<>&` {
		t[b] = 0
	}
	return t
}()

// appendString appends s as a JSON string, escaped the way the standard
// library's encoder escapes by default: the two-character forms for ",
// \, \b, \f, \n, \r and \t, \u00XX for the other control characters
// and for <, > and &, \u2028 and \u2029 for those two runes, and \ufffd
// for each byte of invalid UTF-8. Everything else is copied a span at a
// time, found four bytes per step.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		for i+4 <= len(s) && copiesAsIs[s[i]]&copiesAsIs[s[i+1]]&copiesAsIs[s[i+2]]&copiesAsIs[s[i+3]] != 0 {
			i += 4
		}
		if i == len(s) {
			break
		}
		b := s[i]
		if copiesAsIs[b] != 0 {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeResults parses application/sparql-results+json.
func DecodeResults(r io.Reader) (*sparql.Results, error) {
	return decodeBody(r, 0)
}

// decodeBody reads r to its end into a pooled buffer, presized when the
// caller knows the length (a Content-Length), and decodes what it read.
func decodeBody(r io.Reader, size int64) (*sparql.Results, error) {
	bp := bodyPool.Get().(*[]byte)
	buf := bytes.NewBuffer((*bp)[:0])
	if size > 0 {
		// ReadFrom asks for MinRead spare bytes before every Read, the
		// one that reports EOF included.
		buf.Grow(int(min(size, maxPooledBody)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	var res *sparql.Results
	if err == nil {
		d := decoder{data: buf.Bytes()}
		res, err = d.document()
	}
	*bp = buf.Bytes()
	putBody(bp)
	if err != nil {
		return nil, fmt.Errorf("endpoint: decode results: %w", err)
	}
	return res, nil
}

// maxSkipDepth bounds the nesting of a member the decoder skips
// (the standard library decoder's limit).
const maxSkipDepth = 10000

// decoder is a recursive-descent scanner over the SPARQL-JSON grammar:
//
//	{ "head": {"vars": [string...]},
//	  "boolean": bool |
//	  "results": {"bindings": [ {var: term...}... ]} }
//	term = {"type": "uri"|"bnode"|"literal"|"typed-literal",
//	        "value": string [, "xml:lang": string] [, "datatype": string]}
//
// Members come in any order, other members are skipped whatever their
// value, and of a repeated member the last counts, as in the reference
// decoder. Nothing it returns points into data.
//
// A body in the layout appendResults writes takes fast paths that fall
// back to the general grammar at the first byte off it: a binding's
// member names are matched as the encoder spells them (knownMember), a
// term is read without its member loop (canonicalTerm), and a datatype,
// language or IRI spelled as the last one of its kind is taken without
// a scan (respelled).
type decoder struct {
	data    []byte
	pos     int
	scratch []byte // the unescaped form of the last string that had one

	vars    []string
	cols    []docColumn    // per column of vars
	colOf   map[string]int // name → the first column that carries it
	repeats [][2]int       // {column, first column of its name}, where a name repeats
	order   []int          // order[k]: the column the k-th member of the last row named

	// bindingsAt is the offset of the last results.bindings array, -1
	// before one is seen; reread says its rows must be read (again) at
	// the end because head.vars came after it.
	bindingsAt int
	reread     bool
	rows       [][]rdf.Term
	slab       []rdf.Term // rows are carved from it

	// interned holds the document's datatype IRIs and language tags;
	// datatype and lang are the ones read last, which the next literal
	// nearly always repeats.
	interned       map[string]string
	datatype, lang spelled
	// iris holds the IRI values of the columns whose IRIs have shown
	// repetition: a value still in recent, a direct-mapped cache by
	// hash, when it came again. A column of distinct IRIs never
	// touches the map, and a document without repetition builds none.
	iris   map[string]string
	recent [64]string
}

// docColumn is what the decoder keeps per column.
type docColumn struct {
	key        string  // `"name":` as the encoder spells it
	iri        spelled // the IRI read last in the column
	repeatsIRI bool    // its IRIs go through decoder.iris
}

// spelled is a string read from the body with its spelling there,
// quotes included: the next string spelled alike is the same string,
// taken without a scan.
type spelled struct {
	raw []byte
	s   string
}

func (d *decoder) document() (*sparql.Results, error) {
	d.bindingsAt = -1
	if err := d.expect('{'); err != nil {
		return nil, err
	}
	var boolean, hasBoolean, headSeen bool
	for first := true; ; first = false {
		key, ok, err := d.nextKey(first)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch string(key) {
		case "head":
			headSeen = true
			err = d.head()
		case "boolean":
			hasBoolean = true
			boolean, err = d.boolean()
		case "results":
			err = d.results(headSeen)
		default:
			err = d.skip(0)
		}
		if err != nil {
			return nil, err
		}
	}
	d.ws()
	if d.pos < len(d.data) {
		return nil, d.syntax("the end of the document")
	}
	switch hasResults := d.bindingsAt >= 0; {
	case hasBoolean && hasResults:
		return nil, fmt.Errorf("document has both boolean and results")
	case hasBoolean:
		return &sparql.Results{IsAsk: true, Boolean: boolean}, nil
	case !hasResults:
		return nil, fmt.Errorf("document has neither boolean nor results.bindings")
	}
	if d.reread {
		d.pos = d.bindingsAt
		if err := d.bindings(); err != nil {
			return nil, err
		}
	}
	return &sparql.Results{Vars: d.vars, Rows: d.rows}, nil
}

func (d *decoder) head() error {
	if err := d.expect('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.nextKey(first)
		if err != nil || !ok {
			return err
		}
		if string(key) == "vars" {
			err = d.headVars()
		} else {
			err = d.skip(0)
		}
		if err != nil {
			return err
		}
	}
}

// headVars reads the array of variable names at the cursor. Rows read
// under an earlier declaration are read again at the end.
func (d *decoder) headVars() error {
	if err := d.expect('['); err != nil {
		return err
	}
	d.vars, d.colOf, d.repeats, d.order = []string{}, map[string]int{}, nil, nil
	d.reread = d.bindingsAt >= 0
	for first := true; ; first = false {
		if more, err := d.next(first, ']'); err != nil || !more {
			d.cols = docColumns(d.vars)
			return err
		}
		v, err := d.str()
		if err != nil {
			return err
		}
		name := string(v)
		if c, ok := d.colOf[name]; ok {
			d.repeats = append(d.repeats, [2]int{len(d.vars), c})
		} else {
			d.colOf[name] = len(d.vars)
		}
		d.vars = append(d.vars, name)
	}
}

// docColumns starts the decoder's state for the columns of vars. A
// decoded name is valid UTF-8, so its encoding decodes back to it: a
// body that spells a member's name as the key does names that column.
func docColumns(vars []string) []docColumn {
	var (
		keyBuf [256]byte
		endBuf [16]int
	)
	keys, ends := keyBuf[:0], endBuf[:0]
	for _, v := range vars {
		keys = append(appendString(keys, v), ':')
		ends = append(ends, len(keys))
	}
	all, cols, start := string(keys), make([]docColumn, len(vars)), 0
	for i, end := range ends {
		cols[i].key, start = all[start:end], end
	}
	return cols
}

func (d *decoder) boolean() (bool, error) {
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, d.syntax("true or false")
}

// literal consumes word if the cursor is on it.
func (d *decoder) literal(word string) bool {
	if len(d.data)-d.pos < len(word) || string(d.data[d.pos:d.pos+len(word)]) != word {
		return false
	}
	d.pos += len(word)
	return true
}

// respelled consumes the string at the cursor if it is spelled as last.
func (d *decoder) respelled(last *spelled) bool {
	if len(last.raw) == 0 || !bytes.HasPrefix(d.data[d.pos:], last.raw) {
		return false
	}
	d.pos += len(last.raw)
	return true
}

// results reads the "results" member. Its bindings are decoded in place
// when head came first, and otherwise checked, skipped and left for
// document to reread once the variables are known.
func (d *decoder) results(headSeen bool) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := d.nextKey(first)
		if err != nil || !ok {
			return err
		}
		switch {
		case string(key) != "bindings":
			err = d.skip(0)
		case headSeen:
			d.bindingsAt, d.reread = d.pos, false
			err = d.bindings()
		default:
			d.bindingsAt, d.reread = d.pos, true
			err = d.skip(0)
		}
		if err != nil {
			return err
		}
	}
}

// bindings reads the array of binding objects at the cursor into
// d.rows.
func (d *decoder) bindings() error {
	d.rows = nil
	if err := d.expect('['); err != nil {
		return err
	}
	for first := true; ; first = false {
		if more, err := d.next(first, ']'); err != nil || !more {
			return err
		}
		if err := d.binding(); err != nil {
			return err
		}
	}
}

func (d *decoder) binding() error {
	if err := d.expect('{'); err != nil {
		return err
	}
	row := d.newRow()
	for k := 0; ; k++ {
		c, ok := d.knownMember(k)
		if !ok {
			key, more, err := d.nextKey(k == 0)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			if c, err = d.column(key, k); err != nil {
				return err
			}
		}
		if err := d.term(&row[c], c); err != nil {
			return err
		}
	}
	for _, r := range d.repeats {
		row[r[0]] = row[r[1]]
	}
	d.rows = append(d.rows, row)
	return nil
}

// knownMember consumes the name of the k-th member of a binding when it
// is the one the k-th member of the row before had, spelled as the
// encoder spells it, and returns its column.
func (d *decoder) knownMember(k int) (int, bool) {
	if k >= len(d.order) {
		return 0, false
	}
	c, start := d.order[k], d.pos
	if k > 0 && !d.literal(",") || !d.literal(d.cols[c].key) {
		d.pos = start
		return 0, false
	}
	return c, true
}

// newRow carves an all-unbound row from the slab. A new slab holds the
// rows the bytes left would hold at the bytes per row read so far.
func (d *decoder) newRow() []rdf.Term {
	n := len(d.vars)
	if n == 0 {
		return []rdf.Term{}
	}
	if len(d.slab) < n {
		rows := 16
		if read := d.pos - d.bindingsAt; len(d.rows) > 0 && read > 0 {
			rows = (len(d.data)-d.pos)*len(d.rows)/read + 1
		}
		d.slab = make([]rdf.Term, n*min(max(rows, 16), 1024))
	}
	row := d.slab[:n:n]
	d.slab = d.slab[n:]
	return row
}

// column finds the column the k-th member of a binding names. Rows
// repeat their members in one order, so the name is first compared with
// the column the k-th member of the row before named; only a miss (the
// first row, a row after an unbound cell) goes to the document's map.
// There is no per-row map.
func (d *decoder) column(key []byte, k int) (int, error) {
	if k < len(d.order) && string(key) == d.vars[d.order[k]] {
		return d.order[k], nil
	}
	c, ok := d.colOf[string(key)]
	if !ok {
		return 0, fmt.Errorf("binding for %q, which head.vars does not declare, before offset %d", key, d.pos)
	}
	if k < len(d.order) {
		d.order[k] = c
	} else {
		d.order = append(d.order, c)
	}
	return c, nil
}

// term reads the term object at the cursor into t, a cell of column
// col. One in the layout the encoder writes (termOpenings, then
// xml:lang and datatype in that order, no whitespace, no other member)
// is read straight through; anything else goes to the general member
// loop from its first member.
func (d *decoder) term(t *rdf.Term, col int) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.canonicalTerm(t, col) {
		return nil
	}
	var hasType, hasValue bool
	*t = rdf.Term{}
	for first := true; ; first = false {
		key, ok, err := d.nextKey(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch string(key) {
		case "type":
			var s []byte
			if s, err = d.str(); err != nil {
				return err
			}
			hasType = true
			switch string(s) {
			case "uri":
				t.Kind = rdf.TermIRI
			case "bnode":
				t.Kind = rdf.TermBlank
			case "literal", "typed-literal":
				t.Kind = rdf.TermLiteral
			default:
				return fmt.Errorf("unknown term type %q before offset %d", s, d.pos)
			}
		case "value":
			hasValue = true
			t.Value, err = d.value(hasType && t.Kind == rdf.TermIRI, col)
		case "xml:lang":
			t.Lang, err = d.intern(&d.lang)
		case "datatype":
			t.Datatype, err = d.intern(&d.datatype)
		default:
			err = d.skip(0)
		}
		if err != nil {
			return err
		}
	}
	if !hasType || !hasValue {
		return fmt.Errorf("term without type or value before offset %d", d.pos)
	}
	normalize(t)
	return nil
}

// canonicalTerm is term's fast path, with the cursor after the '{'. It
// reports false, the cursor back where it was, at the first byte off the
// encoder's layout.
func (d *decoder) canonicalTerm(t *rdf.Term, col int) bool {
	const typ = `"type":"`
	start := d.pos
	if len(d.data)-start <= len(typ) {
		return false
	}
	*t = rdf.Term{}
	switch d.data[start+len(typ)] {
	case 'u':
		t.Kind = rdf.TermIRI
	case 'b':
		t.Kind = rdf.TermBlank
	case 'l':
		t.Kind = rdf.TermLiteral
	default:
		return false
	}
	if !d.literal(termOpenings[t.Kind]) {
		return false
	}
	var err error
	t.Value, err = d.value(t.Kind == rdf.TermIRI, col)
	if err == nil && t.Kind == rdf.TermLiteral && d.literal(`,"xml:lang":`) {
		t.Lang, err = d.intern(&d.lang)
	}
	if err == nil && t.Kind == rdf.TermLiteral && d.literal(`,"datatype":`) {
		t.Datatype, err = d.intern(&d.datatype)
	}
	if err != nil || !d.literal("}") {
		d.pos = start
		return false
	}
	normalize(t)
	return true
}

// normalize applies the reference decoder's precedence: only a literal
// keeps a language or a datatype, and a language wins over a datatype.
func normalize(t *rdf.Term) {
	switch {
	case t.Kind != rdf.TermLiteral:
		t.Lang, t.Datatype = "", ""
	case t.Lang != "":
		t.Datatype = ""
	}
}

// value reads the string at the cursor as the value of a term in column
// col, an IRI or not.
func (d *decoder) value(iri bool, col int) (string, error) {
	if iri {
		return d.iri(col)
	}
	s, err := d.str()
	return string(s), err
}

// intern reads the string at the cursor as a datatype IRI or language
// tag: last's string when it is spelled as last was, and otherwise the
// document's one copy of it, which becomes last.
func (d *decoder) intern(last *spelled) (string, error) {
	start := d.pos
	if d.respelled(last) {
		return last.s, nil
	}
	b, err := d.str()
	if err != nil {
		return "", err
	}
	s, ok := d.interned[string(b)]
	if !ok {
		if d.interned == nil {
			d.interned = map[string]string{}
		}
		s = string(b)
		d.interned[s] = s
	}
	*last = spelled{d.data[start:d.pos], s}
	return s, nil
}

// iriSeed seeds the hash that places an IRI in decoder.recent.
var iriSeed = maphash.MakeSeed()

// iri reads the string at the cursor as an IRI value of column col: the
// column's last IRI when it is spelled alike, and the document's one
// string for it once the column has shown repetition.
func (d *decoder) iri(col int) (string, error) {
	c := &d.cols[col]
	start := d.pos
	if d.respelled(&c.iri) {
		return c.iri.s, nil
	}
	b, err := d.str()
	if err != nil {
		return "", err
	}
	var s string
	if c.repeatsIRI {
		var ok bool
		if s, ok = d.iris[string(b)]; !ok {
			s = string(b)
			d.iris[s] = s
		}
	} else if slot := &d.recent[maphash.Bytes(iriSeed, b)%uint64(len(d.recent))]; *slot == string(b) {
		s, c.repeatsIRI = *slot, true
		if d.iris == nil {
			d.iris = map[string]string{}
		}
		d.iris[s] = s
	} else {
		s = string(b)
		*slot = s
	}
	c.iri = spelled{d.data[start:d.pos], s}
	return s, nil
}

// ws skips insignificant whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// syntax reports what the grammar wanted at the cursor.
func (d *decoder) syntax(want string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("%w: want %s at offset %d", io.ErrUnexpectedEOF, want, d.pos)
	}
	return fmt.Errorf("want %s at offset %d, found %q", want, d.pos, d.data[d.pos])
}

// expect skips whitespace and consumes c.
func (d *decoder) expect(c byte) error {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return nil
	}
	return d.syntax(strconv.QuoteRune(rune(c)))
}

// nextKey moves to the next member of the object the cursor is in and
// returns its name, valid until the next string is read, with the
// cursor on its value; ok is false once the closing brace is consumed.
func (d *decoder) nextKey(first bool) (key []byte, ok bool, err error) {
	more, err := d.next(first, '}')
	if err != nil || !more {
		return nil, false, err
	}
	if key, err = d.str(); err != nil {
		return nil, false, err
	}
	if err := d.expect(':'); err != nil {
		return nil, false, err
	}
	d.ws()
	return key, true, nil
}

// next moves to the next element of the array (closer ']') or member
// of the object (closer '}') the cursor is in; it reports false once the
// closer is consumed. first says none has been read yet.
func (d *decoder) next(first bool, closer byte) (bool, error) {
	d.ws()
	if d.pos < len(d.data) && d.data[d.pos] == closer {
		d.pos++
		return false, nil
	}
	if !first {
		if d.pos >= len(d.data) || d.data[d.pos] != ',' {
			return false, d.syntax("',' or " + strconv.QuoteRune(rune(closer)))
		}
		d.pos++
		d.ws()
	}
	return true, nil
}

// standsForItself[b] says whether byte b denotes itself in a string
// and needs no check: printable ASCII other than " and \.
var standsForItself = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

const (
	lsbs = 0x0101010101010101
	msbs = 0x8080808080808080
)

// plainWord reports whether every byte of x stands for itself, eight at
// a time: no byte below ' ' or from 0x80 up, no '"' and no '\\'.
func plainWord(x uint64) bool {
	q, b := x^(lsbs*'"'), x^(lsbs*'\\')
	return ((x-lsbs*' ')&^x|(q-lsbs)&^q|(b-lsbs)&^b|x)&msbs == 0
}

// str reads the string at the cursor and returns its contents: a slice
// of the body when that is what the string denotes, and of d.scratch
// when it has an escape or invalid UTF-8. Valid until the next call.
func (d *decoder) str() ([]byte, error) {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, d.syntax("a string")
	}
	data, start := d.data, d.pos+1
	for i := start; i < len(data); {
		for i+8 <= len(data) && plainWord(binary.LittleEndian.Uint64(data[i:])) {
			i += 8
		}
		if i == len(data) {
			break
		}
		c := data[i]
		if standsForItself[c] {
			i++
			continue
		}
		if c == '"' {
			d.pos = i + 1
			return data[start:i], nil
		}
		if c < utf8.RuneSelf {
			break // an escape or a control character
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	return d.unescape(start)
}

// unescape is str for a string that is not its own value: escapes are
// resolved (a surrogate without its pair becomes U+FFFD) and invalid
// UTF-8 is replaced by U+FFFD byte by byte, as the reference decoder does.
func (d *decoder) unescape(start int) ([]byte, error) {
	b := d.scratch[:0]
	for i := start; i < len(d.data); {
		c := d.data[i]
		switch {
		case c == '"':
			d.pos, d.scratch = i+1, b
			return b, nil
		case c < ' ':
			d.pos = i
			return nil, d.syntax("no control character in a string")
		case c == '\\':
			d.pos = i + 1
			if d.pos >= len(d.data) {
				return nil, d.syntax("an escape")
			}
			i += 2
			switch d.data[d.pos] {
			case '"', '\\', '/':
				b = append(b, d.data[d.pos])
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.data[i:])
				if r < 0 {
					return nil, d.syntax("four hex digits after \\")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					pair := utf8.RuneError
					if i+1 < len(d.data) && d.data[i] == '\\' && d.data[i+1] == 'u' {
						pair = utf16.DecodeRune(r, hex4(d.data[i+2:]))
					}
					if r = pair; r != utf8.RuneError {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				return nil, d.syntax("an escape")
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.pos = len(d.data)
	return nil, d.syntax(`a closing '"'`)
}

// hex4 is the value of the four hex digits b starts with, or -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skip checks and passes over the value at the cursor, whatever it is.
func (d *decoder) skip(depth int) error {
	if depth > maxSkipDepth {
		return fmt.Errorf("nesting deeper than %d at offset %d", maxSkipDepth, d.pos)
	}
	if d.pos >= len(d.data) {
		return d.syntax("a value")
	}
	switch c := d.data[d.pos]; {
	case c == '"':
		_, err := d.str()
		return err
	case c == '{':
		d.pos++
		for first := true; ; first = false {
			if _, ok, err := d.nextKey(first); err != nil || !ok {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '[':
		d.pos++
		for first := true; ; first = false {
			if more, err := d.next(first, ']'); err != nil || !more {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	if d.literal("true") || d.literal("false") || d.literal("null") {
		return nil
	}
	return d.syntax("a value")
}

// number passes over a JSON number: -? (0 | [1-9][0-9]*) (. [0-9]+)?
// ([eE] [+-]? [0-9]+)?
func (d *decoder) number() error {
	digits := func() bool {
		start := d.pos
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			d.pos++
		}
		return d.pos > start
	}
	at := func(set string) bool {
		return d.pos < len(d.data) && strings.IndexByte(set, d.data[d.pos]) >= 0
	}
	if at("-") {
		d.pos++
	}
	if at("0") {
		d.pos++
	} else if !digits() {
		return d.syntax("a digit")
	}
	if at(".") {
		d.pos++
		if !digits() {
			return d.syntax("a digit")
		}
	}
	if at("eE") {
		d.pos++
		if at("+-") {
			d.pos++
		}
		if !digits() {
			return d.syntax("a digit")
		}
	}
	return nil
}
