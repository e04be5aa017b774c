// Package endpoint implements the SPARQL protocol boundary that the
// paper's architecture relies on: RE2xOLAP is "a server application
// [that] sends SPARQL queries to a standard RDF triplestore". The
// Client interface abstracts that triplestore; InProcess wraps a local
// store directly, while Server/HTTPClient speak the SPARQL protocol
// with application/sparql-results+json bodies over HTTP.
package endpoint

import (
	"bytes"
	"fmt"
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
			if t == nil || !sparql.Bound(*t) {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, c.prefix...)
			dst = appendTerm(dst, t)
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

func appendTerm(dst []byte, t *rdf.Term) []byte {
	switch t.Kind {
	case rdf.TermIRI:
		dst = append(dst, `{"type":"uri","value":`...)
		dst = appendString(dst, t.Value)
	case rdf.TermBlank:
		dst = append(dst, `{"type":"bnode","value":`...)
		dst = appendString(dst, t.Value)
	default:
		dst = append(dst, `{"type":"literal","value":`...)
		dst = appendString(dst, t.Value)
		if t.Lang != "" {
			dst = append(dst, `,"xml:lang":`...)
			dst = appendString(dst, t.Lang)
		}
		if t.Datatype != "" {
			dst = append(dst, `,"datatype":`...)
			dst = appendString(dst, t.Datatype)
		}
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped the way the standard
// library's encoder escapes by default: the two-character forms for ",
// \, \b, \f, \n, \r and \t, \u00XX for the other control characters
// and for <, > and &, \u2028 and \u2029 for those two runes, and \ufffd
// for each byte of invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
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
type decoder struct {
	data    []byte
	pos     int
	scratch []byte // the unescaped form of the last string that had one

	vars    []string
	colOf   map[string]int // name → the first column that carries it
	repeats [][2]int       // {column, first column of its name}, where a name repeats
	order   []int          // order[k]: the column the k-th member of the last row named

	// bindingsAt is the offset of the last results.bindings array, -1
	// before one is seen; reread says its rows must be read (again) at
	// the end because head.vars came after it.
	bindingsAt int
	reread     bool
	rows       [][]rdf.Term
	slab       []rdf.Term        // rows are carved from it
	interned   map[string]string // datatype IRIs and language tags
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
	if !bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		return false
	}
	d.pos += len(word)
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
		key, ok, err := d.nextKey(k == 0)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		c, err := d.column(key, k)
		if err != nil {
			return err
		}
		if row[c], err = d.term(); err != nil {
			return err
		}
	}
	for _, r := range d.repeats {
		row[r[0]] = row[r[1]]
	}
	d.rows = append(d.rows, row)
	return nil
}

// newRow carves an all-unbound row from the slab, which grows with the
// number of rows read so far.
func (d *decoder) newRow() []rdf.Term {
	n := len(d.vars)
	if n == 0 {
		return []rdf.Term{}
	}
	if len(d.slab) < n {
		d.slab = make([]rdf.Term, n*min(max(2*len(d.rows), 16), 1024))
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

func (d *decoder) term() (rdf.Term, error) {
	if err := d.expect('{'); err != nil {
		return rdf.Term{}, err
	}
	var (
		t                 rdf.Term
		hasType, hasValue bool
	)
	for first := true; ; first = false {
		key, ok, err := d.nextKey(first)
		if err != nil {
			return rdf.Term{}, err
		}
		if !ok {
			break
		}
		member := string(key)
		if member != "type" && member != "value" && member != "xml:lang" && member != "datatype" {
			if err := d.skip(0); err != nil {
				return rdf.Term{}, err
			}
			continue
		}
		s, err := d.str()
		if err != nil {
			return rdf.Term{}, err
		}
		switch member {
		case "type":
			hasType = true
			switch string(s) {
			case "uri":
				t.Kind = rdf.TermIRI
			case "bnode":
				t.Kind = rdf.TermBlank
			case "literal", "typed-literal":
				t.Kind = rdf.TermLiteral
			default:
				return rdf.Term{}, fmt.Errorf("unknown term type %q before offset %d", s, d.pos)
			}
		case "value":
			hasValue = true
			t.Value = string(s)
		case "xml:lang":
			t.Lang = d.intern(s)
		case "datatype":
			t.Datatype = d.intern(s)
		}
	}
	switch {
	case !hasType || !hasValue:
		return rdf.Term{}, fmt.Errorf("term without type or value before offset %d", d.pos)
	case t.Kind != rdf.TermLiteral:
		t.Lang, t.Datatype = "", ""
	case t.Lang != "":
		t.Datatype = ""
	}
	return t, nil
}

// intern returns the document's one copy of a datatype IRI or language
// tag.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	if d.interned == nil {
		d.interned = map[string]string{}
	}
	s := string(b)
	d.interned[s] = s
	return s
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

// str reads the string at the cursor and returns its contents: a slice
// of the body when that is what the string denotes, and of d.scratch
// when it has an escape or invalid UTF-8. Valid until the next call.
func (d *decoder) str() ([]byte, error) {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, d.syntax("a string")
	}
	start := d.pos + 1
	var seen byte
	for i := start; i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			s := d.data[start:i]
			if seen >= utf8.RuneSelf && !utf8.Valid(s) {
				break
			}
			d.pos = i + 1
			return s, nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		seen |= c
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
