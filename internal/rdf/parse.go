package rdf

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: parse error at line %d: %s", e.Line, e.Msg)
}

// Decoder parses RDF statements from a stream. It accepts N-Triples and
// the Turtle subset the generators and tests emit: @prefix directives,
// prefixed names, "a" for rdf:type, and ';'/',' predicate/object lists.
type Decoder struct {
	r        *bufio.Reader
	line     int
	prefixes map[string]string
	base     string
	// pending holds triples already expanded from ';'/',' lists.
	pending []Triple
	blankN  int
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{
		r:        bufio.NewReaderSize(r, 64<<10),
		prefixes: map[string]string{},
	}
}

// Decode returns the next triple, or io.EOF when the stream ends.
func (d *Decoder) Decode() (Triple, error) {
	for {
		if len(d.pending) > 0 {
			t := d.pending[0]
			d.pending = d.pending[1:]
			return t, nil
		}
		stmt, err := d.readStatement()
		if err != nil {
			return Triple{}, err
		}
		if stmt == "" {
			continue
		}
		if strings.HasPrefix(stmt, "@prefix") || strings.HasPrefix(stmt, "PREFIX") || strings.HasPrefix(stmt, "prefix") {
			if err := d.parsePrefix(stmt); err != nil {
				return Triple{}, err
			}
			continue
		}
		if strings.HasPrefix(stmt, "@base") || strings.HasPrefix(stmt, "BASE") {
			continue // base IRIs are accepted and ignored
		}
		if err := d.parseTriples(stmt); err != nil {
			return Triple{}, err
		}
	}
}

// DecodeAll reads every remaining triple.
func (d *Decoder) DecodeAll() ([]Triple, error) {
	var out []Triple
	for {
		t, err := d.Decode()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// readStatement accumulates raw input until an unquoted '.' terminator,
// stripping comments. It returns "" for blank statements.
func (d *Decoder) readStatement() (string, error) {
	var b strings.Builder
	inString := false
	inIRI := false
	escaped := false
	for {
		c, err := d.r.ReadByte()
		if err == io.EOF {
			s := strings.TrimSpace(b.String())
			if s == "" {
				return "", io.EOF
			}
			return s, nil
		}
		if err != nil {
			return "", err
		}
		if c == '\n' {
			d.line++
		}
		if inString {
			b.WriteByte(c)
			if escaped {
				escaped = false
			} else if c == '\\' {
				escaped = true
			} else if c == '"' {
				inString = false
			}
			continue
		}
		if inIRI {
			b.WriteByte(c)
			if c == '>' {
				inIRI = false
			}
			continue
		}
		switch c {
		case '<':
			inIRI = true
			b.WriteByte(c)
		case '"':
			// Triple-quoted long strings pass through verbatim until the
			// closing delimiter; tokenize re-escapes them.
			if pk, _ := d.r.Peek(2); len(pk) == 2 && pk[0] == '"' && pk[1] == '"' {
				d.r.Discard(2)
				b.WriteString(`"""`)
				for {
					lc, lerr := d.r.ReadByte()
					if lerr != nil {
						return "", &ParseError{d.line, "unterminated long string"}
					}
					if lc == '\n' {
						d.line++
					}
					b.WriteByte(lc)
					if lc == '"' {
						if pk2, _ := d.r.Peek(2); len(pk2) == 2 && pk2[0] == '"' && pk2[1] == '"' {
							d.r.Discard(2)
							b.WriteString(`""`)
							break
						}
					}
				}
				continue
			}
			inString = true
			b.WriteByte(c)
		case '#':
			// comment to end of line
			for {
				c2, err2 := d.r.ReadByte()
				if err2 != nil || c2 == '\n' {
					if c2 == '\n' {
						d.line++
					}
					break
				}
			}
			b.WriteByte(' ')
		case '.':
			// '.' terminates a statement unless it is part of a number
			// or an IRI; those never appear followed by whitespace/EOL
			// mid-token in our grammar because numbers are quoted
			// literals in N-Triples. Decimal digits in plain Turtle
			// numbers are handled by peeking: a '.' followed by a digit
			// is part of a number.
			if p, _ := d.r.Peek(1); len(p) == 1 && p[0] >= '0' && p[0] <= '9' {
				b.WriteByte(c)
				continue
			}
			s := strings.TrimSpace(b.String())
			return s, nil
		default:
			b.WriteByte(c)
		}
	}
}

func (d *Decoder) parsePrefix(stmt string) error {
	f := strings.Fields(stmt)
	if len(f) < 3 {
		return &ParseError{d.line, "malformed @prefix"}
	}
	name := strings.TrimSuffix(f[1], ":")
	iri := f[2]
	if len(iri) < 2 || iri[0] != '<' || strings.IndexByte(iri, '>') != len(iri)-1 {
		return &ParseError{d.line, fmt.Sprintf("malformed @prefix IRI %q", iri)}
	}
	d.prefixes[name] = iri[1 : len(iri)-1]
	return nil
}

// parseTriples expands one Turtle statement (which may contain ';' and
// ',' lists and nested [ ... ] blank-node property lists) into
// d.pending.
func (d *Decoder) parseTriples(stmt string) error {
	toks, err := tokenize(stmt)
	if err != nil {
		return &ParseError{d.line, err.Error()}
	}
	if len(toks) < 3 && !(len(toks) >= 2 && toks[0] == "[") {
		return &ParseError{d.line, fmt.Sprintf("statement with %d terms", len(toks))}
	}
	tp := &stmtParser{d: d, toks: toks}
	subj, err := tp.parseTerm()
	if err != nil {
		return &ParseError{d.line, err.Error()}
	}
	// A bare "[ ... ]" statement is complete after the bracket group.
	if tp.i < len(tp.toks) {
		if err := tp.parsePredicateObjectList(subj, false); err != nil {
			return &ParseError{d.line, err.Error()}
		}
	}
	if tp.i != len(tp.toks) {
		return &ParseError{d.line, fmt.Sprintf("unexpected token %q", tp.toks[tp.i])}
	}
	return nil
}

// stmtParser walks one tokenized statement recursively.
type stmtParser struct {
	d    *Decoder
	toks []string
	i    int
}

// parseTerm resolves the next token into a term; '[' starts an
// anonymous blank node whose property list is parsed in place.
func (tp *stmtParser) parseTerm() (Term, error) {
	if tp.i >= len(tp.toks) {
		return Term{}, fmt.Errorf("unexpected end of statement")
	}
	tok := tp.toks[tp.i]
	if tok == "[" {
		tp.i++
		tp.d.blankN++
		node := NewBlank(fmt.Sprintf("anon%d", tp.d.blankN))
		if tp.i < len(tp.toks) && tp.toks[tp.i] != "]" {
			if err := tp.parsePredicateObjectList(node, true); err != nil {
				return Term{}, err
			}
		}
		if tp.i >= len(tp.toks) || tp.toks[tp.i] != "]" {
			return Term{}, fmt.Errorf("unterminated [ ... ] block")
		}
		tp.i++
		return node, nil
	}
	tp.i++
	return tp.d.resolve(tok)
}

// parsePredicateObjectList parses "pred obj (, obj)* (; pred obj ...)*"
// emitting triples for subj. Inside brackets it stops at ']'.
func (tp *stmtParser) parsePredicateObjectList(subj Term, inBracket bool) error {
	for {
		pred, err := tp.parseTerm()
		if err != nil {
			return err
		}
		if pred.Kind != TermIRI {
			return fmt.Errorf("predicate %s is not an IRI", pred)
		}
		for {
			obj, err := tp.parseTerm()
			if err != nil {
				return err
			}
			tp.d.pending = append(tp.d.pending, Triple{S: subj, P: pred, O: obj})
			if tp.i < len(tp.toks) && tp.toks[tp.i] == "," {
				tp.i++
				continue
			}
			break
		}
		if tp.i < len(tp.toks) && tp.toks[tp.i] == ";" {
			tp.i++
			// trailing ';' before '.' or ']'
			if tp.i == len(tp.toks) || (inBracket && tp.toks[tp.i] == "]") {
				return nil
			}
			continue
		}
		return nil
	}
}

// tokenize splits a statement into term tokens plus ';' and ','
// punctuation tokens. Strings keep their quotes and suffixes
// (@lang / ^^<dt>) attached.
func tokenize(s string) ([]string, error) {
	var toks []string
	i := 0
	n := len(s)
	for i < n {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ';' || c == ',' || c == '[' || c == ']':
			toks = append(toks, string(c))
			i++
		case c == '<':
			j := strings.IndexByte(s[i:], '>')
			if j < 0 {
				return nil, fmt.Errorf("unterminated IRI")
			}
			toks = append(toks, s[i:i+j+1])
			i += j + 1
		case c == '"':
			if i+2 < n && s[i+1] == '"' && s[i+2] == '"' {
				// Long string: find the closing triple quote and re-emit
				// as a standard escaped token.
				end := strings.Index(s[i+3:], `"""`)
				if end < 0 {
					return nil, fmt.Errorf("unterminated long string")
				}
				content := s[i+3 : i+3+end]
				j := i + 3 + end + 3
				// attach suffix below using the shared logic: rebuild a
				// normal token and continue scanning from j.
				tok := `"` + escapeLiteral(content) + `"`
				if j < n && s[j] == '@' {
					k := j + 1
					for k < n && (isAlnum(s[k]) || s[k] == '-') {
						k++
					}
					tok += s[j:k]
					j = k
				} else if j+1 < n && s[j] == '^' && s[j+1] == '^' {
					k := j + 2
					if k < n && s[k] == '<' {
						e := strings.IndexByte(s[k:], '>')
						if e < 0 {
							return nil, fmt.Errorf("unterminated datatype IRI")
						}
						k += e + 1
					}
					tok += s[j:k]
					j = k
				}
				toks = append(toks, tok)
				i = j
				continue
			}
			j := i + 1
			for j < n {
				if s[j] == '\\' {
					j += 2
					continue
				}
				if s[j] == '"' {
					break
				}
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("unterminated string")
			}
			j++ // past closing quote
			// attach @lang or ^^<dt>
			if j < n && s[j] == '@' {
				k := j + 1
				for k < n && (isAlnum(s[k]) || s[k] == '-') {
					k++
				}
				j = k
			} else if j+1 < n && s[j] == '^' && s[j+1] == '^' {
				j += 2
				if j < n && s[j] == '<' {
					k := strings.IndexByte(s[j:], '>')
					if k < 0 {
						return nil, fmt.Errorf("unterminated datatype IRI")
					}
					j += k + 1
				} else {
					for j < n && !isDelim(s[j]) {
						j++
					}
				}
			}
			toks = append(toks, s[i:j])
			i = j
		default:
			j := i
			for j < n && !isDelim(s[j]) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks, nil
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isDelim(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ';' || c == ',' || c == '[' || c == ']'
}

// resolve converts one token into a Term, expanding prefixed names.
func (d *Decoder) resolve(tok string) (Term, error) {
	switch {
	case tok == "a":
		return NewIRI(RDFType), nil
	case strings.HasPrefix(tok, "<"):
		// tokenize ends an IRI token at its first '>'.
		return NewIRI(tok[1 : len(tok)-1]), nil
	case strings.HasPrefix(tok, "_:"):
		if i := strings.IndexFunc(tok[2:], notLabelRune); i >= 0 {
			return Term{}, fmt.Errorf("%q in blank node label %q", tok[2+i], tok)
		}
		return NewBlank(tok[2:]), nil
	case strings.HasPrefix(tok, "\""):
		return parseLiteralToken(tok)
	default:
		// number, boolean, or prefixed name
		if tok == "true" || tok == "false" {
			return NewTyped(tok, XSDBoolean), nil
		}
		if isNumberToken(tok) {
			if strings.ContainsAny(tok, ".eE") {
				return NewTyped(tok, XSDDouble), nil
			}
			return NewTyped(tok, XSDInteger), nil
		}
		colon := strings.IndexByte(tok, ':')
		if colon < 0 {
			return Term{}, fmt.Errorf("unrecognized token %q", tok)
		}
		prefix, local := tok[:colon], tok[colon+1:]
		base, ok := d.prefixes[prefix]
		if !ok {
			return Term{}, fmt.Errorf("unknown prefix %q", prefix)
		}
		if strings.Contains(local, ">") {
			// An IRI holding '>' has no N-Triples rendering.
			return Term{}, fmt.Errorf("'>' in prefixed name %q", tok)
		}
		return NewIRI(base + local), nil
	}
}

// notLabelRune reports a rune a blank node label may not hold: Turtle
// labels are letters, digits, '_', '-', '.' and non-ASCII characters.
// Anything else — a quote, '<' — would end or open a token when the
// label is written back.
func notLabelRune(r rune) bool {
	return r < utf8.RuneSelf && !isAlnum(byte(r)) && r != '_' && r != '-' && r != '.'
}

func isNumberToken(tok string) bool {
	if tok == "" {
		return false
	}
	i := 0
	if tok[0] == '+' || tok[0] == '-' {
		i = 1
	}
	digits := false
	for ; i < len(tok); i++ {
		c := tok[i]
		if c >= '0' && c <= '9' {
			digits = true
			continue
		}
		if c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' {
			continue
		}
		return false
	}
	return digits
}

func parseLiteralToken(tok string) (Term, error) {
	// find closing quote
	j := 1
	for j < len(tok) {
		if tok[j] == '\\' {
			j += 2
			continue
		}
		if tok[j] == '"' {
			break
		}
		j++
	}
	if j >= len(tok) {
		return Term{}, fmt.Errorf("unterminated literal %q", tok)
	}
	val := unescapeLiteral(tok[1:j])
	rest := tok[j+1:]
	switch {
	case rest == "":
		return NewString(val), nil
	case strings.HasPrefix(rest, "@"):
		return NewLangString(val, rest[1:]), nil
	case strings.HasPrefix(rest, "^^<") && strings.HasSuffix(rest, ">"):
		return NewTyped(val, rest[3:len(rest)-1]), nil
	default:
		return Term{}, fmt.Errorf("malformed literal suffix %q", rest)
	}
}

func unescapeLiteral(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 == len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// Encoder writes triples in N-Triples format.
type Encoder struct {
	w *bufio.Writer
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriterSize(w, 64<<10)}
}

// Encode writes one triple.
func (e *Encoder) Encode(t Triple) error {
	if _, err := e.w.WriteString(t.String()); err != nil {
		return err
	}
	return e.w.WriteByte('\n')
}

// Flush flushes buffered output.
func (e *Encoder) Flush() error { return e.w.Flush() }
