package sparql

import (
	"fmt"
	"math"
	"strings"
)

type tokenKind uint8

const (
	tokEOF    tokenKind = iota
	tokIRI              // <...>
	tokPName            // prefix:local or prefix:
	tokVar              // ?x or $x
	tokString           // "..." with optional @lang or ^^<dt>
	tokNumber
	tokKeyword // bare word: SELECT, WHERE, a, true, ...
	tokPunct   // { } ( ) . , ; * / + - = ! < > <= >= != && || ^
)

// token is a kind and a source span, [pos, end): the text is sliced
// from the query when the parser asks for it, so lexing allocates
// nothing per token. A string token's span runs to the end of its
// language tag or datatype IRI; body marks its closing quote.
type token struct {
	kind           tokenKind
	pos, end, body int32
}

// SyntaxError reports a SPARQL syntax error with byte offset.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sparql: syntax error at offset %d: %s", e.Pos, e.Msg)
}

// lexer splits a query into tokens. Spans are int32, so a query is at
// most math.MaxInt32 bytes long.
type lexer struct {
	src string
	pos int
}

// lex appends every token of src to toks, ending with tokEOF, or
// reports the first lexical error.
func lex(src string, toks []token) ([]token, error) {
	if len(src) > math.MaxInt32 {
		return nil, &SyntaxError{0, "query too long"}
	}
	l := lexer{src: src}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

// tok is the token of the given kind from start to the current offset.
func (l *lexer) tok(kind tokenKind, start int) token {
	return token{kind: kind, pos: int32(start), end: int32(l.pos)}
}

func (l *lexer) next() (token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return l.tok(tokEOF, start), nil
	}
	c := l.src[l.pos]
	switch {
	case c == '<':
		// IRI if a '>' occurs before whitespace; otherwise comparison.
		if end := l.iriEnd(); end > 0 {
			l.pos = end + 1
			return l.tok(tokIRI, start), nil
		}
		l.pos++
		if l.peekAt(0) == '=' {
			l.pos++
		}
		return l.tok(tokPunct, start), nil
	case c == '?' || c == '$':
		l.pos++
		if l.readName() == "" {
			return token{}, &SyntaxError{start, "empty variable name"}
		}
		return l.tok(tokVar, start), nil
	case c == '"' || c == '\'':
		return l.readString(c)
	case c >= '0' && c <= '9' || (c == '.' && l.digitAt(1)) ||
		((c == '+' || c == '-') && l.digitAt(1)):
		return l.readNumber(), nil
	case c == '{' || c == '}' || c == '(' || c == ')' || c == '.' || c == ',' || c == ';' || c == '*' || c == '/' || c == '+' || c == '-' || c == '=' || c == '^':
		l.pos++
		return l.tok(tokPunct, start), nil
	case c == '!' || c == '>':
		l.pos++
		if l.peekAt(0) == '=' {
			l.pos++
		}
		return l.tok(tokPunct, start), nil
	case c == '&':
		if l.peekAt(1) == '&' {
			l.pos += 2
			return l.tok(tokPunct, start), nil
		}
		return token{}, &SyntaxError{start, "single '&'"}
	case c == '|':
		if l.peekAt(1) == '|' {
			l.pos += 2
			return l.tok(tokPunct, start), nil
		}
		return token{}, &SyntaxError{start, "single '|' (alternative paths unsupported)"}
	default:
		if l.readName() == "" {
			return token{}, &SyntaxError{start, fmt.Sprintf("unexpected character %q", c)}
		}
		// prefixed name?
		if l.pos < len(l.src) && l.src[l.pos] == ':' {
			l.pos++
			l.readName()
			return l.tok(tokPName, start), nil
		}
		return l.tok(tokKeyword, start), nil
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '#' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

// iriEnd returns the index of the closing '>' if the text starting at
// l.pos looks like an IRIREF (no whitespace before '>'), else -1.
func (l *lexer) iriEnd() int {
	for i := l.pos + 1; i < len(l.src); i++ {
		switch l.src[i] {
		case '>':
			return i
		case ' ', '\t', '\n', '\r', '<', '"':
			return -1
		}
	}
	return -1
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off < len(l.src) {
		return l.src[l.pos+off]
	}
	return 0
}

func (l *lexer) digitAt(off int) bool {
	c := l.peekAt(off)
	return c >= '0' && c <= '9'
}

func (l *lexer) readName() string {
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-' || c >= 0x80 {
			l.pos++
			continue
		}
		break
	}
	return l.src[start:l.pos]
}

// readString scans a quoted literal with its optional @lang or
// ^^<datatype>; the parser unescapes the body (see stringBody).
func (l *lexer) readString(quote byte) (token, error) {
	start := l.pos
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos += 2
			continue
		}
		if c != quote {
			l.pos++
			continue
		}
		tok := token{kind: tokString, pos: int32(start), body: int32(l.pos)}
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '@' {
			l.pos++
			l.readName()
		} else if l.pos+1 < len(l.src) && l.src[l.pos] == '^' && l.src[l.pos+1] == '^' {
			l.pos += 2
			if l.pos >= len(l.src) || l.src[l.pos] != '<' {
				return token{}, &SyntaxError{l.pos, "expected <IRI> after ^^"}
			}
			end := l.iriEnd()
			if end < 0 {
				return token{}, &SyntaxError{l.pos, "malformed datatype IRI"}
			}
			l.pos = end + 1
		}
		tok.end = int32(l.pos)
		return tok, nil
	}
	return token{}, &SyntaxError{start, "unterminated string"}
}

func (l *lexer) readNumber() token {
	start := l.pos
	if c := l.src[l.pos]; c == '+' || c == '-' {
		l.pos++
	}
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.' && !seenDot && !seenExp && l.digitAt(1):
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp:
			seenExp = true
			l.pos++
			if n := l.peekAt(0); n == '+' || n == '-' {
				l.pos++
			}
		default:
			return l.tok(tokNumber, start)
		}
	}
	return l.tok(tokNumber, start)
}

// stringBody is the unescaped text between a string token's quotes:
// a slice of src when it has no escape, else a fresh string.
func stringBody(src string, t token) string {
	body := src[t.pos+1 : t.body]
	if strings.IndexByte(body, '\\') < 0 {
		return body
	}
	var b strings.Builder
	b.Grow(len(body))
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' || i+1 == len(body) {
			b.WriteByte(c)
			continue
		}
		i++
		switch body[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '"', '\'', '\\':
			b.WriteByte(body[i])
		default:
			b.WriteByte('\\')
			b.WriteByte(body[i])
		}
	}
	return b.String()
}

// stringSuffix is a string token's language tag or datatype IRI, one of
// them empty.
func stringSuffix(src string, t token) (lang, dtype string) {
	suffix := src[t.body+1 : t.end]
	switch {
	case strings.HasPrefix(suffix, "@"):
		return suffix[1:], ""
	case strings.HasPrefix(suffix, "^^<"):
		return "", suffix[3 : len(suffix)-1]
	}
	return "", ""
}
