package endpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"re2xolap/internal/corpus"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// codecStrings are the values the seeded results draw from: every class
// of byte the string escaper treats differently.
var codecStrings = []string{
	"", "plain", "http://ex.org/a#b?c=d", `say "hi"`, `back\slash`, "tab\there", "line\nfeed\r",
	"\b\f\x00\x1f\x7f", "<script>&amp;</script>", "sep\u2028and\u2029", "bad\xffutf8\xc3", "\xed\xa0\x80",
	"emoji \U0001F600", "caf\u00e9 \u4e16\u754c", "/slash/", "'quote'",
}

func codecTerm(rng *rand.Rand) rdf.Term {
	s := codecStrings[rng.Intn(len(codecStrings))]
	switch rng.Intn(8) {
	case 0:
		return rdf.Term{} // unbound
	case 1:
		return rdf.NewIRI("http://ex.org/" + s)
	case 2:
		return rdf.NewBlank("b" + strconv.Itoa(rng.Intn(9)))
	case 3:
		return rdf.NewString(s)
	case 4:
		return rdf.NewLangString(s, []string{"en", "fr-CA", "x<y"}[rng.Intn(3)])
	case 5:
		return rdf.NewTyped(s, []string{rdf.XSDInteger, rdf.XSDDouble, "http://ex.org/dt&x"}[rng.Intn(3)])
	case 6:
		return rdf.NewInteger(rng.Int63n(1e6))
	}
	// Both a language and a datatype: the encoder writes both members.
	return rdf.Term{Kind: rdf.TermLiteral, Value: s, Lang: "de", Datatype: rdf.XSDString}
}

// codecResults is the differential corpus: fixed edge cases, then
// seeded results of 0, 1 and many rows and variables.
func codecResults() []*sparql.Results {
	iri, lit := rdf.NewIRI("http://ex.org/x"), rdf.NewString("v")
	out := []*sparql.Results{
		{IsAsk: true, Boolean: true},
		{IsAsk: true, Boolean: false},
		{IsAsk: true, Boolean: true, Vars: []string{"ignored"}},
		{},
		{Rows: [][]rdf.Term{{}, {}}},
		{Vars: []string{"a"}},
		{Vars: []string{"a"}, Rows: [][]rdf.Term{{iri}}},
		{Vars: []string{"a", "b"}, Rows: [][]rdf.Term{{}, {iri}, {{}, lit}, {iri, lit}}},
		{Vars: []string{"z", "a", "m"}, Rows: [][]rdf.Term{{iri, lit, rdf.NewBlank("b0")}}},
		{Vars: []string{"a", "b", "a"}, Rows: [][]rdf.Term{{iri, lit, rdf.NewInteger(3)}, {iri, lit, {}}, {{}, {}, lit}, {iri}}},
		{Vars: []string{"a", "a", "a"}, Rows: [][]rdf.Term{{{}, lit, {}}, {{}, {}, {}}}},
		{Vars: []string{`q"uote`, "<v>", "bad\xff", ""}, Rows: [][]rdf.Term{{iri, lit, iri, lit}}},
		{IsConstruct: true, Triples: []rdf.Triple{{S: iri, P: iri, O: lit}}},
	}
	for _, s := range codecStrings {
		out = append(out, &sparql.Results{Vars: []string{"s"}, Rows: [][]rdf.Term{{
			rdf.NewIRI(s)}, {rdf.NewBlank(s)}, {rdf.NewString(s)}, {rdf.NewLangString("x", s)}, {rdf.NewTyped("x", s)},
		}})
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 60; i++ {
		vars := make([]string, rng.Intn(6))
		for j := range vars {
			vars[j] = string(rune('a' + rng.Intn(8))) // repeats now and then
		}
		res := &sparql.Results{Vars: vars}
		for r := rng.Intn(40); r > 0; r-- {
			row := make([]rdf.Term, len(vars))
			for j := range row {
				row[j] = codecTerm(rng)
			}
			res.Rows = append(res.Rows, row)
		}
		out = append(out, res)
	}
	return out
}

// codecDocuments is what the decoders are compared on: every encoded
// result, each also pretty-printed, and hand-written documents in the
// shapes other endpoints send. The reference accepts all of them.
func codecDocuments(t testing.TB) [][]byte {
	var docs [][]byte
	for _, res := range codecResults() {
		var buf, pretty bytes.Buffer
		if err := refEncodeResults(&buf, res); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&pretty, buf.Bytes(), " ", "\t"); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.Bytes(), pretty.Bytes())
	}
	for _, doc := range []string{
		// results before head
		`{"results":{"bindings":[{"a":{"type":"uri","value":"http://x"}},{}]},"head":{"vars":["a","b"]}}`,
		// extra members at every level, Virtuoso style
		`{"head":{"link":[],"vars":["a"]},"x":[1,-2.5e+3,{"y":null}],"results":{"distinct":false,"ordered":true,` +
			`"bindings":[{"a":{"type":"literal","extra":{"k":[true]},"value":"v","xml:lang":"en"}}]},"z":"\u00e9"}`,
		`{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"typed-literal","datatype":"http://dt","value":"5"}}]}}`,
		// members of a term in another order, escapes in every position
		`{"head":{"vars":["a\/b"]},"results":{"bindings":[{"a\/b":{"datatype":"http:\/\/dt","value":"\ud83d\ude00 \/ \u00e9\n","type":"literal"}}]}}`,
		`{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"literal","value":"lone \ud83d and \ude00 and \ud83dx \ud83d\u0041"}}]}}`,
		`{"head":{"vars":["a"]},"results":{"bindings":[{"\u0061":{"t\u0079pe":"ur\u0069","value":"http://x"}}]}}`,
		// whitespace everywhere, no head, no variables, empty objects
		" \t\r\n{ \"head\" : { } , \"boolean\" : true } \n",
		`{"boolean":false}`,
		`{"results":{"bindings":[]}}`,
		`{"results":{"bindings":[{},{}]}}`,
		`{"head":{"vars":[]},"results":{"bindings":[{}]}}`,
		// a repeated member: the last counts
		`{"head":{"vars":["a"]},"head":{"vars":["b"]},"results":{"bindings":[{"b":{"type":"uri","value":"1","value":"2"}}]}}`,
		`{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"bnode","value":"1"}}]},"head":{"vars":["b","a"]}}`,
		`{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"bnode","value":"1"},"a":{"type":"uri","value":"2"}}]}}`,
		// uri with a datatype, literal with both: the reference's precedence
		`{"head":{"vars":["a","b"]},"results":{"bindings":[{"a":{"type":"uri","value":"u","datatype":"d","xml:lang":"l"},` +
			`"b":{"type":"literal","value":"v","datatype":"d","xml:lang":"l"}}]}}`,
		// invalid UTF-8 becomes U+FFFD
		"{\"head\":{\"vars\":[\"a\"]},\"results\":{\"bindings\":[{\"a\":{\"type\":\"literal\",\"value\":\"x\xffy\xc3\"}}]}}",
	} {
		docs = append(docs, []byte(doc))
	}
	return docs
}

func TestEncodeMatchesReference(t *testing.T) {
	for i, res := range codecResults() {
		var got, want bytes.Buffer
		if err := EncodeResults(&got, res); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if err := refEncodeResults(&want, res); err != nil {
			t.Fatalf("result %d: reference: %v", i, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("result %d (%d vars, %d rows):\n got %s\nwant %s", i, len(res.Vars), len(res.Rows), got.Bytes(), want.Bytes())
		}
	}
	wide := &sparql.Results{Vars: []string{"a"}, Rows: [][]rdf.Term{{rdf.NewString("x"), rdf.NewString("y")}}}
	var buf bytes.Buffer
	if err := EncodeResults(&buf, wide); err == nil || buf.Len() != 0 {
		t.Errorf("row wider than vars: err = %v, wrote %q", err, buf.Bytes())
	}
}

func TestDecodeMatchesReference(t *testing.T) {
	for i, doc := range codecDocuments(t) {
		want, err := refDecodeResults(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("document %d: reference rejects %s: %v", i, doc, err)
		}
		got, err := DecodeResults(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("document %d: %v\n%s", i, err, doc)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("document %d:\n got %+v\nwant %+v\n%s", i, got, want, doc)
		}
	}
}

// sparqlJSONMembers are the names the reference matches by case-folding
// (encoding/json struct tags).
var sparqlJSONMembers = []string{"head", "vars", "boolean", "results", "bindings", "type", "value", "xml:lang", "datatype"}

// definedByReference reports whether body is a document the reference
// decoder has one reading of. It has none where RFC 8259 has none — a
// name repeated within an object, where encoding/json merges into what
// the first occurrence left — and it reads a member name that differs
// from a SPARQL-JSON one only by case as that member, which is not the
// format.
func definedByReference(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var objects []map[string]bool // per open container; nil for an array
	wantKey := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return err == io.EOF
		}
		switch v := tok.(type) {
		case json.Delim:
			switch v {
			case '{':
				objects = append(objects, map[string]bool{})
			case '[':
				objects = append(objects, nil)
			default:
				objects = objects[:len(objects)-1]
			}
		case string:
			if wantKey {
				seen := objects[len(objects)-1]
				if seen[v] {
					return false
				}
				seen[v] = true
				for _, m := range sparqlJSONMembers {
					if v != m && strings.EqualFold(v, m) {
						return false
					}
				}
				wantKey = false
				continue
			}
		}
		wantKey = len(objects) > 0 && objects[len(objects)-1] != nil
	}
}

// FuzzDecodeResults: the decoder never panics, agrees with the
// reference on every document both accept, and re-encodes what it
// accepted to a fixed point.
func FuzzDecodeResults(f *testing.F) {
	for _, doc := range codecDocuments(f) {
		f.Add(doc)
	}
	for _, doc := range malformedDocuments {
		f.Add([]byte(doc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeResults(bytes.NewReader(body))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := EncodeResults(&once, got); err != nil {
			t.Fatalf("decoded %q into a result that does not encode: %v", body, err)
		}
		again, err := DecodeResults(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("own encoding %q rejected: %v", once.Bytes(), err)
		}
		if err := EncodeResults(&twice, again); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding moved: %q then %q (%v)", once.Bytes(), twice.Bytes(), err)
		}
		want, err := refDecodeResults(bytes.NewReader(body))
		if err != nil || !definedByReference(body) {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %+v\nwant %+v", body, got, want)
		}
	})
}

// fuzzResults reads a result from arbitrary bytes: up to four variable
// names, then rows of cells, every string of any bytes (invalid UTF-8,
// U+2028/9, <>& and control bytes included). A cell is unbound, an
// IRI, a blank node, a literal with any value, language and datatype,
// a term of a kind past the literal's, or the cell above again, so the
// encoder's per-response reuse of what it rendered is exercised.
func fuzzResults(b []byte) *sparql.Results {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	str := func() string {
		n := min(int(next()%24), len(b))
		s := string(b[:n])
		b = b[n:]
		return s
	}
	res := &sparql.Results{Vars: make([]string, next()%5)}
	for i := range res.Vars {
		res.Vars[i] = str()
	}
	for r := next() % 16; r > 0; r-- {
		row := make([]rdf.Term, int(next())%(len(res.Vars)+1))
		for i := range row {
			switch next() % 6 {
			case 1:
				row[i] = rdf.NewIRI(str())
			case 2:
				row[i] = rdf.NewBlank(str())
			case 3:
				row[i] = rdf.Term{Kind: rdf.TermLiteral, Value: str(), Lang: str(), Datatype: str()}
			case 4:
				row[i] = rdf.Term{Kind: rdf.TermKind(3 + next()%4), Value: str()}
			case 5:
				if above := len(res.Rows) - 1; above >= 0 && i < len(res.Rows[above]) {
					row[i] = res.Rows[above][i]
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// FuzzEncodeResults: for any result, whatever bytes its variable names
// and terms hold, appendResults writes exactly the reference encoding.
func FuzzEncodeResults(f *testing.F) {
	for _, seed := range []string{
		"",
		"\x02\x01a\x01b\x03\x02\x01\x05http:\x03\x07lit\xffer\x02en\x03dt<",
		"\x04\x01z\x01a\x01m\x01a\x05\x04\x03\x06\u2028\u2029\x02\x02<>\x03&\x00\x1f\x05\x05\x05\x05\x04\x05\x05\x05\x05",
		"\x01\x00\x0f\x01\x03\x01v\x00\x10http://dt/\\\"\x7f\x01\x05\x01\x03\x01w\x00\x01d\x01\x04\x02\x02x",
		"\x03\x02\xed\xa0\x01\xc3\x01\xf0\x0f\x03\x01\x05\xe2\x80\xa8ab\x02\x02\xef\xbf\x04\x05\x00\x01\x61",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		res := fuzzResults(b)
		got, err := appendResults(nil, res)
		if err != nil {
			t.Fatalf("%+v: %v", res, err)
		}
		var want bytes.Buffer
		if err := refEncodeResults(&want, res); err != nil {
			t.Fatalf("%+v: reference: %v", res, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v:\n got %s\nwant %s", res, got, want.Bytes())
		}
	})
}

// FuzzDecodeResultsXML: the XML decoder never panics, and every
// document it accepts re-encodes to one it decodes to the same result.
func FuzzDecodeResultsXML(f *testing.F) {
	for _, res := range codecResults() {
		var buf bytes.Buffer
		if res.IsConstruct || EncodeResultsXML(&buf, res) != nil {
			continue
		}
		f.Add(buf.Bytes())
	}
	for _, doc := range []string{
		`<sparql><head><variable name="a"/><variable name="a"/></head><results><result>` +
			`<binding name="a"><literal xml:lang="en" datatype="http://dt">x&#xD;&#x9;y</literal></binding></result>` +
			`<result><binding name="a"><uri></uri></binding><binding name="a"><bnode>b</bnode></binding></result></results></sparql>`,
		`<sparql><head/><boolean> true </boolean><results/></sparql>`,
		`<sparql><head><variable name="a"/></head><head><variable name="b"/></head><results/><results><result/></results></sparql>`,
		`<sparql><head><variable name="x"/></head><results><result><binding name="y"><uri>u</uri></binding></result></results></sparql>`,
		`<sparql><head><variable name="x"/></head><results><result><binding name="x"/></result></results></sparql>`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeResultsXML(bytes.NewReader(body))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeResultsXML(&buf, got); err != nil {
			t.Fatalf("decoded %q into %+v, which does not encode: %v", body, got, err)
		}
		again, err := DecodeResultsXML(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoded %q into %+v; its encoding %q is rejected: %v", body, got, buf.Bytes(), err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("%q:\n decoded %+v\nre-encoded %q\ndecoded %+v", body, got, buf.Bytes(), again)
		}
	})
}

// TestHTTPRoundTripCorpus sends the 35-query corpus through
// NewServer/HTTPClient: the body is the reference encoding of the
// in-process answer, Content-Length is its length, and the client
// decodes it back to that answer.
func TestHTTPRoundTripCorpus(t *testing.T) {
	st := store.New()
	if err := st.AddAll(corpus.Triples()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(st))
	defer srv.Close()
	inproc, hc := NewInProcess(st), NewHTTPClient(srv.URL)
	ctx := context.Background()
	for _, cq := range corpus.Queries() {
		want, err := inproc.Query(ctx, cq.Query)
		if err != nil {
			t.Fatalf("%s: %v", cq.Name, err)
		}
		var ref bytes.Buffer
		if err := refEncodeResults(&ref, want); err != nil {
			t.Fatal(err)
		}
		resp, err := http.PostForm(srv.URL, url.Values{"query": {cq.Query}})
		if err != nil {
			t.Fatalf("%s: %v", cq.Name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", cq.Name, err)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q for a body of %d bytes", cq.Name, cl, len(body))
		}
		if !bytes.Equal(body, ref.Bytes()) {
			t.Errorf("%s: body differs from the reference encoding:\n got %s\nwant %s", cq.Name, body, ref.Bytes())
		}
		got, err := hc.Query(ctx, cq.Query)
		if err != nil {
			t.Fatalf("%s: %v", cq.Name, err)
		}
		// An answer without rows is a nil slice on one side, an empty one
		// on the other.
		same := got.IsAsk == want.IsAsk && got.Boolean == want.Boolean && len(got.Rows) == len(want.Rows) &&
			reflect.DeepEqual(got.Vars, want.Vars)
		for i := 0; same && i < len(got.Rows); i++ {
			same = reflect.DeepEqual(got.Rows[i], want.Rows[i])
		}
		if !same {
			t.Errorf("%s: decoded answer differs:\n got %+v\nwant %+v", cq.Name, got, want)
		}
	}
}

// TestSpecialValuesRoundTrip: aggregates over INF, -INF and NaN answer
// the xsd:double special forms, and SPARQL-JSON carries them back to
// the same terms, which read back as the same numbers.
func TestSpecialValuesRoundTrip(t *testing.T) {
	st := store.New()
	for i, lex := range []string{"INF", "-INF", "NaN"} {
		s := rdf.NewIRI(fmt.Sprintf("http://r/s%d", i))
		if err := st.AddAll([]rdf.Triple{
			rdf.NewTriple(s, rdf.NewIRI("http://r/group"), rdf.NewString(lex)),
			rdf.NewTriple(s, rdf.NewIRI("http://r/val"), rdf.NewTyped(lex, rdf.XSDDouble)),
			rdf.NewTriple(s, rdf.NewIRI("http://r/val"), rdf.NewInteger(1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := NewInProcess(st).Query(context.Background(),
		`SELECT ?g (SUM(?v) AS ?t) (AVG(?v) AS ?a) ((SUM(?v) * -1) AS ?n) WHERE { ?s <http://r/group> ?g . ?s <http://r/val> ?v } GROUP BY ?g ORDER BY ?g`)
	if err != nil {
		t.Fatal(err)
	}
	// Rows by ?g: "-INF", "INF", "NaN"; columns ?t, ?a, ?n.
	lex := [][]string{{"-INF", "-INF", "INF"}, {"INF", "INF", "-INF"}, {"NaN", "NaN", "NaN"}}
	var body bytes.Buffer
	if err := EncodeResults(&body, want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResults(&body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || len(got.Rows) != len(lex) {
		t.Fatalf("decoded %v, encoded %v", got.Rows, want.Rows)
	}
	for i, r := range got.Rows {
		for j, cell := range r[1:] {
			if cell != rdf.NewTyped(lex[i][j], rdf.XSDDouble) {
				t.Errorf("row %d column %d: %v, want %q^^xsd:double", i, j+1, cell, lex[i][j])
			}
			if f, ok := cell.Numeric(); !ok || rdf.NewDouble(f) != cell {
				t.Errorf("row %d column %d: %v reads back as %v, %v", i, j+1, cell, f, ok)
			}
		}
	}
}

type fixedClient struct{ res *sparql.Results }

func (c fixedClient) Query(context.Context, string) (*sparql.Results, error) { return c.res, nil }

// TestServerEncodeFailure: a result that cannot be rendered is a 500
// counted under the error outcome, not a 200 with half a body.
func TestServerEncodeFailure(t *testing.T) {
	wide := &sparql.Results{Vars: []string{"a"}, Rows: [][]rdf.Term{{rdf.NewString("x"), rdf.NewString("y")}}}
	reg := obs.NewRegistry()
	s := NewClientServer(fixedClient{wide}, WithRegistry(reg))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape("SELECT ?a WHERE {}"), nil))
	if rec.Code != http.StatusInternalServerError || strings.Contains(rec.Body.String(), "bindings") {
		t.Errorf("status %d, body %q", rec.Code, rec.Body.String())
	}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if want := `re2xolap_server_requests_total{outcome="error"} 1`; !strings.Contains(prom.String(), want) {
		t.Errorf("metrics lack %s:\n%s", want, prom.String())
	}
}

// benchResults is shaped like serve_shared's answers: three IRI columns
// and a typed measure; 14 rows is a hit, 600 a cold miss.
func benchResults(rows int) *sparql.Results {
	res := &sparql.Results{Vars: []string{"obs", "country", "year", "value"}}
	for i := 0; i < rows; i++ {
		res.Rows = append(res.Rows, []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("http://data.example.org/eurostat/obs/%06d", i)),
			rdf.NewIRI(fmt.Sprintf("http://data.example.org/eurostat/country/C%02d", i%40)),
			rdf.NewIRI(fmt.Sprintf("http://data.example.org/eurostat/year/%d", 1990+i%30)),
			rdf.NewTyped(strconv.Itoa(i*37%10007), rdf.XSDInteger),
		})
	}
	return res
}

// TestCodecAllocations pins what the codec allocates, so a per-row map
// or a per-cell struct cannot come back unnoticed: encoding allocates
// the same handful of objects whatever the row count. Decoding 600 rows
// allocates under 0.6 objects per cell: a string per literal value and
// per distinct IRI, the repeated ones shared. Decoding 14 rows without a
// repeated IRI allocates at most one object per cell and 26 besides, so
// no per-document map is built before a document shows repetition.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	encodeAllocs := func(rows int) float64 {
		res := benchResults(rows)
		dst, err := appendResults(nil, res)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { dst, _ = appendResults(dst[:0], res) })
	}
	if small, large := encodeAllocs(60), encodeAllocs(600); small != large {
		t.Errorf("encoding allocates %v objects for 60 rows and %v for 600", small, large)
	}
	decodeAllocs := func(rows int) (allocs, cells float64) {
		res := benchResults(rows)
		doc, _ := appendResults(nil, res)
		allocs = testing.AllocsPerRun(20, func() {
			if _, err := DecodeResults(bytes.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, float64(len(res.Rows) * len(res.Vars))
	}
	if allocs, cells := decodeAllocs(600); allocs >= 0.6*cells {
		t.Errorf("decoding %v cells allocates %v objects", cells, allocs)
	} else {
		t.Logf("decode: %.2f allocations per cell", allocs/cells)
	}
	if allocs, cells := decodeAllocs(14); allocs > cells+26 {
		t.Errorf("decoding %v cells without a repeated IRI allocates %v objects", cells, allocs)
	}
}

// drillDownResults is shaped like a drill-down's answer: a member and
// its language-tagged label, repeated down the rows of its group, a
// year member and a typed-decimal measure. Some labels need escapes.
func drillDownResults(rows int) *sparql.Results {
	res := &sparql.Results{Vars: []string{"country", "label", "year", "sum"}}
	for i := 0; i < rows; i++ {
		c := i / 15
		res.Rows = append(res.Rows, []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("http://data.example.org/eurostat/country/C%02d", c)),
			rdf.NewLangString(fmt.Sprintf("C\u00f4te \"%02d\" <Nord & Sud>", c), "en"),
			rdf.NewIRI(fmt.Sprintf("http://data.example.org/eurostat/year/%d", 1990+i%15)),
			rdf.NewTyped(fmt.Sprintf("%d.%02d", i*7919%100003, i%100), rdf.XSDDecimal),
		})
	}
	return res
}

func BenchmarkResultsCodec(b *testing.B) {
	for _, bc := range []struct {
		name string
		res  *sparql.Results
	}{
		{"rows=14", benchResults(14)},
		{"rows=600", benchResults(600)},
		{"drilldown/rows=600", drillDownResults(600)},
	} {
		res := bc.res
		doc, err := appendResults(nil, res)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := EncodeResults(io.Discard, res); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			r := bytes.NewReader(doc)
			for i := 0; i < b.N; i++ {
				r.Reset(doc)
				if _, err := DecodeResults(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
