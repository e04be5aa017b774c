package endpoint

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"re2xolap/internal/corpus"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// decodeTSVString decodes a whole TSV document.
func decodeTSVString(doc string) (*sparql.Results, error) {
	return decodeTSVBody(strings.NewReader(doc), int64(len(doc)))
}

// tsvEdgeResults are the cases the TSV form must carry as JSON does:
// every codecStrings value as an IRI, a literal, a datatype and a
// variable name, xsd:string twins, language tags, lexical forms the
// Turtle abbreviations must keep or must not take, the xsd:double
// special values, unbound cells, short rows and repeated names.
func tsvEdgeResults() []*sparql.Results {
	var out []*sparql.Results
	for _, s := range codecStrings {
		out = append(out, &sparql.Results{Vars: []string{"s", "s" + s}, Rows: [][]rdf.Term{
			{rdf.NewIRI(s), rdf.NewString(s)},
			{rdf.NewTyped("x", s), rdf.NewLangString(s, "en")},
			{rdf.NewTyped(s, rdf.XSDInteger), rdf.NewTyped(s, rdf.XSDDouble)},
			{rdf.NewTyped(s, rdf.XSDBoolean), rdf.NewTyped(s, rdf.XSDString)},
		}})
	}
	var lexical []rdf.Term
	for _, dt := range []string{rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble, rdf.XSDBoolean, rdf.XSDString, ""} {
		for _, v := range []string{"", "0", "007", "+5", "-0", "-", "+", ".", "1.", ".5", "1.50", "-.5", "1e5", "1.e5",
			".5E-3", "1e", "1e+", "e5", "INF", "-INF", "NaN", "true", "false", "True", "1", " 1", "1 ", "0x1F"} {
			lexical = append(lexical, rdf.NewTyped(v, dt))
		}
	}
	lexRes := &sparql.Results{Vars: []string{"v", "w"}}
	for i, t := range lexical {
		lexRes.Rows = append(lexRes.Rows, []rdf.Term{t, lexical[(i*7)%len(lexical)]})
	}
	x, y := rdf.NewIRI("http://ex.org/x"), rdf.NewString("y")
	return append(out, lexRes,
		&sparql.Results{Vars: []string{"twin"}, Rows: [][]rdf.Term{
			{rdf.NewString("a")}, {rdf.NewTyped("a", rdf.XSDString)}, {rdf.NewLangString("a", "en")},
			{rdf.NewLangString("a", "en-GB")}, {rdf.NewTyped("a", "http://ex.org/dt")},
			{{Kind: rdf.TermLiteral, Value: "a", Lang: "de", Datatype: rdf.XSDString}},
			{{Kind: rdf.TermIRI, Value: "http://ex.org/x", Lang: "de", Datatype: rdf.XSDString}},
			{{Kind: rdf.TermBlank, Value: "b", Lang: "de"}}, {{Kind: rdf.TermKind(5), Value: "k", Datatype: rdf.XSDInteger}},
		}},
		&sparql.Results{Vars: []string{"a", "b", "c"}, Rows: [][]rdf.Term{{}, {x}, {{}, y}, {x, {}, y}, {{}, {}, {}}}},
		&sparql.Results{Vars: []string{"a", "b", "a", "a"}, Rows: [][]rdf.Term{{x, y, {}, y}, {{}, y, x}, {x}, {{}, {}, {}, x}}},
		&sparql.Results{Vars: []string{"", "bad\xff\xfe", "\u2028"}, Rows: [][]rdf.Term{{rdf.NewBlank(""), rdf.NewBlank("b\xffc"), rdf.NewLangString("v", "x\xff")}}},
		&sparql.Results{Rows: [][]rdf.Term{{}, {}, {}}},
		&sparql.Results{Vars: []string{"none"}},
		&sparql.Results{},
	)
}

// tsvMatchCases are the results TestTSVMatchesJSON compares the two
// formats on: the codec corpus, the edge cases, FuzzEncodeResults'
// generator over its seeds and seeded random bytes, and the answers of
// the 35-query corpus.
func tsvMatchCases(t *testing.T) []*sparql.Results {
	cases := append(codecResults(), tsvEdgeResults()...)
	seeds := []string{
		"",
		"\x02\x01a\x01b\x03\x02\x01\x05http:\x03\x07lit\xffer\x02en\x03dt<",
		"\x04\x01z\x01a\x01m\x01a\x05\x04\x03\x06\u2028\u2029\x02\x02<>\x03&\x00\x1f\x05\x05\x05\x05\x04\x05\x05\x05\x05",
		"\x01\x00\x0f\x01\x03\x01v\x00\x10http://dt/\\\"\x7f\x01\x05\x01\x03\x01w\x00\x01d\x01\x04\x02\x02x",
		"\x03\x02\xed\xa0\x01\xc3\x01\xf0\x0f\x03\x01\x05\xe2\x80\xa8ab\x02\x02\xef\xbf\x04\x05\x00\x01\x61",
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 400; i++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		seeds = append(seeds, string(b))
	}
	for _, s := range seeds {
		cases = append(cases, fuzzResults([]byte(s)))
	}
	st := store.New()
	if err := st.AddAll(corpus.Triples()); err != nil {
		t.Fatal(err)
	}
	inproc := NewInProcess(st)
	for _, cq := range corpus.Queries() {
		res, err := inproc.Query(context.Background(), cq.Query)
		if err != nil {
			t.Fatalf("%s: %v", cq.Name, err)
		}
		cases = append(cases, res)
	}
	return cases
}

// noTSVForm reports whether res holds what TSV cannot carry: an ASK
// answer, or a tab, newline or carriage return in a variable name, a
// blank node label or a literal's language tag.
func noTSVForm(res *sparql.Results) bool {
	bad := func(s string) bool { return strings.ContainsAny(s, "\t\n\r") }
	if res.IsAsk || slices.ContainsFunc(res.Vars, bad) {
		return true
	}
	for _, row := range res.Rows {
		for _, c := range row {
			switch min(c.Kind, rdf.TermLiteral) {
			case rdf.TermBlank:
				if bad(c.Value) {
					return true
				}
			case rdf.TermLiteral:
				if bad(c.Lang) {
					return true
				}
			}
		}
	}
	return false
}

// TestTSVMatchesJSON: TSV-encoding then decoding a result gives what
// JSON-encoding then decoding it gives, on every result that has a TSV
// form; the others are exactly those noTSVForm names, and a row wider
// than the variables fails in both formats.
func TestTSVMatchesJSON(t *testing.T) {
	var compared, without int
	for i, res := range tsvMatchCases(t) {
		jsonDoc, jsonErr := appendResults(nil, res)
		doc, err := appendResultsTSV(nil, res)
		if jsonErr != nil {
			if err == nil || err == errNotTSV && !noTSVForm(res) {
				t.Fatalf("case %d: JSON fails (%v), TSV gives %v", i, jsonErr, err)
			}
			continue
		}
		if err == errNotTSV {
			if !noTSVForm(res) {
				t.Fatalf("case %d: no TSV form for %+v", i, res)
			}
			without++
			continue
		}
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if noTSVForm(res) {
			t.Fatalf("case %d: %+v has a TSV form: %q", i, res, doc)
		}
		want, err := DecodeResults(bytes.NewReader(jsonDoc))
		if err != nil {
			t.Fatalf("case %d: JSON: %v", i, err)
		}
		got, err := decodeTSVString(string(doc))
		if err != nil {
			t.Fatalf("case %d: %v\n%q", i, err, doc)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d:\n TSV %+v\nJSON %+v\n%q", i, got, want, doc)
		}
		compared++
	}
	if compared < 3*without {
		t.Errorf("compared %d results, %d had no TSV form", compared, without)
	}
	t.Logf("compared %d results; %d had no TSV form", compared, without)
}

// TestTSVEncoding pins the bytes of the Turtle forms: escapes in IRIs
// and literals, the abbreviations and where they stop.
func TestTSVEncoding(t *testing.T) {
	tricky := "a\tb\"c\nd\\e\x01f\rg'"
	res := &sparql.Results{Vars: []string{"i", "l", "t"}, Rows: [][]rdf.Term{
		{rdf.NewIRI(tricky + " <>{}|^`"), rdf.NewString(tricky), rdf.NewTyped("x", "http://d/"+tricky)},
		{rdf.NewBlank("b0"), rdf.NewLangString("chat", "fr-CA"), rdf.NewTyped("a", rdf.XSDString)},
		{rdf.NewTyped("007", rdf.XSDInteger), rdf.NewTyped("-.5", rdf.XSDDecimal), rdf.NewTyped("1.e5", rdf.XSDDouble)},
		{rdf.NewTyped("1.", rdf.XSDDecimal), rdf.NewTyped("5", rdf.XSDDecimal), rdf.NewDouble(1.5)},
		{rdf.NewBoolean(true), rdf.NewTyped("1", rdf.XSDBoolean), rdf.NewTyped("INF", rdf.XSDDouble)},
		{{}, rdf.NewString("bad\xffutf8 \u2028"), {}},
	}}
	doc, err := appendResultsTSV(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	const xsd = "http://www.w3.org/2001/XMLSchema#"
	want := "?i\t?l\t?t\n" +
		`<a\u0009b\u0022c\u000ad\u005ce\u0001f\u000dg'\u0020\u003c\u003e\u007b\u007d\u007c\u005e\u0060>` + "\t" +
		`"a\tb\"c\nd\\e\u0001f\rg'"` + "\t" + `"x"^^<http://d/a\u0009b\u0022c\u000ad\u005ce\u0001f\u000dg'>` + "\n" +
		"_:b0\t\"chat\"@fr-CA\t\"a\"^^<" + xsd + "string>\n" +
		"007\t-.5\t1.e5\n" +
		"\"1.\"^^<" + xsd + "decimal>\t\"5\"^^<" + xsd + "decimal>\t\"1.5\"^^<" + xsd + "double>\n" +
		"true\t\"1\"^^<" + xsd + "boolean>\t\"INF\"^^<" + xsd + "double>\n" +
		"\t\"bad\ufffdutf8 \u2028\"\t\n"
	if string(doc) != want {
		t.Fatalf("got\n%s\nwant\n%s", doc, want)
	}
	got, err := decodeTSVString(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	res.Rows[5][1] = rdf.NewString("bad\ufffdutf8 \u2028")
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("decoded %+v", got)
	}
	for _, res := range []*sparql.Results{
		{IsAsk: true, Boolean: true},
		{Vars: []string{"a\tb"}},
		{Vars: []string{"a"}, Rows: [][]rdf.Term{{rdf.NewBlank("b\n0")}}},
		{Vars: []string{"a"}, Rows: [][]rdf.Term{{rdf.NewLangString("x", "en\r")}}},
	} {
		if _, err := appendResultsTSV(nil, res); err != errNotTSV {
			t.Errorf("%+v: err = %v, want errNotTSV", res, err)
		}
	}
}

// TestDecodeTSVTerms: the term grammar, one cell at a time.
func TestDecodeTSVTerms(t *testing.T) {
	const xsd = "http://www.w3.org/2001/XMLSchema#"
	for _, tt := range []struct {
		cell string
		want rdf.Term
	}{
		{"", rdf.Term{}},
		{"<>", rdf.Term{}},
		{"<http://ex.org/a#b?c=d>", rdf.NewIRI("http://ex.org/a#b?c=d")},
		{`<http://x/\u0020y\U0001F600\u003E>`, rdf.NewIRI("http://x/ y\U0001F600>")},
		{"<http://x/caf\u00e9>", rdf.NewIRI("http://x/caf\u00e9")},
		{"_:b0", rdf.NewBlank("b0")},
		{"_:", rdf.NewBlank("")},
		{`"a"`, rdf.NewString("a")},
		{`""`, rdf.NewString("")},
		{`'a'`, rdf.NewString("a")},
		{`'say "hi"'`, rdf.NewString(`say "hi"`)},
		{`"it's"`, rdf.NewString("it's")},
		{`'it\'s'`, rdf.NewString("it's")},
		{`"\t\b\n\r\f\"\'\\"`, rdf.NewString("\t\b\n\r\f\"'\\")},
		{`"\u00e9\U0001F600\u0000"`, rdf.NewString("\u00e9\U0001F600\x00")},
		{`"chat"@fr-CA`, rdf.NewLangString("chat", "fr-CA")},
		{`'chat'@x<y`, rdf.NewLangString("chat", "x<y")},
		{`"x"^^<http://dt>`, rdf.NewTyped("x", "http://dt")},
		{`"x"^^<http://d\u0074>`, rdf.NewTyped("x", "http://dt")},
		{`"a"^^<` + xsd + `string>`, rdf.NewTyped("a", xsd+"string")},
		{"007", rdf.NewTyped("007", xsd+"integer")},
		{"+5", rdf.NewTyped("+5", xsd+"integer")},
		{"-0", rdf.NewTyped("-0", xsd+"integer")},
		{".5", rdf.NewTyped(".5", xsd+"decimal")},
		{"-1.50", rdf.NewTyped("-1.50", xsd+"decimal")},
		{"1e5", rdf.NewTyped("1e5", xsd+"double")},
		{"1.E+5", rdf.NewTyped("1.E+5", xsd+"double")},
		{"-.5e-3", rdf.NewTyped("-.5e-3", xsd+"double")},
		{"true", rdf.NewBoolean(true)},
		{"false", rdf.NewBoolean(false)},
	} {
		got, err := decodeTSVString("?a\n" + tt.cell + "\n")
		if err != nil {
			t.Errorf("%s: %v", tt.cell, err)
			continue
		}
		if len(got.Rows) != 1 || got.Rows[0][0] != tt.want {
			t.Errorf("%s: decoded %+v, want %+v", tt.cell, got.Rows, tt.want)
		}
	}
}

// tsvMalformed are TSV documents the decoder must reject (also seeds of
// FuzzDecodeResultsTSV).
var tsvMalformed = []string{
	"",
	"?a",
	"?a\n<http://x>",
	"?a\n<http://x>\n<http://y>",
	"a\n",
	"?a\t\n",
	"?a\r\n",
	"?a\n\"x\"\r\n",
	"?a\n<x>\t<y>\n",
	"?a\t?b\n<x>\n",
	"\n\t\n",
	"\nx\n",
	"?a\n<x y>\n",
	"?a\n<x\n",
	"?a\n<x\\n>\n",
	"?a\n<x\\u00>\n",
	"?a\n<x\\>\n",
	"?a\n\"x\n",
	"?a\n\"x\\\n",
	"?a\n\"a\tb\"\n",
	"?a\n'x\"\n",
	"?a\n\"x\"y\n",
	"?a\n\"x\"@\n",
	"?a\n\"x\"@en\r\n",
	"?a\n\"x\"^^<>\n",
	"?a\n\"x\"^^xsd:int\n",
	"?a\n\"x\"^<dt>\n",
	"?a\n\"x\"^^<dt\n",
	"?a\n\"x\"^^<dt>y\n",
	"?a\n\"x\\q\"\n",
	"?a\n\"x\\\x00\"\n",
	"?a\n\"\\uD800\"\n",
	"?a\n\"\\U00110000\"\n",
	"?a\n\"\\u12\"\n",
	"?a\n\"\"\"long\"\"\"\n",
	"?a\n1.\n",
	"?a\n1e\n",
	"?a\n.\n",
	"?a\n+\n",
	"?a\n0x1F\n",
	"?a\nTrue\n",
	"?a\ntruex\n",
	"?a\nx\n",
	"?a\n_x\n",
	"?a\n_:b\r\n",
	"?a\nex:x\n",
	"?a\n[]\n",
	"{\"head\":{},\"boolean\":true}\n",
}

func TestDecodeTSVMalformed(t *testing.T) {
	for _, doc := range tsvMalformed {
		if res, err := decodeTSVString(doc); err == nil {
			t.Errorf("decoded %q into %+v, want error", doc, res)
		}
	}
}

// TestDecodeTSVTruncated cuts an encoded answer at every byte offset:
// with the full Content-Length no prefix decodes, and without one no
// prefix decodes to a full-length result.
func TestDecodeTSVTruncated(t *testing.T) {
	res := drillDownResults(20)
	full, err := appendResultsTSV(nil, res)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if got, err := decodeTSVBody(bytes.NewReader(full[:cut]), int64(len(full))); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded into %d rows", cut, len(full), got.Len())
		}
		if got, err := decodeTSVBody(bytes.NewReader(full[:cut]), -1); err == nil && got.Len() == res.Len() {
			t.Fatalf("prefix of %d/%d bytes decoded to a complete result", cut, len(full))
		}
	}
	got, err := decodeTSVBody(bytes.NewReader(full), int64(len(full)))
	if err != nil || !reflect.DeepEqual(got, res) {
		t.Fatalf("full body: %v", err)
	}
}

// FuzzDecodeResultsTSV: the TSV decoder never panics, and every document
// it accepts re-encodes to one it decodes to the same result.
func FuzzDecodeResultsTSV(f *testing.F) {
	for _, res := range append(codecResults(), tsvEdgeResults()...) {
		if doc, err := appendResultsTSV(nil, res); err == nil {
			f.Add(doc)
		}
	}
	for _, doc := range tsvMalformed {
		f.Add([]byte(doc))
	}
	f.Add([]byte("?a\t?b\t?a\n'x'\t_:\t\"y\"@en\n<\\U0001F600>\t\t\"\\u0009\"^^<d\\u0074>\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeTSVBody(bytes.NewReader(body), int64(len(body)))
		if err != nil {
			return
		}
		doc, err := appendResultsTSV(nil, got)
		if err != nil {
			t.Fatalf("decoded %q into %+v, which does not encode: %v", body, got, err)
		}
		again, err := decodeTSVString(string(doc))
		if err != nil {
			t.Fatalf("decoded %q into %+v; its encoding %q is rejected: %v", body, got, doc, err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("%q:\n decoded %+v\nre-encoded %q\ndecoded %+v", body, got, doc, again)
		}
	})
}

// TestHTTPClientAsksForTSV: HTTPClient's Accept header gets TSV from
// Server, and an ASK answer under it comes back as JSON.
func TestHTTPClientAsksForTSV(t *testing.T) {
	var contentTypes []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		NewServer(testStore(t)).ServeHTTP(rec, r)
		contentTypes = append(contentTypes, rec.Header().Get("Content-Type"))
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()
	hc := NewHTTPClient(srv.URL)
	res, err := hc.Query(context.Background(), `SELECT ?o ?v WHERE { ?o <http://ex.org/value> ?v . } ORDER BY ?o`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]rdf.Term{
		{rdf.NewIRI("http://ex.org/obs1"), rdf.NewInteger(10)},
		{rdf.NewIRI("http://ex.org/obs2"), rdf.NewInteger(20)},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v", res.Rows)
	}
	ask, err := hc.Query(context.Background(), `ASK { ?o <http://ex.org/value> 20 }`)
	if err != nil {
		t.Fatal(err)
	}
	if !ask.IsAsk || !ask.Boolean {
		t.Errorf("ASK = %+v", ask)
	}
	if want := []string{privateTSVContentType, ResultsContentType}; !reflect.DeepEqual(contentTypes, want) {
		t.Errorf("content types %q, want %q", contentTypes, want)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"?query="+url.QueryEscape(`ASK { ?s ?p ?o }`), nil)
	req.Header.Set("Accept", tsvResultsContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ResultsContentType || string(body) != "{\"head\":{},\"boolean\":true}\n" {
		t.Errorf("ASK under a TSV-only Accept: %q, %q", ct, body)
	}
}

// TestHTTPClientJSONOnlyEndpoint: an endpoint that answers JSON whatever
// the Accept header says is still read.
func TestHTTPClientJSONOnlyEndpoint(t *testing.T) {
	res := drillDownResults(30)
	var accept string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		accept = r.Header.Get("Accept")
		w.Header().Set("Content-Type", ResultsContentType+"; charset=utf-8")
		_ = EncodeResults(w, res)
	}))
	defer srv.Close()
	got, err := NewHTTPClient(srv.URL).Query(context.Background(), "SELECT * WHERE { ?s ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("decoded %+v", got)
	}
	if accept != acceptResults {
		t.Errorf("Accept = %q, want %q", accept, acceptResults)
	}
}

// TestHTTPClientThirdPartyTSVEndpoint: a store that serves its own TSV
// dialect for text/tab-separated-values, with an ASK answer as a
// one-column table as Jena Fuseki writes it, does not know HTTPClient's
// private type and so answers it JSON, which the client reads.
func TestHTTPClientThirdPartyTSVEndpoint(t *testing.T) {
	sel := drillDownResults(30)
	var accepts []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		accept := r.Header.Get("Accept")
		accepts = append(accepts, accept)
		ask := strings.HasPrefix(r.FormValue("query"), "ASK")
		if strings.Contains(accept, tsvResultsContentType) {
			w.Header().Set("Content-Type", tsvResultsContentType)
			if ask {
				_, _ = io.WriteString(w, "?_askResult\ntrue\n")
			} else {
				doc, _ := appendResultsTSV(nil, sel)
				_, _ = w.Write(doc)
			}
			return
		}
		w.Header().Set("Content-Type", ResultsContentType)
		if ask {
			_ = EncodeResults(w, &sparql.Results{IsAsk: true, Boolean: true})
		} else {
			_ = EncodeResults(w, sel)
		}
	}))
	defer srv.Close()
	hc := NewHTTPClient(srv.URL)
	got, err := hc.Query(context.Background(), "SELECT * WHERE { ?s ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sel) {
		t.Errorf("SELECT decoded %+v", got)
	}
	ask, err := hc.Query(context.Background(), "ASK { ?s ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	if !ask.IsAsk || !ask.Boolean {
		t.Errorf("ASK = %+v, want true", ask)
	}
	for _, accept := range accepts {
		if strings.Contains(accept, tsvResultsContentType) {
			t.Errorf("Accept %q lists the standard TSV type", accept)
		}
	}
}

// TestHTTPClientTruncatedTSV: a TSV body cut mid-row, or short of its
// Content-Length at a row boundary, is a retryable error.
func TestHTTPClientTruncatedTSV(t *testing.T) {
	full, err := appendResultsTSV(nil, benchResults(40))
	if err != nil {
		t.Fatal(err)
	}
	rowEnd := bytes.LastIndexByte(full[:len(full)/2], '\n') + 1
	for name, serve := range map[string]func(w http.ResponseWriter){
		"mid-row": func(w http.ResponseWriter) {
			_, _ = w.Write(full[:len(full)/2])
		},
		"short of Content-Length": func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(len(full)))
			_, _ = w.Write(full[:rowEnd])
		},
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", privateTSVContentType)
				serve(w)
			}))
			defer srv.Close()
			res, err := NewHTTPClient(srv.URL).Query(context.Background(), "SELECT * WHERE { ?s ?p ?o }")
			if err == nil {
				t.Fatalf("decoded %d rows", res.Len())
			}
			if !Retryable(err) {
				t.Errorf("not retryable: %v", err)
			}
		})
	}
}

// TestTSVCodecAllocations pins what the TSV codec allocates: encoding
// the same objects (none into a reused buffer) for 60 rows and for 600,
// and decoding 600 rows under 0.05 objects per cell, because the rows
// come from one slab and the cells slice the document.
func TestTSVCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	encodeAllocs := func(rows int) float64 {
		res := benchResults(rows)
		dst, err := appendResultsTSV(nil, res)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { dst, _ = appendResultsTSV(dst[:0], res) })
	}
	if small, large := encodeAllocs(60), encodeAllocs(600); small != large {
		t.Errorf("encoding allocates %v objects for 60 rows and %v for 600", small, large)
	}
	res := benchResults(600)
	doc, _ := appendResultsTSV(nil, res)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeTSVBody(bytes.NewReader(doc), int64(len(doc))); err != nil {
			t.Fatal(err)
		}
	})
	if cells := float64(len(res.Rows) * len(res.Vars)); allocs >= 0.05*cells {
		t.Errorf("decoding %v cells allocates %v objects", cells, allocs)
	} else {
		t.Logf("decode: %.4f allocations per cell", allocs/cells)
	}
}

func BenchmarkResultsCodecTSV(b *testing.B) {
	for _, bc := range []struct {
		name string
		res  *sparql.Results
	}{
		{"rows=14", benchResults(14)},
		{"rows=600", benchResults(600)},
		{"drilldown/rows=600", drillDownResults(600)},
	} {
		res := bc.res
		doc, err := appendResultsTSV(nil, res)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			dst := doc[:0:0]
			for i := 0; i < b.N; i++ {
				dst, _ = appendResultsTSV(dst[:0], res)
			}
		})
		b.Run("decode/"+bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			r := bytes.NewReader(doc)
			for i := 0; i < b.N; i++ {
				r.Reset(doc)
				if _, err := decodeTSVBody(r, int64(len(doc))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
