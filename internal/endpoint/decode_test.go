package endpoint

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
)

// malformedDocuments are bodies DecodeResults must reject (also seeds of
// FuzzDecodeResults).
var malformedDocuments = []struct {
	name string
	body string
}{
	{"empty body", ""},
	{"html error page", "<html><body>502 Bad Gateway</body></html>"},
	{"truncated object", `{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"ty`},
	{"bare garbage", "definitely not json"},
	{"unknown term type", `{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"quantum","value":"x"}}]}}`},
	// A 200 whose body is JSON but not a result document: a gateway's
	// error page must not read as "no solutions".
	{"null", "null"},
	{"array", `[{"head":{}}]`},
	{"empty object", "{}"},
	{"json error page", `{"error":"upstream timeout"}`},
	{"head only", `{"head":{"vars":["a"]}}`},
	{"results without bindings", `{"head":{"vars":["a"]},"results":{}}`},
	{"results null", `{"head":{"vars":["a"]},"results":null}`},
	{"bindings not an array", `{"head":{"vars":["a"]},"results":{"bindings":{}}}`},
	{"boolean not a boolean", `{"head":{},"boolean":"true"}`},
	{"boolean and results", `{"head":{"vars":[]},"boolean":true,"results":{"bindings":[]}}`},
	{"undeclared variable", `{"head":{"vars":["a"]},"results":{"bindings":[{"b":{"type":"uri","value":"http://x"}}]}}`},
	{"undeclared variable, results first", `{"results":{"bindings":[{"b":{"type":"uri","value":"http://x"}}]},"head":{"vars":["a"]}}`},
	{"binding without head", `{"results":{"bindings":[{"a":{"type":"uri","value":"http://x"}}]}}`},
	{"term without value", `{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"uri"}}]}}`},
	{"term without type", `{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"value":"x"}}]}}`},
	{"term null", `{"head":{"vars":["a"]},"results":{"bindings":[{"a":null}]}}`},
	{"value not a string", `{"head":{"vars":["a"]},"results":{"bindings":[{"a":{"type":"literal","value":5}}]}}`},
	{"variable not a string", `{"head":{"vars":[1]},"results":{"bindings":[]}}`},
	{"trailing garbage", `{"head":{},"boolean":true}x`},
	{"two documents", `{"head":{},"boolean":true} {"head":{},"boolean":false}`},
	{"trailing comma", `{"head":{"vars":["a"]},"results":{"bindings":[{},]}}`},
	{"missing comma", `{"head":{"vars":["a"]} "results":{"bindings":[]}}`},
	{"control character in string", "{\"head\":{\"vars\":[\"a\nb\"]},\"results\":{\"bindings\":[]}}"},
	{"bad escape", `{"head":{"vars":["a\x"]},"results":{"bindings":[]}}`},
	{"short unicode escape", `{"head":{"vars":["\u12"]},"results":{"bindings":[]}}`},
	{"bad number in a skipped member", `{"head":{"vars":[]},"link":01,"results":{"bindings":[]}}`},
	{"bad literal in a skipped member", `{"head":{"vars":[]},"link":nul,"results":{"bindings":[]}}`},
}

// DecodeResults must reject malformed and truncated bodies with an
// error rather than returning a silently-partial result set. The
// ResilientClient relies on this to detect a connection cut
// mid-response.
func TestDecodeResultsMalformed(t *testing.T) {
	for _, tt := range malformedDocuments {
		t.Run(tt.name, func(t *testing.T) {
			res, err := DecodeResults(strings.NewReader(tt.body))
			if err == nil {
				t.Fatalf("decoded %q into %+v, want error", tt.body, res)
			}
		})
	}
}

// TestDecodeResultsTruncatedEncoding cuts a real encoded result set at
// every byte offset: no prefix may decode into a full-length result.
func TestDecodeResultsTruncatedEncoding(t *testing.T) {
	res := &sparql.Results{
		Vars: []string{"s", "v"},
		Rows: [][]rdf.Term{
			{rdf.NewIRI("http://ex.org/obs1"), rdf.NewInteger(10)},
			{rdf.NewIRI("http://ex.org/obs2"), rdf.NewInteger(20)},
		},
	}
	var buf bytes.Buffer
	if err := EncodeResults(&buf, res); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full)-1; cut++ {
		got, err := DecodeResults(bytes.NewReader(full[:cut]))
		if err == nil && got.Len() == res.Len() {
			t.Fatalf("prefix of %d/%d bytes decoded to a complete result", cut, len(full))
		}
	}
	if _, err := DecodeResults(bytes.NewReader(full)); err != nil {
		t.Fatalf("full body failed to decode: %v", err)
	}
}

func TestDecodeResultsUnboundAndEmptyBindings(t *testing.T) {
	body := `{"head":{"vars":["a","b"]},"results":{"bindings":[{},{"b":{"type":"literal","value":"x"}}]}}`
	res, err := DecodeResults(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if sparql.Bound(res.Rows[0][0]) || sparql.Bound(res.Rows[0][1]) {
		t.Error("empty binding produced bound terms")
	}
	if res.Rows[1][1] != rdf.NewString("x") {
		t.Errorf("cell = %v", res.Rows[1][1])
	}
}

func TestWantsXMLOrdering(t *testing.T) {
	tests := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{XMLResultsContentType, true},
		{ResultsContentType, false},
		{XMLResultsContentType + ", " + ResultsContentType, true},
		{ResultsContentType + ", " + XMLResultsContentType, false},
		{"text/html, " + XMLResultsContentType, true},
	}
	for _, tt := range tests {
		if got := wantsXML(tt.accept); got != tt.want {
			t.Errorf("wantsXML(%q) = %v, want %v", tt.accept, got, tt.want)
		}
	}
}

// TestServerNegotiationPrecedence pins the server's tie-breaking rules:
// JSON wins over CSV whenever both are acceptable, and over XML when
// listed first.
func TestServerNegotiationPrecedence(t *testing.T) {
	srv := httptest.NewServer(NewServer(testStore(t)))
	defer srv.Close()
	q := url.QueryEscape(`SELECT ?v WHERE { ?o <http://ex.org/value> ?v . }`)

	tests := []struct {
		accept string
		wantCT string
	}{
		{"", ResultsContentType},
		{"*/*", ResultsContentType},
		{CSVResultsContentType, CSVResultsContentType},
		{CSVResultsContentType + ", " + ResultsContentType, ResultsContentType},
		{ResultsContentType + ", " + CSVResultsContentType, ResultsContentType},
		{ResultsContentType + ", " + XMLResultsContentType, ResultsContentType},
		{XMLResultsContentType + ", " + ResultsContentType, XMLResultsContentType},
	}
	for _, tt := range tests {
		t.Run("accept="+tt.accept, func(t *testing.T) {
			req, _ := http.NewRequest(http.MethodGet, srv.URL+"?query="+q, nil)
			if tt.accept != "" {
				req.Header.Set("Accept", tt.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != tt.wantCT {
				t.Errorf("content type = %q, want %q", ct, tt.wantCT)
			}
		})
	}
}
