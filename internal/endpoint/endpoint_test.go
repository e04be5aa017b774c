package endpoint

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

func testStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	src := `@prefix ex: <http://ex.org/> .
ex:obs1 ex:dim ex:de ; ex:value 10 .
ex:obs2 ex:dim ex:fr ; ex:value 20 .
ex:de ex:label "Germany" .
ex:fr ex:label "France"@fr .
`
	if _, err := st.Load(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestJSONRoundTrip(t *testing.T) {
	res := &sparql.Results{
		Vars: []string{"a", "b", "c"},
		Rows: [][]rdf.Term{
			{rdf.NewIRI("http://x"), rdf.NewString("plain"), rdf.NewInteger(5)},
			{rdf.NewBlank("b0"), rdf.NewLangString("ciao", "it"), {}}, // unbound c
		},
	}
	var buf bytes.Buffer
	if err := EncodeResults(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vars) != 3 || len(got.Rows) != 2 {
		t.Fatalf("shape = %v / %d rows", got.Vars, len(got.Rows))
	}
	for i := range res.Rows {
		for j := range res.Rows[i] {
			if got.Rows[i][j] != res.Rows[i][j] {
				t.Errorf("cell [%d][%d] = %v, want %v", i, j, got.Rows[i][j], res.Rows[i][j])
			}
		}
	}
}

func TestJSONAsk(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeResults(&buf, &sparql.Results{IsAsk: true, Boolean: true}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsAsk || !got.Boolean {
		t.Errorf("ask round trip = %+v", got)
	}
}

func TestInProcessClient(t *testing.T) {
	c := NewInProcess(testStore(t))
	res, err := c.Query(context.Background(), `SELECT ?v WHERE { ?o <http://ex.org/value> ?v . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows = %d", res.Len())
	}
	if c.QueryCount() != 1 {
		t.Errorf("QueryCount = %d", c.QueryCount())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Query(ctx, "SELECT ?v WHERE { ?o <http://p> ?v . }"); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestHTTPServerAndClient(t *testing.T) {
	srv := httptest.NewServer(NewServer(testStore(t)))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	ctx := context.Background()

	res, err := c.Query(ctx, `SELECT ?d (SUM(?v) AS ?total) WHERE { ?o <http://ex.org/dim> ?d . ?o <http://ex.org/value> ?v . } GROUP BY ?d`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d\n%s", res.Len(), res)
	}
	ti := res.Column("total")
	sum := 0.0
	for _, r := range res.Rows {
		n, ok := r[ti].Numeric()
		if !ok {
			t.Fatalf("total not numeric: %v", r[ti])
		}
		sum += n
	}
	if sum != 30 {
		t.Errorf("sum of sums = %v, want 30", sum)
	}

	ask, err := c.Query(ctx, `ASK { <http://ex.org/obs1> <http://ex.org/dim> <http://ex.org/de> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !ask.IsAsk || !ask.Boolean {
		t.Errorf("ask = %+v", ask)
	}

	// lang-tagged literal survives the protocol
	lres, err := c.Query(ctx, `SELECT ?l WHERE { <http://ex.org/fr> <http://ex.org/label> ?l . }`)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Rows[0][0] != rdf.NewLangString("France", "fr") {
		t.Errorf("lang literal = %v", lres.Rows[0][0])
	}
}

func TestHTTPServerGet(t *testing.T) {
	srv := httptest.NewServer(NewServer(testStore(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "?query=" + url.QueryEscape(`SELECT ?v WHERE { ?o <http://ex.org/value> ?v . }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ResultsContentType {
		t.Errorf("content type = %q", ct)
	}
	res, err := DecodeResults(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows = %d", res.Len())
	}
}

func TestHTTPServerErrors(t *testing.T) {
	srv := httptest.NewServer(NewServer(testStore(t)))
	defer srv.Close()

	tests := []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"missing query", func() (*http.Response, error) {
			return http.Get(srv.URL)
		}, http.StatusBadRequest},
		{"bad syntax", func() (*http.Response, error) {
			return http.Get(srv.URL + "?query=" + url.QueryEscape("SELECT WHERE"))
		}, http.StatusBadRequest},
		{"bad method", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, srv.URL, nil)
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, err := tt.do()
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tt.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, tt.status)
			}
		})
	}
}

// TestServerQueryLengthLimit pins the 413 path: a query text over
// maxQueryLen, sent as a direct POST body or as a form field, is
// refused and counted as a bad request; a text of exactly the limit
// is served.
func TestServerQueryLengthLimit(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewServer(testStore(t), WithRegistry(reg)))
	defer srv.Close()
	badRequests := reg.Counter("re2xolap_server_requests_total", "", obs.L("outcome", "bad_request"))
	post := func(contentType, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	const ask = "ASK { ?s ?p ?o }"
	long := ask + strings.Repeat(" ", maxQueryLen+1-len(ask))

	if code := post("application/sparql-query", long); code != http.StatusRequestEntityTooLarge {
		t.Errorf("direct POST over the limit: status %d, want 413", code)
	}
	if n := badRequests.Value(); n != 1 {
		t.Errorf("bad_request count after direct POST = %d, want 1", n)
	}
	form := url.Values{"query": {long}}.Encode()
	if code := post("application/x-www-form-urlencoded", form); code != http.StatusRequestEntityTooLarge {
		t.Errorf("form POST over the limit: status %d, want 413", code)
	}
	if n := badRequests.Value(); n != 2 {
		t.Errorf("bad_request count after form POST = %d, want 2", n)
	}
	if code := post("application/sparql-query", long[:maxQueryLen]); code != http.StatusOK {
		t.Errorf("query of exactly the limit: status %d, want 200", code)
	}
	if n := badRequests.Value(); n != 2 {
		t.Errorf("bad_request count after a served query = %d, want 2", n)
	}
}

func TestHTTPClientErrorFromServer(t *testing.T) {
	srv := httptest.NewServer(NewServer(testStore(t)))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	if _, err := c.Query(context.Background(), "NOT SPARQL"); err == nil {
		t.Error("syntax error not propagated to client")
	}
}

// TestConcurrentHTTPQueries exercises parallel SPARQL requests against
// the server.
func TestConcurrentHTTPQueries(t *testing.T) {
	srv := httptest.NewServer(NewServer(testStore(t)))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.Query(ctx, `SELECT (SUM(?v) AS ?s) WHERE { ?o <http://ex.org/value> ?v . }`)
			if err != nil {
				errs <- err
				return
			}
			if n, _ := res.Rows[0][0].Numeric(); n != 30 {
				errs <- fmt.Errorf("sum = %v", n)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	res := &sparql.Results{
		Vars: []string{"a", "b", "c"},
		Rows: [][]rdf.Term{
			{rdf.NewIRI("http://x"), rdf.NewString("plain"), rdf.NewInteger(5)},
			{rdf.NewBlank("b0"), rdf.NewLangString("ciao", "it"), {}},
		},
	}
	var buf bytes.Buffer
	if err := EncodeResultsXML(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResultsXML(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if len(got.Vars) != 3 || len(got.Rows) != 2 {
		t.Fatalf("shape = %v / %d rows", got.Vars, len(got.Rows))
	}
	for i := range res.Rows {
		for j := range res.Rows[i] {
			if got.Rows[i][j] != res.Rows[i][j] {
				t.Errorf("cell [%d][%d] = %#v, want %#v", i, j, got.Rows[i][j], res.Rows[i][j])
			}
		}
	}
}

func TestXMLAsk(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeResultsXML(&buf, &sparql.Results{IsAsk: true, Boolean: true}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResultsXML(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsAsk || !got.Boolean {
		t.Errorf("ask round trip = %+v", got)
	}
}

func TestServerContentNegotiation(t *testing.T) {
	srv := httptest.NewServer(NewServer(testStore(t)))
	defer srv.Close()
	q := url.QueryEscape(`SELECT ?v WHERE { ?o <http://ex.org/value> ?v . }`)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"?query="+q, nil)
	req.Header.Set("Accept", XMLResultsContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != XMLResultsContentType {
		t.Fatalf("content type = %q", ct)
	}
	res, err := DecodeResultsXML(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows = %d", res.Len())
	}

	// JSON preferred when listed first.
	req2, _ := http.NewRequest(http.MethodGet, srv.URL+"?query="+q, nil)
	req2.Header.Set("Accept", ResultsContentType+", "+XMLResultsContentType)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != ResultsContentType {
		t.Errorf("content type = %q, want JSON", ct)
	}
}

func TestCSVResults(t *testing.T) {
	res := &sparql.Results{
		Vars: []string{"a", "b"},
		Rows: [][]rdf.Term{
			{rdf.NewIRI("http://x"), rdf.NewString("plain, with comma")},
			{rdf.NewInteger(5), {}},
		},
	}
	var buf bytes.Buffer
	if err := EncodeResultsCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("header = %q", out)
	}
	if !strings.Contains(out, `"plain, with comma"`) {
		t.Errorf("comma not quoted:\n%s", out)
	}

	var ask bytes.Buffer
	if err := EncodeResultsCSV(&ask, &sparql.Results{IsAsk: true, Boolean: true}); err != nil {
		t.Fatal(err)
	}
	if ask.String() != "boolean\ntrue\n" {
		t.Errorf("ask csv = %q", ask.String())
	}
}

func TestServerCSVNegotiation(t *testing.T) {
	srv := httptest.NewServer(NewServer(testStore(t)))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet,
		srv.URL+"?query="+url.QueryEscape(`SELECT ?v WHERE { ?o <http://ex.org/value> ?v . }`), nil)
	req.Header.Set("Accept", CSVResultsContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != CSVResultsContentType {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.HasPrefix(string(body), "v\n") {
		t.Errorf("csv body = %q", body)
	}
}
