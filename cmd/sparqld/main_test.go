package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/store"
)

func testStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	src := `@prefix ex: <http://ex.org/> .
ex:obs1 ex:dim ex:de ; ex:value 10 .
ex:obs2 ex:dim ex:fr ; ex:value 20 .
`
	if _, err := st.Load(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewServerHardening(t *testing.T) {
	handler := endpoint.NewServer(testStore(t), endpoint.WithWorkers(4))
	mux := handler.Routes(endpoint.RoutesConfig{Harden: endpoint.HardenConfig{
		QueryTimeout: time.Minute,
		MaxInFlight:  4,
	}})
	srv := newHTTPServer(":0", mux, time.Minute)
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout not set (Slowloris protection missing)")
	}
	if srv.WriteTimeout < time.Minute {
		t.Errorf("WriteTimeout = %s, want at least the query deadline", srv.WriteTimeout)
	}

	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}

	q := url.QueryEscape(`SELECT ?v WHERE { ?o <http://ex.org/value> ?v . }`)
	resp, err = ts.Client().Get(ts.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	res, err := endpoint.DecodeResults(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("rows = %d, want 2", res.Len())
	}
}

func TestBuildStoreErrors(t *testing.T) {
	if _, err := buildStore("x.nt", "eurostat", 10); err == nil {
		t.Error("mutually exclusive flags accepted")
	}
	if _, err := buildStore("", "", 10); err == nil {
		t.Error("no source accepted")
	}
	if _, err := buildStore("", "nope", 10); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestSwapHandlerLoadingSequence(t *testing.T) {
	sw := &swapHandler{}
	sw.Store(loadingHandler())
	ts := httptest.NewServer(sw)
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/livez"); code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("/livez while loading = %d %q", code, body)
	}
	for _, path := range []string{"/healthz", "/readyz", "/sparql?query=x"} {
		code, body := get(path)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s while loading = %d, want 503", path, code)
		}
		if !strings.Contains(body, "store loading") {
			t.Fatalf("%s body = %q, want a loading reason", path, body)
		}
	}

	// Swap in the real handler: routes come alive.
	handler := endpoint.NewServer(testStore(t))
	sw.Store(handler.Routes(endpoint.RoutesConfig{}))
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz after swap = %d", code)
	}
}

func TestBuildHandlerTopologyFile(t *testing.T) {
	// A topology file naming remote replicas builds a dynamic
	// coordinator; "local" specs are rejected with a clear error.
	dir := t.TempDir()
	path := filepath.Join(dir, "topo.json")
	if err := os.WriteFile(path, []byte(`{"shards": [["local"]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := buildHandler(handlerConfig{Topology: path, Addr: ":0"}, obs.NewRegistry(), nil); err == nil ||
		!strings.Contains(err.Error(), "local") {
		t.Fatalf("local spec in topology file: err = %v, want rejection", err)
	}

	// Remote specs dial fine (no connection is made at build time).
	if err := os.WriteFile(path, []byte(`{"shards": [["http://a:1/sparql","http://b:2/sparql"],["http://c:3/sparql"]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, coord, ft, err := buildHandler(handlerConfig{Topology: path, Addr: ":0"}, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if srv == nil || coord == nil || ft == nil {
		t.Fatal("topology mode must return server, coordinator, and file topology")
	}
	defer coord.Close()
	if coord.Shards() != 2 {
		t.Fatalf("shards = %d, want 2", coord.Shards())
	}
	if reps := coord.Replicas(); len(reps) != 2 || reps[0] != 2 || reps[1] != 1 {
		t.Fatalf("replicas = %v, want [2 1]", reps)
	}
}

// TestSlowQueryLoggedOnce: behind the serving stack (-result-cache) a
// store-backed sparqld writes exactly one slow-log line per request,
// from the server; the in-process client under it records nothing.
func TestSlowQueryLoggedOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.ttl")
	src := "<http://ex.org/obs1> <http://ex.org/value> 10 .\n<http://ex.org/obs2> <http://ex.org/value> 20 .\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var slow bytes.Buffer
	reg := obs.NewRegistry()
	opts := []endpoint.Option{endpoint.WithRegistry(reg), endpoint.WithSlowQueryLog(obs.NewSlowLog(&slow, 0))}
	srv, _, _, err := buildHandler(handlerConfig{Data: path, ResultCache: 8, Addr: ":0"}, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.PostForm(ts.URL, url.Values{"query": {`SELECT ?v WHERE { ?o <http://ex.org/value> ?v }`}})
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"source":"server"`) {
		t.Fatalf("want exactly one server slow-log line, got %d:\n%s", len(lines), slow.String())
	}
}
