package main

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"re2xolap/internal/core"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/testkg"
	"re2xolap/internal/vgraph"
)

// runScript drives the REPL with a scripted command sequence and
// returns its output.
func runScript(t *testing.T, script string) string {
	t.Helper()
	st := testkg.Build(t, nil)
	reg := obs.NewRegistry()
	client := endpoint.NewInProcess(st, endpoint.WithRegistry(reg))
	g, err := vgraph.Bootstrap(context.Background(), client, testkg.Config())
	if err != nil {
		t.Fatal(err)
	}
	engine := core.NewEngine(client, g, testkg.Config())
	engine.Instrument(reg)
	var out strings.Builder
	repl(context.Background(), engine, g, client, reg, strings.NewReader(script), &out)
	return out.String()
}

func TestREPLWorkflow(t *testing.T) {
	out := runScript(t, `help
example Germany | 2014
pick 0
show
dis
rank
apply 0
topk
back
profile
quit
`)
	for _, want := range []string{
		"commands:",
		"[0] Return SUM/MIN/MAX/AVG(Num Applicants)",
		"tuples; example-matching tuples:",
		"disaggregate by",
		"virtual schema graph:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestREPLContrastAndNegatives(t *testing.T) {
	out := runScript(t, `contrast Germany vs France
example Germany -- China
quit
`)
	if !strings.Contains(out, "ratio=") {
		t.Errorf("contrast output missing:\n%s", out)
	}
	// With negative China, only the destination reading survives: the
	// candidate listing has a [0] but no [1].
	if !strings.Contains(out, "[0] Return SUM/MIN/MAX/AVG(Num Applicants)") {
		t.Errorf("negative synthesis output missing:\n%s", out)
	}
	if strings.Contains(out, "  [1] ") {
		t.Errorf("origin reading not rejected:\n%s", out)
	}
}

func TestREPLSPARQLAndErrors(t *testing.T) {
	out := runScript(t, `sparql SELECT (COUNT(?o) AS ?n) WHERE { ?o a <http://ex.org/Observation> . }
sparql NOT A QUERY
pick 9
apply 0
bogus
example
quit
`)
	if !strings.Contains(out, "11") { // 11 observations in the fixture
		t.Errorf("count missing:\n%s", out)
	}
	for _, want := range []string{"error:", "usage: pick", "usage: apply", "unknown command", "usage: example"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestREPLTraceAndStats(t *testing.T) {
	out := runScript(t, `trace
example Germany | 2014
pick 0
trace
stats
quit
`)
	// With tracing on, the example command prints its span tree: spans
	// for the tagged endpoint queries with engine phases nested under
	// them.
	for _, want := range []string{
		"trace on", "trace off",
		"example", "step=keyword-search", "sparql",
		`re2xolap_core_step_queries_total{step="keyword-search"}`,
		`re2xolap_endpoint_queries_total{client="inprocess"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}

func TestBuildClientErrors(t *testing.T) {
	p := endpoint.DefaultPolicy()
	if _, _, err := buildClient("", "", "", 0, "http://c", p, nil); err == nil {
		t.Error("no source accepted")
	}
	if _, _, err := buildClient("", "", "nope", 10, "http://c", p, nil); err == nil {
		t.Error("bad preset accepted")
	}
	if _, _, err := buildClient("", "/nonexistent/file.nt", "", 0, "http://c", p, nil); err == nil {
		t.Error("missing file accepted")
	}
	c, _, err := buildClient("http://example.org/sparql", "", "", 0, "http://c", p, nil)
	if err != nil || c == nil {
		t.Fatal("http client not built")
	}
	// The remote path must come back wrapped in the resilience layer.
	rc, ok := c.(*endpoint.ResilientClient)
	if !ok {
		t.Fatalf("remote client = %T, want *endpoint.ResilientClient", c)
	}
	if _, ok := rc.Unwrap().(*endpoint.HTTPClient); !ok {
		t.Errorf("wrapped client = %T, want *endpoint.HTTPClient", rc.Unwrap())
	}
}

// TestBuildClientSnapshot: -data with a .snap file loads the binary
// snapshot, as sparqld and webui do, instead of parsing it as
// N-Triples.
func TestBuildClientSnapshot(t *testing.T) {
	st := testkg.Build(t, nil)
	path := filepath.Join(t.TempDir(), "kg.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c, _, err := buildClient("", path, "", 0, "http://c", endpoint.DefaultPolicy(), nil)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	res, err := c.Query(context.Background(), `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0][0].Value, strconv.Itoa(st.Len()); got != want {
		t.Errorf("snapshot client holds %s triples, want %s", got, want)
	}
}

func TestSplitItems(t *testing.T) {
	got := splitItems(" a | b|  c ")
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("splitItems = %v", got)
	}
	if got := splitItems("  "); got != nil {
		t.Errorf("blank input = %v", got)
	}
}

func TestREPLExplain(t *testing.T) {
	out := runScript(t, `explain SELECT ?c WHERE { ?o <http://ex.org/origin> ?c . }
example Germany | 2014
pick 0
explain current
explain
quit
`)
	if !strings.Contains(out, "seed scan") {
		t.Errorf("explain output missing:\n%s", out)
	}
	if !strings.Contains(out, "SELECT with grouping") {
		t.Errorf("explain current missing:\n%s", out)
	}
	if !strings.Contains(out, "usage: explain") {
		t.Errorf("usage missing:\n%s", out)
	}
}

func TestREPLSave(t *testing.T) {
	path := t.TempDir() + "/session.json"
	out := runScript(t, `example Germany
pick 0
save `+path+`
save
quit
`)
	if !strings.Contains(out, "saved 1 steps") {
		t.Errorf("save output:\n%s", out)
	}
	if !strings.Contains(out, "usage: save") {
		t.Errorf("usage missing:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"sparql"`) {
		t.Errorf("exported file:\n%s", b)
	}
}
