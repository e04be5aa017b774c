package main

import (
	"bytes"
	"flag"
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
	"re2xolap/internal/shard"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sparqld.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestApplyConfigFile(t *testing.T) {
	fs := flag.NewFlagSet("sparqld", flag.ContinueOnError)
	addr := fs.String("addr", ":8085", "")
	timeout := fs.Duration("query-timeout", 5*time.Minute, "")
	workers := fs.Int("workers", 0, "")
	pprofOn := fs.Bool("pprof", false, "")
	gen := fs.String("gen", "", "")
	if err := fs.Parse([]string{"-addr", ":9999"}); err != nil {
		t.Fatal(err)
	}
	path := writeConfig(t, `{
		"addr": ":7777",
		"query-timeout": "2m",
		"workers": 4,
		"pprof": true,
		"gen": "eurostat"
	}`)
	if err := applyConfigFile(fs, path); err != nil {
		t.Fatal(err)
	}
	if *addr != ":9999" {
		t.Errorf("explicit -addr overridden by config: %q", *addr)
	}
	if *timeout != 2*time.Minute {
		t.Errorf("query-timeout = %v, want 2m", *timeout)
	}
	if *workers != 4 {
		t.Errorf("workers = %d, want 4", *workers)
	}
	if !*pprofOn {
		t.Error("pprof not applied")
	}
	if *gen != "eurostat" {
		t.Errorf("gen = %q", *gen)
	}
}

func TestApplyConfigFileErrors(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("sparqld", flag.ContinueOnError)
		fs.String("addr", "", "")
		fs.Duration("query-timeout", 0, "")
		fs.String("config", "", "")
		_ = fs.Parse(nil)
		return fs
	}
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown key", `{"adress": ":1"}`, "unknown key"},
		{"bad duration", `{"query-timeout": "soon"}`, "query-timeout"},
		{"config key", `{"config": "other.json"}`, "cannot set"},
		{"not an object", `[1, 2]`, "config"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := applyConfigFile(newFS(), writeConfig(t, tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	if err := applyConfigFile(newFS(), filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file: want error")
	}
}

func TestParseShards(t *testing.T) {
	groups, err := parseShards("3")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 || groups[0][0] != "local" || groups[2][0] != "local" {
		t.Fatalf("parseShards(3) = %v", groups)
	}
	groups, err = parseShards("http://a:1/sparql, local ,https://b:2/sparql")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:1/sparql", "local", "https://b:2/sparql"}
	for i := range want {
		if len(groups[i]) != 1 || groups[i][0] != want[i] {
			t.Fatalf("groups = %v, want single-replica %v", groups, want)
		}
	}
	groups, err = parseShards("http://a1:1/sparql|http://a2:2/sparql, local | local ,https://b:3/sparql")
	if err != nil {
		t.Fatal(err)
	}
	wantGroups := [][]string{
		{"http://a1:1/sparql", "http://a2:2/sparql"},
		{"local", "local"},
		{"https://b:3/sparql"},
	}
	for i := range wantGroups {
		if len(groups[i]) != len(wantGroups[i]) {
			t.Fatalf("groups = %v, want %v", groups, wantGroups)
		}
		for j := range wantGroups[i] {
			if groups[i][j] != wantGroups[i][j] {
				t.Fatalf("groups = %v, want %v", groups, wantGroups)
			}
		}
	}
	for _, bad := range []string{"0", "-2", "", "ftp://x", "local,,local", "local||local", "local,|"} {
		if _, err := parseShards(bad); err == nil {
			t.Errorf("parseShards(%q): want error", bad)
		}
	}
}

func TestParseShardSlot(t *testing.T) {
	i, n, err := parseShardSlot("1/3")
	if err != nil || i != 1 || n != 3 {
		t.Fatalf("parseShardSlot(1/3) = %d, %d, %v", i, n, err)
	}
	for _, bad := range []string{"3/3", "-1/3", "1", "a/b", "1/0", ""} {
		if _, _, err := parseShardSlot(bad); err == nil {
			t.Errorf("parseShardSlot(%q): want error", bad)
		}
	}
}

// TestBuildHandlerTopologies runs the same query against the
// single-node handler, a 3-shard coordinator, and its shard servers
// joined back together, checking the coordinator answer is
// byte-identical to the single node and the shard split is real.
func TestBuildHandlerTopologies(t *testing.T) {
	const genName, obsN = "eurostat", 200
	reg := obs.NewRegistry()
	opts := []endpoint.Option{endpoint.WithRegistry(reg)}

	single, _, _, err := buildHandler(handlerConfig{Gen: genName, ObsCount: obsN, Addr: ":0"}, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	coord, coordinator, _, err := buildHandler(handlerConfig{Shards: "3", Gen: genName, ObsCount: obsN, Addr: ":0"},
		obs.NewRegistry(), []endpoint.Option{})
	if err != nil {
		t.Fatal(err)
	}
	if coordinator == nil {
		t.Fatal("coordinator mode did not return the coordinator")
	}
	defer coordinator.Close()

	query := `SELECT ?p (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p`
	fetch := func(h http.Handler) []byte {
		srv := httptest.NewServer(h)
		defer srv.Close()
		resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {query}})
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	singleBody := fetch(single.Routes(endpoint.RoutesConfig{}))
	coordBody := fetch(coord.Routes(endpoint.RoutesConfig{}))
	if !bytes.Equal(singleBody, coordBody) {
		t.Fatalf("coordinator diverges from single node:\n%s\nvs\n%s", coordBody, singleBody)
	}

	// Shard servers hold disjoint, complete partitions.
	parts, err := buildPartitions("", genName, obsN, 3, shard.Partitioner{N: 3}.Shard)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("want 3 partitions, got %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	full, err := buildStore("", genName, obsN)
	if err != nil {
		t.Fatal(err)
	}
	if total != full.Len() {
		t.Fatalf("partition sizes sum to %d, full store has %d", total, full.Len())
	}
}
