package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/shard"
	"re2xolap/internal/store"
)

// writeTopology writes a -topology file body to path.
func writeTopology(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// scrape returns the registry's Prometheus exposition.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestReadTopology(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	if _, err := readTopology(path); err == nil {
		t.Fatal("missing file must error")
	}
	writeTopology(t, path, `{"shards": [["http://a/sparql", "https://b/sparql"], ["http://c/sparql"]]}`)
	specs, err := readTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || len(specs[0]) != 2 || specs[1][0] != "http://c/sparql" {
		t.Fatalf("readTopology = %v", specs)
	}
	for body, want := range map[string]string{
		`not json`:         "invalid character",
		`{"shards": []}`:   "no shards",
		`{"shards": [[]]}`: "no replicas",
		`{"shards": [["http://a/sparql"], [""]]}`: "not an http(s) URL",
		`{"shards": [["ftp://a"]]}`:               "not an http(s) URL",
		`{"shards": [["local"]]}`:                 `"local" replicas are not supported`,
	} {
		writeTopology(t, path, body)
		if _, err := readTopology(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %q", body, err, want)
		}
	}
}

// TestWatchTopologyPoll drives the -topology-poll path of a running
// coordinator: an edit that adds a replica is applied on a tick,
// dialing only the added spec, and ticks over an unchanged file
// apply nothing.
func TestWatchTopologyPoll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	writeTopology(t, path, `{"shards": [["http://a:1/sparql"], ["http://c:3/sparql"]]}`)
	reg := obs.NewRegistry()
	_, coord, ft, err := buildHandler(handlerConfig{Topology: path, Addr: ":0"}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	first := ft.clients[0][0]

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		watchTopology(ctx, coord, ft, 5*time.Millisecond, nil)
	}()
	stop := func() { cancel(); <-done }
	defer stop()

	writeTopology(t, path, `{"shards": [["http://a:1/sparql", "http://b:2/sparql"], ["http://c:3/sparql"]]}`)
	deadline := time.Now().Add(10 * time.Second)
	for reps := coord.Replicas(); len(reps) != 2 || reps[0] != 2; reps = coord.Replicas() {
		if time.Now().After(deadline) {
			t.Fatalf("poll never applied the edit: replicas %v", reps)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Let a few ticks pass over the unchanged file.
	time.Sleep(50 * time.Millisecond)
	stop()

	if ft.clients[0][0] != first {
		t.Fatal("the kept spec was dialed again, want its client handed back")
	}
	text := scrape(t, reg)
	for _, want := range []string{
		"re2xolap_topology_reloads_total 1",
		"re2xolap_topology_epoch 1",
		"re2xolap_shard_replicas 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestWatchTopologySighup drives the SIGHUP path without a poll
// timer: the file is re-read only when the signal arrives, a signal
// over an unchanged file applies nothing, and one over an edit applies
// it.
func TestWatchTopologySighup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	writeTopology(t, path, `{"shards": [["http://a:1/sparql"]]}`)
	reg := obs.NewRegistry()
	_, coord, ft, err := buildHandler(handlerConfig{Topology: path, Addr: ":0"}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	hup := make(chan os.Signal)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		watchTopology(ctx, coord, ft, 0, hup)
	}()
	defer func() { cancel(); <-done }()

	// A send returns once the watcher takes the signal, so after the
	// second send of a pair the first has been handled: four signals,
	// one edit, exactly one applied reload.
	hup <- syscall.SIGHUP
	hup <- syscall.SIGHUP
	writeTopology(t, path, `{"shards": [["http://a:1/sparql", "http://b:2/sparql"]]}`)
	hup <- syscall.SIGHUP
	hup <- syscall.SIGHUP
	if reps := coord.Replicas(); len(reps) != 1 || reps[0] != 2 {
		t.Fatalf("replicas = %v after SIGHUP, want [2]", reps)
	}
	if text := scrape(t, reg); !strings.Contains(text, "re2xolap_topology_reloads_total 1") {
		t.Errorf("want exactly one applied reload:\n%s", text)
	}
}

// TestTopologyFileSameSizeRewrite: a rewrite that keeps the byte
// count and the mtime (two same-length URLs swapped by a deploy
// script) is still applied, because every check re-reads the file
// rather than its stat. A dropped replica's up gauge then reads 0.
func TestTopologyFileSameSizeRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	before := `{"shards": [["http://aaaa/sparql", "http://bbbb/sparql"], ["http://cccc/sparql"]]}`
	after := `{"shards": [["http://cccc/sparql"], ["http://aaaa/sparql", "http://bbbb/sparql"]]}`
	if len(before) != len(after) {
		t.Fatalf("test payloads differ in size: %d vs %d", len(before), len(after))
	}
	writeTopology(t, path, before)
	reg := obs.NewRegistry()
	_, coord, ft, err := buildHandler(handlerConfig{Topology: path, Addr: ":0"}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	writeTopology(t, path, after)
	if err := os.Chtimes(path, st.ModTime(), st.ModTime()); err != nil {
		t.Fatal(err)
	}
	reload := func(groups [][]endpoint.Client) error {
		_, err := coord.Reload(groups)
		return err
	}
	if changed, err := ft.apply(reload); err != nil || !changed {
		t.Fatalf("same-mtime same-size rewrite: changed=%v err=%v, want applied", changed, err)
	}
	if reps := coord.Replicas(); len(reps) != 2 || reps[0] != 1 || reps[1] != 2 {
		t.Fatalf("replicas = %v, want [1 2]", reps)
	}
	if changed, err := ft.apply(reload); err != nil || changed {
		t.Fatalf("settled file: changed=%v err=%v, want a no-op", changed, err)
	}
	// Shard 0's second slot is gone.
	if text := scrape(t, reg); !strings.Contains(text, `re2xolap_replica_up{replica="1",shard="0"} 0`) {
		t.Errorf("dropped replica still reads up:\n%s", text)
	}
	// A file that turns bad leaves the applied topology in place.
	writeTopology(t, path, `{"shards": [["local"]]}`)
	if changed, err := ft.apply(reload); err == nil || changed {
		t.Fatalf("bad file: changed=%v err=%v, want rejected", changed, err)
	}
	if reps := coord.Replicas(); len(reps) != 2 {
		t.Fatalf("replicas = %v after a rejected file", reps)
	}
}

// TestShardSlotBuildsOnePartition: a -shard i/n server holds exactly
// partition i of the shared subject-hash split and answers as a
// server over that partition does.
func TestShardSlotBuildsOnePartition(t *testing.T) {
	const genName, obsN, n = "eurostat", 200, 3
	full, err := buildStore("", genName, obsN)
	if err != nil {
		t.Fatal(err)
	}
	parts := shard.Partitioner{N: n}.Split(full.Triples())
	query := `SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`
	fetch := func(h http.Handler, query string) []byte {
		t.Helper()
		srv := httptest.NewServer(h)
		defer srv.Close()
		resp, err := http.PostForm(srv.URL+"/sparql", url.Values{"query": {query}})
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, %v", resp.StatusCode, err)
		}
		return body
	}
	for i := 0; i < n; i++ {
		slot, _, _, err := buildHandler(handlerConfig{ShardSlot: fmt.Sprintf("%d/%d", i, n), Gen: genName, ObsCount: obsN, Addr: ":0"},
			obs.NewRegistry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := store.New()
		if err := want.AddAll(parts[i]); err != nil {
			t.Fatal(err)
		}
		served, partition := slot.Routes(endpoint.RoutesConfig{}), endpoint.NewServer(want).Routes(endpoint.RoutesConfig{})
		count := fmt.Sprintf(`"value":"%d"`, len(parts[i]))
		if got := fetch(served, `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`); !bytes.Contains(got, []byte(count)) {
			t.Fatalf("shard %d: served count %s, want the partition's %d triples", i, got, len(parts[i]))
		}
		if got, want := fetch(served, query), fetch(partition, query); !bytes.Equal(got, want) {
			t.Fatalf("shard %d: answers differ from the partition's", i)
		}
	}
}
