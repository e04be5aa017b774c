package shard

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

func TestTopologyViewValidateEqual(t *testing.T) {
	good := TopologyView{Groups: [][]string{{"a", "b"}, {"c"}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []TopologyView{
		{},
		{Groups: [][]string{{}}},
		{Groups: [][]string{{"a"}, {""}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate(%v): want error", bad)
		}
	}
	if !good.Equal(TopologyView{Groups: [][]string{{"a", "b"}, {"c"}}}) {
		t.Error("identical views must be Equal")
	}
	for _, other := range []TopologyView{
		{Groups: [][]string{{"a"}, {"c"}}},
		{Groups: [][]string{{"a", "b"}}},
		{Groups: [][]string{{"b", "a"}, {"c"}}},
	} {
		if good.Equal(other) {
			t.Errorf("Equal(%v): want false", other)
		}
	}
}

func TestFileTopology(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	write := func(body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ft := NewFileTopology(path)
	if _, err := ft.Resolve(); err == nil {
		t.Fatal("missing file must error")
	}
	write(`{"shards": [["http://a/sparql", "http://b/sparql"], ["http://c/sparql"]]}`)
	v, err := ft.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Groups) != 2 || len(v.Groups[0]) != 2 || v.Groups[1][0] != "http://c/sparql" {
		t.Fatalf("Resolve = %v", v)
	}
	if changed, err := ft.Changed(); err != nil || changed {
		t.Fatalf("unchanged file reported changed (%v, %v)", changed, err)
	}
	// mtime granularity can be coarse; force a size change.
	write(`{"shards": [["http://a/sparql", "http://b/sparql"], ["http://c/sparql", "http://d/sparql"]]}`)
	if changed, err := ft.Changed(); err != nil || !changed {
		t.Fatalf("rewritten file not reported changed (%v, %v)", changed, err)
	}
	write(`{"shards": [[]]}`)
	if _, err := ft.Resolve(); err == nil {
		t.Fatal("empty group must error")
	}
	write(`not json`)
	if _, err := ft.Resolve(); err == nil {
		t.Fatal("bad JSON must error")
	}
}

// A rewrite that keeps the byte count and lands within the
// filesystem's mtime granularity is invisible to the stat-only check;
// the content-hash fallback must still report it. os.Chtimes pins the
// mtime to make the collision deterministic rather than relying on a
// fast filesystem.
func TestFileTopologyChangedSameMtimeSameSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	before := `{"shards": [["http://aaaa/sparql"], ["http://cccc/sparql"]]}`
	after := `{"shards": [["http://cccc/sparql"], ["http://aaaa/sparql"]]}`
	if len(before) != len(after) {
		t.Fatalf("test payloads differ in size: %d vs %d", len(before), len(after))
	}
	if err := os.WriteFile(path, []byte(before), 0o644); err != nil {
		t.Fatal(err)
	}
	ft := NewFileTopology(path)
	if _, err := ft.Resolve(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	mtime := st.ModTime()
	if err := os.WriteFile(path, []byte(after), 0o644); err != nil {
		t.Fatal(err)
	}
	// Pin the rewrite to the original mtime: stat now sees identical
	// mtime AND size.
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
	changed, err := ft.Changed()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("same-mtime same-size rewrite not detected: content hash fallback broken")
	}
	// After re-resolving the new content, the poller settles again.
	if _, err := ft.Resolve(); err != nil {
		t.Fatal(err)
	}
	if changed, err := ft.Changed(); err != nil || changed {
		t.Fatalf("settled file reported changed (%v, %v)", changed, err)
	}
}

// dynamicHarness wires a NewDynamic coordinator whose dialer serves
// in-process partition replicas keyed by spec, tracking every dialed
// client so tests can kill replicas and count dials.
type dynamicHarness struct {
	parts [][]rdf.Triple

	mu     sync.Mutex
	dials  int
	faults map[string]*endpoint.FaultClient
}

// dial maps spec "pN[-suffix]" to a FaultClient over partition N of
// the shard it is asked for (every replica of shard i serves
// partition i, whatever the spec says — specs are just identities).
func (h *dynamicHarness) dial(shard, replica int, spec string) (endpoint.Client, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dials++
	st := store.New()
	if err := st.AddAll(h.parts[shard]); err != nil {
		return nil, err
	}
	f := endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{})
	h.faults[spec] = f
	return f, nil
}

// mutableTopology is a Topology tests can swap at will.
type mutableTopology struct {
	mu sync.Mutex
	v  TopologyView
}

func (m *mutableTopology) Resolve() (TopologyView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.v, m.v.Validate()
}

func (m *mutableTopology) set(v TopologyView) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.v = v
}

// TestLiveReloadAddReplicaAndFailover is the live-elasticity
// acceptance scenario: a coordinator built over single-replica shards
// gains a second replica per shard via Reload — no restart — and when
// the original replicas are then killed, queries keep returning
// complete byte-identical answers through the added replicas — the
// same answers with and without a registry.
func TestLiveReloadAddReplicaAndFailover(t *testing.T) {
	bare := liveReloadAddReplica(t, nil)
	if metered := liveReloadAddReplica(t, obs.NewRegistry()); !bytes.Equal(bare, metered) {
		t.Fatalf("answer differs without a registry:\n%s\nvs\n%s", bare, metered)
	}
}

// liveReloadAddReplica runs the scenario against a coordinator
// publishing to reg and returns its answer bytes.
func liveReloadAddReplica(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	ts := determinismTriples()
	const n = 3
	h := &dynamicHarness{
		parts:  Partitioner{N: n}.Split(ts),
		faults: map[string]*endpoint.FaultClient{},
	}
	topo := &mutableTopology{v: TopologyView{Groups: [][]string{{"p0"}, {"p1"}, {"p2"}}}}
	c, err := NewDynamic(topo, h.dial, WithoutResilience(), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	want := corpusBaseline(t, ts, n)
	query := `SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY ?s`
	res, _, err := c.QueryX(context.Background(), endpoint.Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	preReload := encode(t, res)

	// Same view: Reload is a no-op.
	if changed, err := c.Reload(); err != nil || changed {
		t.Fatalf("no-op reload: changed=%v err=%v", changed, err)
	}

	// Add a second replica to every shard, live.
	topo.set(TopologyView{Groups: [][]string{{"p0", "p0b"}, {"p1", "p1b"}, {"p2", "p2b"}}})
	dialsBefore := func() int { h.mu.Lock(); defer h.mu.Unlock(); return h.dials }()
	changed, err := c.Reload()
	if err != nil || !changed {
		t.Fatalf("reload: changed=%v err=%v", changed, err)
	}
	if got := func() int { h.mu.Lock(); defer h.mu.Unlock(); return h.dials }() - dialsBefore; got != 3 {
		t.Fatalf("reload dialed %d new clients, want 3 (persisting replicas must be reused)", got)
	}
	if got := c.Replicas(); len(got) != 3 || got[0] != 2 || got[1] != 2 || got[2] != 2 {
		t.Fatalf("Replicas() = %v, want [2 2 2]", got)
	}

	// Kill every original replica: the reloaded replicas carry the load.
	for _, spec := range []string{"p0", "p1", "p2"} {
		h.faults[spec].SetDown(true)
	}
	runCorpusComplete(t, c, want, "post-reload")

	// Bytes stable across the reload too.
	res, meta, err := c.QueryX(context.Background(), endpoint.Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Incomplete {
		t.Fatal("degraded after reload")
	}
	if !bytes.Equal(encode(t, res), preReload) {
		t.Fatal("answer bytes changed across topology reload")
	}
	if reg == nil {
		return preReload
	}

	// Epoch and reload counters moved.
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, wantLine := range []string{
		"re2xolap_topology_reloads_total 1",
		"re2xolap_topology_epoch 1",
		"re2xolap_shard_replicas 6",
		"re2xolap_shard_fanout 3",
	} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("exposition missing %q", wantLine)
		}
	}
	return preReload
}

// TestReloadDrainsInFlight checks an in-flight query keeps its
// topology generation: reloads mid-query must not perturb results.
func TestReloadDrainsInFlight(t *testing.T) {
	ts := determinismTriples()
	const n = 2
	h := &dynamicHarness{
		parts:  Partitioner{N: n}.Split(ts),
		faults: map[string]*endpoint.FaultClient{},
	}
	topo := &mutableTopology{v: TopologyView{Groups: [][]string{{"a"}, {"b"}}}}
	c, err := NewDynamic(topo, h.dial, WithoutResilience())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	query := `SELECT ?r (COUNT(?v) AS ?n) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r ORDER BY ?r`
	res, _, err := c.QueryX(context.Background(), endpoint.Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	want := encode(t, res)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			flip = !flip
			if flip {
				topo.set(TopologyView{Groups: [][]string{{"a", "a2"}, {"b", "b2"}}})
			} else {
				topo.set(TopologyView{Groups: [][]string{{"a"}, {"b"}}})
			}
			if _, err := c.Reload(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 30; i++ {
		res, meta, err := c.QueryX(context.Background(), endpoint.Request{Query: query})
		if err != nil {
			t.Fatal(err)
		}
		if meta.Incomplete {
			t.Fatal("degraded under reload churn")
		}
		if !bytes.Equal(encode(t, res), want) {
			t.Fatal("result bytes changed under reload churn")
		}
	}
	close(stop)
	wg.Wait()
}

// TestClientTopologyReloadUnchanged: a coordinator built from explicit
// client lists resolves the same view on every Reload, so a reload
// succeeds and reports no change.
func TestClientTopologyReloadUnchanged(t *testing.T) {
	c := newTopology(t, determinismTriples(), 2)
	defer c.Close()
	before := c.currentView()
	if changed, err := c.Reload(); err != nil || changed {
		t.Fatalf("Reload() = %v, %v; want false, nil", changed, err)
	}
	if c.currentView() != before {
		t.Fatal("an unchanged reload swapped the view")
	}
}
