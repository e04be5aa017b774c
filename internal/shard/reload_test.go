package shard

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/store"
)

// TestReplicaGroupsValidateEqual: construction and Reload reject
// malformed groups, Reload rejects another shard count, and Reload
// tells the same clients in the same slots (a no-op) from any other
// arrangement of them.
func TestReplicaGroupsValidateEqual(t *testing.T) {
	a, b, c := endpoint.NewInProcess(store.New()), endpoint.NewInProcess(store.New()), endpoint.NewInProcess(store.New())
	for _, bad := range [][][]endpoint.Client{
		nil,
		{{}},
		{{a}, {nil}},
	} {
		if _, err := NewReplicated(bad, WithoutResilience()); err == nil {
			t.Errorf("NewReplicated(%v): want error", bad)
		}
	}
	coord, err := NewReplicated([][]endpoint.Client{{a, b}, {c}}, WithoutResilience())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.Reload([][]endpoint.Client{{a}, {}}); err == nil {
		t.Error("Reload with an empty group: want error")
	}
	if changed, err := coord.Reload([][]endpoint.Client{{a, b}, {c}}); err != nil || changed {
		t.Fatalf("identical groups: changed=%v err=%v, want a no-op", changed, err)
	}
	for _, other := range [][][]endpoint.Client{
		{{b, a}, {c}},
		{{a}, {c}},
		{{a, b}},
		{{a, b}, {c}},
	} {
		changed, err := coord.Reload(other)
		if len(other) != 2 {
			if err == nil || changed {
				t.Errorf("Reload(%v): changed=%v err=%v, want a shard-count error", other, changed, err)
			}
			continue
		}
		if err != nil || !changed {
			t.Errorf("Reload(%v): changed=%v err=%v, want a change", other, changed, err)
		}
	}
	// The shard count is fixed: a reload to fewer or more shards is an
	// error that leaves the view, its epoch and the generation as they
	// were.
	v, gen := coord.currentView(), coord.Generation()
	fn := failingFetch{inner: a, fail: func(string) bool { return false }}
	for _, other := range [][][]endpoint.Client{
		{{fn}},
		{{a, b}, {c}, {a}},
	} {
		if changed, err := coord.Reload(other); err == nil || changed {
			t.Errorf("Reload to %d shards: changed=%v err=%v, want a shard-count error", len(other), changed, err)
		}
	}
	if coord.currentView() != v || coord.Generation() != gen {
		t.Fatal("a rejected reload swapped the view or moved the generation")
	}
	// A client of an uncomparable type is never the one a shard had,
	// so reloading it builds a fresh replica instead of panicking.
	if _, err := coord.Reload([][]endpoint.Client{{fn}, {c}}); err != nil {
		t.Fatal(err)
	}
	if changed, err := coord.Reload([][]endpoint.Client{{fn}, {c}}); err != nil || !changed {
		t.Fatalf("uncomparable client: changed=%v err=%v, want a rebuilt replica", changed, err)
	}
}

// reloadHarness builds in-process partition replicas keyed by name,
// so tests can hand a coordinator the same client again on Reload and
// kill replicas by name.
type reloadHarness struct {
	parts  [][]rdf.Triple
	faults map[string]*endpoint.FaultClient
}

// groups returns one group per shard, listing the named replicas of
// it: every replica of shard i serves partition i, whatever its name
// (names are just identities). A name seen before returns the same
// client.
func (h *reloadHarness) groups(t *testing.T, names ...[]string) [][]endpoint.Client {
	t.Helper()
	out := make([][]endpoint.Client, len(names))
	for i, g := range names {
		for _, name := range g {
			f, ok := h.faults[name]
			if !ok {
				st := store.New()
				if err := st.AddAll(h.parts[i]); err != nil {
					t.Fatal(err)
				}
				f = endpoint.NewFault(endpoint.NewInProcess(st), endpoint.FaultConfig{})
				h.faults[name] = f
			}
			out[i] = append(out[i], f)
		}
	}
	return out
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
	h := &reloadHarness{
		parts:  Partitioner{N: n}.Split(ts),
		faults: map[string]*endpoint.FaultClient{},
	}
	c, err := NewReplicated(h.groups(t, []string{"p0"}, []string{"p1"}, []string{"p2"}), WithoutResilience(), WithRegistry(reg))
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

	// Same clients: Reload is a no-op.
	if changed, err := c.Reload(h.groups(t, []string{"p0"}, []string{"p1"}, []string{"p2"})); err != nil || changed {
		t.Fatalf("no-op reload: changed=%v err=%v", changed, err)
	}

	// Add a second replica to every shard, live. The replicas handed
	// back keep their state: mark one down and see it carried over.
	before := c.currentView()
	before.groups[1].replicas[0].health.up.Store(false)
	changed, err := c.Reload(h.groups(t, []string{"p0", "p0b"}, []string{"p1", "p1b"}, []string{"p2", "p2b"}))
	if err != nil || !changed {
		t.Fatalf("reload: changed=%v err=%v", changed, err)
	}
	for i, g := range c.currentView().groups {
		if g.replicas[0] != before.groups[i].replicas[0] {
			t.Fatalf("shard %d: the persisting replica was rebuilt, want it reused", i)
		}
	}
	if c.currentView().groups[1].replicas[0].health.up.Load() {
		t.Fatal("a persisting replica's health state was reset by the reload")
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
	h := &reloadHarness{
		parts:  Partitioner{N: n}.Split(ts),
		faults: map[string]*endpoint.FaultClient{},
	}
	// The layouts add replicas, drop them, and move them to another
	// slot while queries run.
	layouts := [][][]endpoint.Client{
		h.groups(t, []string{"a"}, []string{"b"}),
		h.groups(t, []string{"a", "a2"}, []string{"b", "b2"}),
		h.groups(t, []string{"a2", "a"}, []string{"b2", "b"}),
	}
	one := layouts[0]
	c, err := NewReplicated(one, WithoutResilience())
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
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Reload(layouts[k%len(layouts)]); err != nil {
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

// TestClientTopologyReloadUnchanged: reloading a coordinator with the
// client groups it was built from succeeds, reports no change, keeps
// the view, and moves neither the reload counter nor the epoch.
func TestClientTopologyReloadUnchanged(t *testing.T) {
	ts := determinismTriples()
	parts := Partitioner{N: 2}.Split(ts)
	groups := make([][]endpoint.Client, 2)
	for i := range groups {
		groups[i] = []endpoint.Client{endpoint.NewInProcess(storeFromTriples(t, parts[i]))}
	}
	reg := obs.NewRegistry()
	c, err := NewReplicated(groups, WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := c.currentView()
	gen := c.Generation()
	if changed, err := c.Reload(groups); err != nil || changed {
		t.Fatalf("Reload() = %v, %v; want false, nil", changed, err)
	}
	if c.currentView() != before {
		t.Fatal("an unchanged reload swapped the view")
	}
	if c.Generation() != gen {
		t.Fatal("an unchanged reload moved the generation token")
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"re2xolap_topology_reloads_total 0", "re2xolap_topology_epoch 0"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestReloadDroppedReplicaAndGeneration: after a reload every
// replica slot's up gauge reads the state of the replica now in it,
// and 0 for a slot no replica holds any more; and every applied reload
// changes the generation token, also one that swaps a replica for
// another of the same shape and store generation.
func TestReloadDroppedReplicaAndGeneration(t *testing.T) {
	h := &reloadHarness{
		parts:  Partitioner{N: 2}.Split(determinismTriples()),
		faults: map[string]*endpoint.FaultClient{},
	}
	reg := obs.NewRegistry()
	c, err := NewReplicated(h.groups(t, []string{"a", "a2"}, []string{"b"}), WithoutResilience(), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	expose := func(want ...string) {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range want {
			if !strings.Contains(buf.String(), line) {
				t.Errorf("exposition missing %q", line)
			}
		}
	}
	reload := func(names ...[]string) {
		t.Helper()
		gen := c.Generation()
		if changed, err := c.Reload(h.groups(t, names...)); err != nil || !changed {
			t.Fatalf("Reload(%v): changed=%v err=%v", names, changed, err)
		}
		if c.Generation() == gen {
			t.Fatalf("Reload(%v) kept the generation token", names)
		}
	}

	// a is dropped and a2 moves into its slot.
	reload([]string{"a2"}, []string{"b"})
	expose(`re2xolap_replica_up{replica="0",shard="0"} 1`, `re2xolap_replica_up{replica="1",shard="0"} 0`,
		"re2xolap_shard_replicas 2")
	// An identical copy takes a2's slot: same shape, same store
	// generation.
	reload([]string{"a3"}, []string{"b"})
	expose(`re2xolap_replica_up{replica="0",shard="0"} 1`, `re2xolap_replica_up{replica="0",shard="1"} 1`,
		"re2xolap_topology_reloads_total 2", "re2xolap_topology_epoch 2")
}
