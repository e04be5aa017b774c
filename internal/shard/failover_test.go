package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/rdf"
	"re2xolap/internal/sparql"
	"re2xolap/internal/store"
)

// newReplicatedFaults builds an n-shard coordinator where every shard
// has `replicas` FaultClient-wrapped copies of its partition (all
// replicas of a shard share the partition store — the identical-copy
// contract). fcfg, when non-nil, picks each replica's fault schedule.
func newReplicatedFaults(t *testing.T, ts []rdf.Triple, n, replicas int, opts []Option,
	fcfg func(shard, rep int) endpoint.FaultConfig) (*Coordinator, [][]*endpoint.FaultClient) {
	t.Helper()
	parts := Partitioner{N: n}.Split(ts)
	groups := make([][]endpoint.Client, n)
	faults := make([][]*endpoint.FaultClient, n)
	for i := 0; i < n; i++ {
		st := storeFromTriples(t, parts[i])
		for j := 0; j < replicas; j++ {
			fc := endpoint.FaultConfig{}
			if fcfg != nil {
				fc = fcfg(i, j)
			}
			f := endpoint.NewFault(endpoint.NewInProcess(st), fc)
			faults[i] = append(faults[i], f)
			groups[i] = append(groups[i], f)
		}
	}
	c, err := NewReplicated(groups, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, faults
}

// runCorpusComplete runs the full determinism corpus against c and
// asserts every answer is complete (no Incomplete flag, no skipped
// shards) and byte-identical to want[name].
func runCorpusComplete(t *testing.T, c *Coordinator, want map[string][]byte, label string) {
	t.Helper()
	ctx := context.Background()
	for _, cq := range determinismCorpus() {
		res, meta, err := c.QueryX(ctx, endpoint.Request{Query: cq.query})
		if err != nil {
			t.Fatalf("%s: %s: %v", label, cq.name, err)
		}
		if meta.Incomplete || len(meta.SkippedShards) > 0 {
			t.Fatalf("%s: %s: answer degraded (skipped %v), want complete",
				label, cq.name, meta.SkippedShards)
		}
		if got := encode(t, res); !bytes.Equal(got, want[cq.name]) {
			t.Errorf("%s: %s: bytes diverge from healthy baseline:\n%s\nvs\n%s",
				label, cq.name, got, want[cq.name])
		}
	}
}

// corpusBaseline computes the healthy single-replica answers.
func corpusBaseline(t *testing.T, ts []rdf.Triple, n int) map[string][]byte {
	t.Helper()
	base := newTopology(t, ts, n)
	want := map[string][]byte{}
	for _, cq := range determinismCorpus() {
		res, meta, err := base.QueryX(context.Background(), endpoint.Request{Query: cq.query})
		if err != nil {
			t.Fatalf("baseline %s: %v", cq.name, err)
		}
		if meta.Incomplete {
			t.Fatalf("baseline %s: incomplete", cq.name)
		}
		want[cq.name] = encode(t, res)
	}
	return want
}

// TestFailoverOneReplicaDown is the acceptance scenario: with one
// replica of each shard hard-down from the start, the full corpus
// returns complete answers byte-identical to the healthy baseline —
// failover, not degradation.
func TestFailoverOneReplicaDown(t *testing.T) {
	ts := determinismTriples()
	const n = 3
	want := corpusBaseline(t, ts, n)
	// With and without a registry: the failover counter must not be
	// what makes the path work.
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		c, _ := newReplicatedFaults(t, ts, n, 2, []Option{WithoutResilience(), WithRegistry(reg)},
			func(shard, rep int) endpoint.FaultConfig {
				return endpoint.FaultConfig{Down: rep == 0} // preferred replica dead
			})
		runCorpusComplete(t, c, want, fmt.Sprintf("replica0-down (registry %v)", reg != nil))
		if n := reg.Counter("re2xolap_shard_failovers_total", "", obs.L("shard", "0")).Value(); reg != nil && n == 0 {
			t.Error("failover not counted")
		}
	}
}

// TestFailoverKillMidRun kills one replica of every shard halfway
// through the corpus: queries before, at, and after the kill must all
// stay complete and byte-identical.
func TestFailoverKillMidRun(t *testing.T) {
	ts := determinismTriples()
	const n = 3
	want := corpusBaseline(t, ts, n)
	c, faults := newReplicatedFaults(t, ts, n, 2, []Option{WithoutResilience()}, nil)
	ctx := context.Background()
	corpus := determinismCorpus()
	for i, cq := range corpus {
		if i == len(corpus)/2 {
			for s := 0; s < n; s++ {
				faults[s][0].SetDown(true)
			}
		}
		res, meta, err := c.QueryX(ctx, endpoint.Request{Query: cq.query})
		if err != nil {
			t.Fatalf("%s (query %d): %v", cq.name, i, err)
		}
		if meta.Incomplete || len(meta.SkippedShards) > 0 {
			t.Fatalf("%s: degraded after mid-run kill (skipped %v)", cq.name, meta.SkippedShards)
		}
		if got := encode(t, res); !bytes.Equal(got, want[cq.name]) {
			t.Errorf("%s: bytes diverge after mid-run kill", cq.name)
		}
	}
	// The killed replicas really were preferred before the kill.
	for s := 0; s < n; s++ {
		if faults[s][0].Calls() == 0 {
			t.Errorf("shard %d replica 0 never served before the kill", s)
		}
	}
}

// TestFailoverFlappyReplica runs the corpus with every shard's
// preferred replica flapping (down 1 call, up 2): each individual
// failure falls over to the stable replica, so every answer stays
// complete and byte-identical.
func TestFailoverFlappyReplica(t *testing.T) {
	ts := determinismTriples()
	const n = 3
	want := corpusBaseline(t, ts, n)
	c, _ := newReplicatedFaults(t, ts, n, 2, []Option{WithoutResilience()},
		func(shard, rep int) endpoint.FaultConfig {
			if rep == 0 {
				return endpoint.FaultConfig{FlapDown: 1, FlapUp: 2}
			}
			return endpoint.FaultConfig{}
		})
	runCorpusComplete(t, c, want, "flappy")
}

// TestFailoverConcurrentKill hammers the coordinator from many
// goroutines while replicas are killed and revived concurrently —
// with the race detector this is the failover race check. Every
// answer must stay complete and byte-identical.
func TestFailoverConcurrentKill(t *testing.T) {
	ts := determinismTriples()
	const n = 3
	c, faults := newReplicatedFaults(t, ts, n, 2, []Option{WithoutResilience()}, nil)
	queries := []string{
		`SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY DESC(?v) LIMIT 4`,
		`SELECT ?r (COUNT(?v) AS ?n) WHERE { ?s <http://t/region> ?r . ?s <http://t/value> ?v } GROUP BY ?r ORDER BY ?r`,
		`SELECT ?s ?c WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c } ORDER BY ?s`,
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		res, _, err := c.QueryX(context.Background(), endpoint.Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = encode(t, res)
	}

	stop := make(chan struct{})
	var killer sync.WaitGroup
	killer.Add(1)
	go func() {
		defer killer.Done()
		down := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			down = !down
			for s := 0; s < n; s++ {
				faults[s][0].SetDown(down)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				i := (g + k) % len(queries)
				res, meta, err := c.QueryX(context.Background(), endpoint.Request{Query: queries[i]})
				if err != nil {
					errCh <- fmt.Errorf("query %d: %w", i, err)
					return
				}
				if meta.Incomplete {
					errCh <- fmt.Errorf("query %d: degraded under concurrent kill", i)
					return
				}
				var buf bytes.Buffer
				if err := endpoint.EncodeResults(&buf, res); err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(buf.Bytes(), want[i]) {
					errCh <- fmt.Errorf("query %d: bytes diverge under concurrent kill", i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	killer.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// permClient fails permanently — the kind of error failover must NOT
// mask (a bad query fails identically on every replica).
type permClient struct{ calls *int }

func (c permClient) Query(ctx context.Context, query string) (*sparql.Results, error) {
	*c.calls++
	return nil, endpoint.MarkPermanent(errors.New("permanently broken"))
}

// TestNoFailoverOnPermanentError checks the failover gate: permanent
// errors surface immediately instead of hammering the other replicas.
func TestNoFailoverOnPermanentError(t *testing.T) {
	st := storeFromTriples(t, determinismTriples())
	secondCalls := 0
	c, err := NewReplicated([][]endpoint.Client{{
		permClient{calls: new(int)},
		countingClient{inner: endpoint.NewInProcess(st), calls: &secondCalls},
	}}, WithoutResilience())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.QueryX(context.Background(),
		endpoint.Request{Query: `SELECT ?s WHERE { ?s <http://t/value> ?v }`})
	if err == nil {
		t.Fatal("permanent error must fail the query")
	}
	if !errors.Is(err, endpoint.ErrPermanent) {
		t.Fatalf("error lost its permanent class: %v", err)
	}
	if secondCalls != 0 {
		t.Fatalf("permanent error failed over anyway (%d calls on replica 1)", secondCalls)
	}
}

// countingClient counts queries through to its inner client, whose
// store generation it passes on.
type countingClient struct {
	inner endpoint.Client
	calls *int
}

func (c countingClient) Query(ctx context.Context, query string) (*sparql.Results, error) {
	*c.calls++
	return c.inner.Query(ctx, query)
}

func (c countingClient) Unwrap() endpoint.Client { return c.inner }

// TestSkippedShardIndices checks satellite detail: a degraded answer
// names exactly which shards it is missing, in the meta and in the
// per-shard call records.
func TestSkippedShardIndices(t *testing.T) {
	ts := determinismTriples()
	parts := Partitioner{N: 3}.Split(ts)
	mk := func(i int) endpoint.Client {
		return endpoint.NewInProcess(storeFromTriples(t, parts[i]))
	}
	c, err := New([]endpoint.Client{mk(0), downClient{}, mk(2)}, WithDegraded(true))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, q := range []string{
		`SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY ?s`,                            // colocated
		`SELECT (COUNT(?v) AS ?n) WHERE { ?s <http://t/value> ?v }`,                            // partial agg
		`SELECT ?s ?c WHERE { ?s <http://t/region> ?r . ?r <http://t/partOf> ?c } ORDER BY ?s`, // gather
	} {
		_, meta, err := c.QueryX(context.Background(), endpoint.Request{Query: q})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !meta.Incomplete {
			t.Fatalf("%s: want incomplete", q)
		}
		if len(meta.SkippedShards) != 1 || meta.SkippedShards[0] != 1 {
			t.Fatalf("%s: SkippedShards = %v, want [1]", q, meta.SkippedShards)
		}
		if !meta.Shards[1].Skipped {
			t.Fatalf("%s: ShardCall[1].Skipped not set", q)
		}
		if meta.Shards[0].Skipped || meta.Shards[2].Skipped {
			t.Fatalf("%s: healthy shards marked skipped", q)
		}
	}
}

// TestHealthStateMachine unit-tests the up/down thresholds.
func TestHealthStateMachine(t *testing.T) {
	cfg := HealthConfig{FailThreshold: 2, RecoverThreshold: 3}.withDefaults()
	h := newHealthState()
	if !h.up.Load() || h.probed.Load() {
		t.Fatal("want optimistic-up, unprobed start")
	}
	if h.observe(false, cfg) {
		t.Fatal("one failure must not flip with threshold 2")
	}
	if !h.probed.Load() {
		t.Fatal("observe must mark probed")
	}
	if !h.observe(false, cfg) || h.up.Load() {
		t.Fatal("second consecutive failure must flip down")
	}
	if h.observe(false, cfg) {
		t.Fatal("already down: no flip")
	}
	// Recovery needs 3 consecutive OKs; a failure resets the streak.
	h.observe(true, cfg)
	h.observe(true, cfg)
	h.observe(false, cfg)
	h.observe(true, cfg)
	if h.observe(true, cfg) || h.up.Load() {
		t.Fatal("interrupted OK streak must not recover early")
	}
	if !h.observe(true, cfg) || !h.up.Load() {
		t.Fatal("third consecutive OK must flip up")
	}
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestProberDownAndRecover drives the full probe loop: a killed
// replica is marked down (and stops being preferred), readiness
// reflects an all-down shard, and a revived replica recovers.
func TestProberDownAndRecover(t *testing.T) {
	ts := determinismTriples()
	reg := obs.NewRegistry()
	c, faults := newReplicatedFaults(t, ts, 1, 2, []Option{
		WithoutResilience(),
		WithRegistry(reg),
		WithHealth(HealthConfig{Interval: 3 * time.Millisecond, Timeout: 100 * time.Millisecond}),
	}, nil)

	// First sweep confirms both replicas: ready.
	eventually(t, 5*time.Second, func() bool { return c.Ready() == nil },
		"coordinator never became ready with healthy replicas")

	r0 := c.currentView().groups[0].replicas[0]
	faults[0][0].SetDown(true)
	eventually(t, 5*time.Second, func() bool { return !r0.health.up.Load() },
		"prober never marked the killed replica down")
	if c.Ready() != nil {
		t.Fatal("one healthy replica left: must stay ready")
	}

	// Routing now prefers replica 1 — no failover needed, replica 0
	// untouched by queries.
	before := faults[0][0].Calls()
	query := `SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY ?s`
	if _, meta, err := c.QueryX(context.Background(), endpoint.Request{Query: query}); err != nil {
		t.Fatal(err)
	} else if meta.Incomplete {
		t.Fatal("unexpected degraded answer")
	} else if meta.Shards[0].Replica != 1 {
		t.Fatalf("routed to replica %d, want the healthy 1", meta.Shards[0].Replica)
	} else if meta.Shards[0].Failovers != 0 {
		t.Fatal("health-aware routing should not count as failover")
	}
	if faults[0][0].Calls() != before {
		t.Fatal("down replica still receiving queries")
	}

	// Both down: not ready (but queries still try last-resort routing).
	faults[0][1].SetDown(true)
	eventually(t, 5*time.Second, func() bool { return c.Ready() != nil },
		"readiness never failed with every replica down")
	if err := c.Ready(); !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("readiness error should name the shard: %v", err)
	}

	// Revive both: recovery probes bring the shard back.
	faults[0][0].SetDown(false)
	faults[0][1].SetDown(false)
	r1 := c.currentView().groups[0].replicas[1]
	eventually(t, 5*time.Second, func() bool {
		return c.Ready() == nil && r0.health.up.Load() && r1.health.up.Load()
	}, "revived replicas never recovered")

	// The exposition carries the per-replica gauges and transitions.
	// The gauges are written by the prober goroutine just after the
	// state flip, so poll the scrape rather than racing it.
	scrape := func() string {
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	eventually(t, 5*time.Second, func() bool {
		text := scrape()
		return strings.Contains(text, `re2xolap_replica_up{replica="0",shard="0"} 1`) &&
			strings.Contains(text, `re2xolap_replica_up{replica="1",shard="0"} 1`)
	}, "replica up gauges never returned to 1 after revival")
	text := scrape()
	for _, want := range []string{
		`re2xolap_replica_probe_seconds_count{replica="0",shard="0"}`,
		`re2xolap_replica_transitions_total{to="down"}`,
		`re2xolap_replica_transitions_total{to="up"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestProberBlackholeReplica checks a partitioned (hanging) replica is
// detected by probe timeout rather than stalling the sweep.
func TestProberBlackholeReplica(t *testing.T) {
	ts := determinismTriples()
	c, faults := newReplicatedFaults(t, ts, 1, 2, []Option{
		WithoutResilience(),
		WithHealth(HealthConfig{Interval: 3 * time.Millisecond, Timeout: 10 * time.Millisecond}),
	}, nil)
	eventually(t, 5*time.Second, func() bool { return c.Ready() == nil },
		"never ready")
	faults[0][0].SetBlackhole(true)
	r0 := c.currentView().groups[0].replicas[0]
	eventually(t, 5*time.Second, func() bool { return !r0.health.up.Load() },
		"blackholed replica never marked down")
	if c.Ready() != nil {
		t.Fatal("healthy second replica: must stay ready")
	}
}

// TestReadyWithoutProber: health probing disabled means optimistic
// readiness — the coordinator is ready as soon as it is built.
func TestReadyWithoutProber(t *testing.T) {
	ts := determinismTriples()
	c, _ := newReplicatedFaults(t, ts, 2, 1, []Option{WithoutResilience()}, nil)
	if err := c.Ready(); err != nil {
		t.Fatalf("prober disabled: want immediate readiness, got %v", err)
	}
}

// TestHedgedSlowPrimary checks the hedge path: a slow (but healthy)
// primary is raced by the next replica after the budget, the fast
// replica's answer wins, and the hedge counters record it.
func TestHedgedSlowPrimary(t *testing.T) {
	ts := determinismTriples()
	// The hedge win must answer the same with and without a registry.
	reg := obs.NewRegistry()
	var answers [][]byte
	for _, r := range []*obs.Registry{nil, reg} {
		c, _ := newReplicatedFaults(t, ts, 1, 2, []Option{
			WithoutResilience(),
			WithRegistry(r),
			WithHedge(15 * time.Millisecond),
		}, func(shard, rep int) endpoint.FaultConfig {
			if rep == 0 {
				return endpoint.FaultConfig{Latency: 2 * time.Second}
			}
			return endpoint.FaultConfig{}
		})
		start := time.Now()
		res, meta, err := c.QueryX(context.Background(),
			endpoint.Request{Query: `SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY ?s`})
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Incomplete {
			t.Fatal("hedged answer must be complete")
		}
		if res.Len() == 0 {
			t.Fatal("empty hedged answer")
		}
		if meta.Shards[0].Replica != 1 {
			t.Fatalf("winner replica = %d, want the fast 1", meta.Shards[0].Replica)
		}
		if wall >= 2*time.Second {
			t.Fatalf("hedge did not cut tail latency: wall %s", wall)
		}
		answers = append(answers, encode(t, res))
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Fatalf("hedged answer differs without a registry:\n%s\nvs\n%s", answers[0], answers[1])
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "re2xolap_shard_hedges_total 1") {
		t.Errorf("hedge launch not counted:\n%s", text)
	}
	if !strings.Contains(text, "re2xolap_shard_hedge_wins_total 1") {
		t.Errorf("hedge win not counted:\n%s", text)
	}
}

// BenchmarkScatterSingleReplica / BenchmarkScatterReplicated measure
// the failover machinery's overhead on a healthy topology — the
// acceptance bar is <5%. Both run the same colocated query over the
// same 3 partitions; the replicated variant adds a second healthy
// replica per shard (never used: the preferred replica always
// answers).
func benchScatter(b *testing.B, replicas int) {
	ts := determinismTriples()
	parts := Partitioner{N: 3}.Split(ts)
	groups := make([][]endpoint.Client, 3)
	for i := range groups {
		st := store.New()
		if err := st.AddAll(parts[i]); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < replicas; j++ {
			groups[i] = append(groups[i], endpoint.NewInProcess(st))
		}
	}
	c, err := NewReplicated(groups, WithoutResilience())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	req := endpoint.Request{Query: `SELECT ?s ?v WHERE { ?s <http://t/value> ?v } ORDER BY ?s`}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.QueryX(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScatterSingleReplica(b *testing.B) { benchScatter(b, 1) }
func BenchmarkScatterReplicated(b *testing.B)    { benchScatter(b, 2) }
