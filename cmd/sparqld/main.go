// Command sparqld serves an RDF dataset over the SPARQL 1.1 protocol
// (query via GET or POST, application/sparql-results+json responses),
// playing the role of the external triplestore in the paper's
// architecture:
//
//	sparqld -addr :8085 -data dataset.nt
//	sparqld -addr :8085 -gen eurostat -obs 50000
//
// Then point cmd/re2xolap (or any SPARQL client) at
// http://localhost:8085/sparql.
//
// One binary covers three roles:
//
//   - single node (default): serve the whole dataset;
//   - shard server (-shard i/n): serve only partition i of an n-way
//     subject-hash split of the dataset;
//   - coordinator (-shards N | -shards "a|b,c|d" | -topology file):
//     scatter-gather queries over replica groups — each shard an
//     ordered set of identical replicas with health probing
//     (-health-interval), failover, and optional hedging
//     (-hedge-after) — with answers byte-identical to a single node
//     over the union.
//
// Coordinator topologies can change at runtime: SIGHUP re-resolves
// the -topology file immediately, and -topology-poll watches its
// mtime. In-flight queries drain on the topology they started with.
//
// Every flag can also come from a JSON config file (-config); flags
// given explicitly on the command line override the file.
//
// The listener comes up before the dataset finishes loading: /livez
// answers 200 immediately (the process is alive) while /healthz and
// /readyz answer 503 with a JSON body until the store is loaded —
// and, on coordinators with probing enabled, until every shard has at
// least one probe-confirmed healthy replica — so load balancers do
// not route to cold processes.
//
// The server is hardened for untrusted traffic: per-request query
// deadlines (-query-timeout), in-flight limiting with 503 shedding
// (-max-inflight), panic recovery, Slowloris protection via
// ReadHeaderTimeout, and graceful shutdown on SIGINT/SIGTERM.
//
// A serving stack (internal/serve) layers on in every role:
// -result-cache enables a generation-invalidated result cache with
// single-flight deduplication of concurrent identical queries, and
// -max-concurrent/-queue-budget add per-tenant admission control
// (tenants named by -tenant-header) that sheds overflow with
// 429 + Retry-After instead of queueing it toward timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/serve"
	"re2xolap/internal/shard"
	"re2xolap/internal/store"
)

func main() {
	addr := flag.String("addr", ":8085", "listen address")
	data := flag.String("data", "", "N-Triples/Turtle file to load (.snap loads a binary snapshot)")
	gen := flag.String("gen", "", "generate a synthetic dataset instead: eurostat, production, dbpedia")
	obsCount := flag.Int("obs", 10000, "observations for -gen")
	queryTimeout := flag.Duration("query-timeout", 5*time.Minute, "per-request query execution deadline (0 disables)")
	maxInFlight := flag.Int("max-inflight", 64, "max concurrent requests before shedding with 503 (0 disables)")
	shutdownGrace := flag.Duration("shutdown-grace", 15*time.Second, "how long to wait for in-flight requests on shutdown")
	workers := flag.Int("workers", 0, "executor worker goroutines per query (0 = GOMAXPROCS, 1 = sequential)")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this as JSON lines to stderr (0 disables)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (do not enable on untrusted networks)")
	configPath := flag.String("config", "", "JSON config file with flag-name keys; explicit flags override it")
	shards := flag.String("shards", "", "coordinator mode: shard count, or comma list of shard replica groups ('|'-separated /sparql URLs or 'local')")
	shardSlot := flag.String("shard", "", "shard-server mode: serve only partition i of n, as 'i/n'")
	degraded := flag.Bool("degraded", false, "coordinator: answer with partial results when shards fail (sets X-Re2xolap-Incomplete)")
	topology := flag.String("topology", "", "coordinator mode: JSON topology file naming replica URLs per shard (reloaded on SIGHUP)")
	topologyPoll := flag.Duration("topology-poll", 0, "poll the -topology file's mtime this often and reload on change (0 disables)")
	healthInterval := flag.Duration("health-interval", 0, "coordinator: probe every replica this often (0 disables health probing)")
	healthTimeout := flag.Duration("health-timeout", time.Second, "coordinator: per-probe deadline")
	hedgeAfter := flag.Duration("hedge-after", 0, "coordinator: hedge a shard call to the next replica after this budget (0 disables)")
	traceExport := flag.String("trace-export", "", "append per-request OTLP/JSON trace lines to this file ('-' for stdout)")
	debugQueries := flag.Int("debug-queries", 0, "keep the last N query profiles and serve them as JSON on /debug/queries (0 disables)")
	resultCache := flag.Int("result-cache", 0, "serve-layer result cache capacity in answers; generation-invalidated, with single-flight dedup (0 disables)")
	maxConcurrent := flag.Int("max-concurrent", 0, "serve-layer per-tenant concurrent query limit; excess queues, overflow is shed with 429 (0 disables admission)")
	queueBudget := flag.Int("queue-budget", 0, "serve-layer per-tenant admission queue bound (0 = default 64; needs -max-concurrent)")
	tenantHeader := flag.String("tenant-header", "", "HTTP header naming the tenant for per-tenant admission (empty = all requests share one tenant)")
	slowQueryFile := flag.String("slow-query-file", "", "write the -slow-query log to this file with size-capped rotation (one .1 generation) instead of stderr")
	slowQueryMax := flag.Int64("slow-query-max-bytes", 0, "rotate -slow-query-file past this size (0 = 64 MiB)")
	flag.Parse()

	if *configPath != "" {
		if err := applyConfigFile(flag.CommandLine, *configPath); err != nil {
			log.Fatalf("sparqld: %v", err)
		}
	}
	if *shards != "" && *shardSlot != "" {
		log.Fatalf("sparqld: -shards (coordinator) and -shard (shard server) are mutually exclusive")
	}
	if *topology != "" && (*shards != "" || *shardSlot != "") {
		log.Fatalf("sparqld: -topology is a coordinator mode of its own; drop -shards/-shard")
	}

	// Metrics are always on — the registry costs a few atomic adds per
	// request and /metrics is how operators see inside the server.
	// Process self-metrics (goroutines, heap, GC, uptime) ride along.
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	opts := []endpoint.Option{
		endpoint.WithRegistry(reg),
		// Each query fans its joins and aggregations over this many
		// goroutines; -max-inflight bounds how many such queries run at
		// once, so total parallelism is workers x inflight.
		endpoint.WithWorkers(*workers),
	}
	if *slowQuery > 0 {
		if *slowQueryFile != "" {
			sl, _, err := obs.NewRotatingSlowLog(*slowQueryFile, *slowQuery, *slowQueryMax)
			if err != nil {
				log.Fatalf("sparqld: slow-query-file: %v", err)
			}
			opts = append(opts, endpoint.WithSlowQueryLog(sl))
		} else {
			opts = append(opts, endpoint.WithSlowQueryLog(obs.NewSlowLog(os.Stderr, *slowQuery)))
		}
	} else if *slowQueryFile != "" {
		log.Fatalf("sparqld: -slow-query-file needs -slow-query to set the threshold")
	}
	if *traceExport != "" {
		sink, err := openTraceSink(*traceExport)
		if err != nil {
			log.Fatalf("sparqld: %v", err)
		}
		opts = append(opts, endpoint.WithTraceExport(sink))
	}
	if *debugQueries > 0 {
		opts = append(opts, endpoint.WithQueryLog(obs.NewQueryRing(*debugQueries)))
	}
	if *tenantHeader != "" {
		opts = append(opts, endpoint.WithTenantHeader(*tenantHeader))
	}

	hcfg := handlerConfig{
		Shards:         *shards,
		ShardSlot:      *shardSlot,
		Topology:       *topology,
		Data:           *data,
		Gen:            *gen,
		ObsCount:       *obsCount,
		Workers:        *workers,
		Degraded:       *degraded,
		Addr:           *addr,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		HedgeAfter:     *hedgeAfter,
		ResultCache:    *resultCache,
		MaxConcurrent:  *maxConcurrent,
		QueueBudget:    *queueBudget,
	}
	if err := hcfg.validate(); err != nil {
		log.Fatalf("sparqld: %v", err) // fail fast, before the dataset loads
	}

	// The listener comes up immediately on a holding handler that
	// answers /livez 200 and everything else 503 "loading", then the
	// real handler is built (dataset load, partitioning, topology
	// resolution) and swapped in. Probers see an honest not-ready
	// instead of a connection refusal.
	sw := &swapHandler{}
	sw.Store(loadingHandler())
	srv := newHTTPServer(*addr, sw, *queryTimeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var coord atomic.Pointer[shard.Coordinator]
	go func() {
		handler, c, ft, err := buildHandler(hcfg, reg, opts)
		if err != nil {
			log.Fatalf("sparqld: %v", err)
		}
		sw.Store(handler.Routes(endpoint.RoutesConfig{
			Harden: endpoint.HardenConfig{
				QueryTimeout: *queryTimeout,
				MaxInFlight:  *maxInFlight,
			},
			Pprof: *pprofOn,
		}))
		if c != nil {
			coord.Store(c)
			go watchTopology(ctx, c, ft, *topologyPoll)
		}
	}()

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, then give
	// in-flight queries the grace period before exiting.
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		log.Fatalf("sparqld: serve: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("sparqld: signal received, draining for up to %s...", *shutdownGrace)
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("sparqld: forced shutdown: %v", err)
			_ = srv.Close()
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("sparqld: serve: %v", err)
		}
		if c := coord.Load(); c != nil {
			c.Close()
		}
		log.Printf("sparqld: shutdown complete")
	}
}

// swapHandler atomically swaps the serving handler: the holding
// handler during startup, the real routes once the dataset is loaded.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) Store(h http.Handler) { s.h.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

// loadingHandler is what the listener serves before the store is
// loaded: alive but not ready.
func loadingHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/livez" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, `{"status":"ok"}`+"\n")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, `{"status":"unavailable","reason":"store loading"}`+"\n")
	})
}

// watchTopology applies live topology changes to a running
// coordinator: SIGHUP forces a re-resolve, and — when the topology
// came from a file and -topology-poll is set — the file's mtime is
// polled so edits apply without any signal. Reload is cheap and
// idempotent (an unchanged view is a no-op), so spurious wakeups are
// harmless.
func watchTopology(ctx context.Context, c *shard.Coordinator, ft *shard.FileTopology, poll time.Duration) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	var tick <-chan time.Time
	if ft != nil && poll > 0 {
		t := time.NewTicker(poll)
		defer t.Stop()
		tick = t.C
	}
	reload := func(trigger string) {
		changed, err := c.Reload()
		switch {
		case err != nil:
			log.Printf("sparqld: topology reload (%s): %v", trigger, err)
		case changed:
			log.Printf("sparqld: topology reloaded (%s): %d shards, replicas %v", trigger, c.Shards(), c.Replicas())
		case trigger == "sighup":
			// An explicit signal deserves an acknowledgment; the poll
			// path stays quiet to avoid a log line per tick.
			log.Printf("sparqld: topology reload (sighup): unchanged")
		}
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-hup:
			reload("sighup")
		case <-tick:
			changed, err := ft.Changed()
			if err != nil {
				log.Printf("sparqld: topology poll: %v", err)
				continue
			}
			if changed {
				reload("poll")
			}
		}
	}
}

// handlerConfig is the flag bundle buildHandler consumes.
type handlerConfig struct {
	Shards    string
	ShardSlot string
	Topology  string
	Data      string
	Gen       string
	ObsCount  int
	Workers   int
	Degraded  bool
	Addr      string

	HealthInterval time.Duration
	HealthTimeout  time.Duration
	HedgeAfter     time.Duration

	ResultCache   int
	MaxConcurrent int
	QueueBudget   int
}

// validate rejects flag combinations that would otherwise be silently
// ignored.
func (cfg handlerConfig) validate() error {
	if cfg.QueueBudget != 0 && cfg.MaxConcurrent <= 0 {
		return fmt.Errorf("-queue-budget needs -max-concurrent to turn admission control on")
	}
	return nil
}

// wrapServe builds the serving stack (result cache, single-flight
// dedup, admission control) around the executing client when any of
// its flags ask for it.
func (cfg handlerConfig) wrapServe(c endpoint.Client, reg *obs.Registry) endpoint.Client {
	if cfg.ResultCache <= 0 && cfg.MaxConcurrent <= 0 {
		return c
	}
	sopts := []serve.Option{serve.WithRegistry(reg)}
	if cfg.ResultCache > 0 {
		sopts = append(sopts, serve.WithResultCache(cfg.ResultCache))
	}
	if cfg.MaxConcurrent > 0 {
		sopts = append(sopts, serve.WithAdmission(serve.AdmissionConfig{
			MaxConcurrent: cfg.MaxConcurrent,
			QueueBudget:   cfg.QueueBudget,
		}))
	}
	log.Printf("sparqld: serving stack on (result-cache=%d, max-concurrent=%d, queue-budget=%d)",
		cfg.ResultCache, cfg.MaxConcurrent, cfg.QueueBudget)
	return serve.New(c, sopts...)
}

// shardOptions translates the coordinator flags to shard options.
func (cfg handlerConfig) shardOptions(reg *obs.Registry) []shard.Option {
	opts := []shard.Option{
		shard.WithWorkers(cfg.Workers),
		shard.WithDegraded(cfg.Degraded),
		shard.WithRegistry(reg),
		shard.WithHealth(shard.HealthConfig{
			Interval: cfg.HealthInterval,
			Timeout:  cfg.HealthTimeout,
		}),
		shard.WithHedge(cfg.HedgeAfter),
	}
	return opts
}

// buildHandler assembles the SPARQL handler for whichever of the
// roles the flags select. The returned coordinator and file topology
// are nil except in the coordinator modes (and the file topology only
// for -topology).
func buildHandler(cfg handlerConfig, reg *obs.Registry, opts []endpoint.Option) (*endpoint.Server, *shard.Coordinator, *shard.FileTopology, error) {
	shardOpts := cfg.shardOptions(reg)
	switch {
	case cfg.ShardSlot != "":
		i, n, err := parseShardSlot(cfg.ShardSlot)
		if err != nil {
			return nil, nil, nil, err
		}
		parts, err := buildPartitions(cfg.Data, cfg.Gen, cfg.ObsCount, n)
		if err != nil {
			return nil, nil, nil, err
		}
		st := parts[i]
		log.Printf("sparqld: serving shard %d/%d (%d triples) on %s/sparql (metrics on /metrics)",
			i, n, st.Len(), cfg.Addr)
		return cfg.storeServer(st, reg, opts), nil, nil, nil
	case cfg.Topology != "":
		ft := shard.NewFileTopology(cfg.Topology)
		coord, err := shard.NewDynamic(ft, remoteDialer, shardOpts...)
		if err != nil {
			return nil, nil, nil, err
		}
		log.Printf("sparqld: coordinating %d shards (replicas %v) from %s on %s/sparql (degraded=%v, metrics on /metrics)",
			coord.Shards(), coord.Replicas(), cfg.Topology, cfg.Addr, cfg.Degraded)
		opts = append(opts, endpoint.WithReadiness(coord.Ready))
		return endpoint.NewClientServer(cfg.wrapServe(coord, reg), opts...), coord, ft, nil
	case cfg.Shards != "":
		groups, err := parseShards(cfg.Shards)
		if err != nil {
			return nil, nil, nil, err
		}
		dial, err := localDialer(groups, cfg.Data, cfg.Gen, cfg.ObsCount, cfg.Workers)
		if err != nil {
			return nil, nil, nil, err
		}
		// A static view of the replica specs, dialed on demand: the
		// coordinator's view names each replica by its -shards spec.
		coord, err := shard.NewDynamic(shard.Static{View: shard.TopologyView{Groups: groups}}, dial, shardOpts...)
		if err != nil {
			return nil, nil, nil, err
		}
		log.Printf("sparqld: coordinating %d shards (replicas %v) on %s/sparql (degraded=%v, metrics on /metrics)",
			coord.Shards(), coord.Replicas(), cfg.Addr, cfg.Degraded)
		opts = append(opts, endpoint.WithReadiness(coord.Ready))
		return endpoint.NewClientServer(cfg.wrapServe(coord, reg), opts...), coord, nil, nil
	default:
		st, err := buildStore(cfg.Data, cfg.Gen, cfg.ObsCount)
		if err != nil {
			return nil, nil, nil, err
		}
		stats := st.Stats()
		log.Printf("sparqld: serving %d triples (%d terms, %d predicates) on %s/sparql (metrics on /metrics)",
			stats.Triples, stats.Terms, stats.Predicates, cfg.Addr)
		return cfg.storeServer(st, reg, opts), nil, nil, nil
	}
}

// storeServer serves a local store: an in-process client, behind the
// serving stack when a serve-layer flag asks for one, fronted by the
// protocol server. The in-process client gets only the registry and
// the worker count; the request sinks (slow log, traces, query ring) in
// opts belong to the server, which records each request once.
func (cfg handlerConfig) storeServer(st *store.Store, reg *obs.Registry, opts []endpoint.Option) *endpoint.Server {
	inproc := endpoint.NewInProcess(st, endpoint.WithRegistry(reg), endpoint.WithWorkers(cfg.Workers))
	return endpoint.NewClientServer(cfg.wrapServe(inproc, reg), opts...)
}

// openTraceSink opens the OTLP/JSON trace destination. Files are
// opened in append mode so restarts do not clobber earlier traces.
func openTraceSink(path string) (*obs.OTLPSink, error) {
	var w io.Writer
	if path == "-" {
		w = os.Stdout
	} else {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("trace export: %w", err)
		}
		w = f
	}
	return obs.NewOTLPSink(w, "sparqld"), nil
}

// newHTTPServer wraps the handler in the hardened http.Server.
// ReadHeaderTimeout bounds how long a client may dribble headers
// (Slowloris); WriteTimeout leaves headroom over the query deadline so
// slow result writes are bounded too.
func newHTTPServer(addr string, handler http.Handler, queryTimeout time.Duration) *http.Server {
	writeTimeout := 15 * time.Minute
	if queryTimeout > 0 {
		writeTimeout = queryTimeout + time.Minute
	}
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
}

func buildStore(data, gen string, obs int) (*store.Store, error) {
	switch {
	case data != "" && gen != "":
		return nil, fmt.Errorf("-data and -gen are mutually exclusive")
	case data != "":
		f, err := os.Open(data)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(data, ".snap") {
			st, err := store.ReadSnapshot(f)
			if err != nil {
				return nil, fmt.Errorf("loading snapshot %s: %w", data, err)
			}
			log.Printf("sparqld: loaded %d triples from snapshot %s", st.Len(), data)
			return st, nil
		}
		st := store.New()
		n, err := st.Load(f)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", data, err)
		}
		log.Printf("sparqld: loaded %d triples from %s", n, data)
		return st, nil
	case gen != "":
		spec, err := datagen.Preset(gen, obs)
		if err != nil {
			return nil, err
		}
		log.Printf("sparqld: generating %s with %d observations...", gen, obs)
		return spec.BuildStore()
	default:
		return nil, fmt.Errorf("one of -data or -gen is required")
	}
}
