// Command re2xolap is the interactive example-driven explorer: the
// Algorithm 2 loop as a terminal REPL.
//
//	re2xolap -gen eurostat -obs 20000
//	re2xolap -data dataset.nt -class http://purl.org/linked-data/cube#Observation
//	re2xolap -endpoint http://localhost:8085/sparql -class http://...#Observation
//
// Session commands:
//
//	example <kw> | <kw> | ...   reverse-engineer queries from examples
//	example <kws> -- <negative kws>   ... rejecting negative examples
//	contrast <kws> vs <kws>     compare the measures of two examples
//	rank                        rank the last listed refinements
//	pick <n>                    execute candidate query n
//	show [n]                    print current results (first n rows)
//	dis | topk | perc | sim     list refinements of the chosen method
//	apply <n>                   execute refinement n
//	back                        backtrack to the previous query
//	profile                     print the virtual schema graph
//	profile <query|current>     run under the runtime profiler (EXPLAIN ANALYZE)
//	sparql <query>              run a raw SPARQL query
//	help, quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"re2xolap/internal/core"
	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/obs"
	"re2xolap/internal/qb"
	"re2xolap/internal/refine"
	"re2xolap/internal/session"
	"re2xolap/internal/vgraph"
)

func main() {
	endpointURL := flag.String("endpoint", "", "remote SPARQL endpoint URL")
	data := flag.String("data", "", "local N-Triples/Turtle file (.snap loads a binary snapshot)")
	gen := flag.String("gen", "", "generate a preset dataset: eurostat, production, dbpedia")
	obsCount := flag.Int("obs", 10000, "observations for -gen")
	class := flag.String("class", qb.Observation, "observation class IRI")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-query deadline against a remote endpoint (0 disables)")
	retries := flag.Int("retries", 4, "retries per query on transient endpoint failures")
	breaker := flag.Int("breaker", 5, "consecutive failures before the circuit breaker trips (0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker stays open before probing")
	maxInFlight := flag.Int("max-inflight", 8, "max concurrent queries to the remote endpoint (0 unlimited)")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this as JSON lines to stderr (0 disables)")
	flag.Parse()

	policy := endpoint.Policy{
		Timeout:          *timeout,
		MaxRetries:       *retries,
		BaseBackoff:      100 * time.Millisecond,
		MaxBackoff:       10 * time.Second,
		Jitter:           0.5,
		BreakerThreshold: *breaker,
		BreakerCooldown:  *breakerCooldown,
		MaxInFlight:      *maxInFlight,
	}
	// Metrics are always collected (the "stats" REPL command prints
	// them); the slow-query log is opt-in.
	reg := obs.NewRegistry()
	copts := []endpoint.Option{endpoint.WithRegistry(reg)}
	if *slowQuery > 0 {
		copts = append(copts, endpoint.WithSlowQueryLog(obs.NewSlowLog(os.Stderr, *slowQuery)))
	}
	client, cfg, err := buildClient(*endpointURL, *data, *gen, *obsCount, *class, policy, copts)
	if err != nil {
		log.Fatalf("re2xolap: %v", err)
	}
	ctx := context.Background()
	fmt.Println("bootstrapping virtual schema graph...")
	g, err := vgraph.Bootstrap(ctx, client, cfg)
	if err != nil {
		log.Fatalf("re2xolap: bootstrap: %v", err)
	}
	fmt.Print(g.String())
	engine := core.NewEngine(client, g, cfg)
	engine.Instrument(reg)
	repl(ctx, engine, g, client, reg, os.Stdin, os.Stdout)
}

func buildClient(endpointURL, data, gen string, obsCount int, class string, policy endpoint.Policy, copts []endpoint.Option) (endpoint.Client, qb.Config, error) {
	cfg := qb.Config{ObservationClass: class}
	if endpointURL != "" {
		// A remote endpoint can flake: wrap the HTTP client in the
		// resilience decorator (deadlines, retries, circuit breaker).
		// The metrics and slow-query options attach to the outer
		// decorator so every query is observed exactly once.
		return endpoint.NewResilient(endpoint.NewHTTPClient(endpointURL),
			append([]endpoint.Option{endpoint.WithPolicy(policy)}, copts...)...), cfg, nil
	}
	st, genCfg, err := datagen.Load(data, gen, obsCount)
	if err != nil {
		return nil, cfg, err
	}
	if gen != "" {
		cfg = genCfg
	}
	return endpoint.NewInProcess(st, copts...), cfg, nil
}

// repl drives the interactive loop, reading commands from in and
// writing to out (parameterized for tests).
func repl(ctx context.Context, engine *core.Engine, g *vgraph.Graph, client endpoint.Client, reg *obs.Registry, in io.Reader, out io.Writer) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sess := session.New(engine, g)
	var candidates []core.Candidate
	var options []refine.Refinement

	// Per-command tracing: qctx derives the command's context (with a
	// fresh span tree when tracing is on) and showTrace prints the tree
	// after the command's own output, at the top of the next iteration.
	traceOn := false
	var lastTrace *obs.Trace
	qctx := func(base context.Context, name string) context.Context {
		if !traceOn {
			return base
		}
		lastTrace = obs.NewTrace(name)
		return obs.ContextWith(base, lastTrace.Root())
	}
	showTrace := func() {
		if lastTrace == nil {
			return
		}
		lastTrace.Root().End()
		fmt.Fprint(out, lastTrace.String())
		lastTrace = nil
	}

	fmt.Fprintln(out, `type "help" for commands`)
	for {
		showTrace()
		fmt.Fprint(out, "re2xolap> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch cmd {
		case "quit", "exit":
			return
		case "help":
			printHelp(out)
		case "trace":
			traceOn = !traceOn
			if traceOn {
				fmt.Fprintln(out, "trace on: query commands print their span tree")
			} else {
				fmt.Fprintln(out, "trace off")
			}
		case "stats":
			if err := reg.WriteProm(out); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
			if rc, ok := client.(*endpoint.ResilientClient); ok {
				fmt.Fprintf(out, "# resilient: breaker %s\n", rc.State())
			}
		case "profile":
			if rest != "" {
				// profile <query|current>: run under the runtime profiler
				// and print the EXPLAIN ANALYZE operator tree.
				if rest == "current" {
					cur := sess.Current()
					if cur == nil {
						fmt.Fprintln(out, "no active query")
						continue
					}
					rest = cur.Query.ToSPARQL()
				}
				ip, ok := client.(*endpoint.InProcess)
				if !ok {
					fmt.Fprintln(out, "profile requires an in-process store (-data or -gen)")
					continue
				}
				_, p, err := ip.Engine.Profile(qctx(ctx, "profile"), rest)
				if err != nil {
					fmt.Fprintln(out, "error:", err)
					continue
				}
				fmt.Fprint(out, p.String())
				continue
			}
			fmt.Fprint(out, g.String())
			if p, err := engine.Profile(qctx(ctx, "profile")); err == nil {
				fmt.Fprint(out, p.String())
			}
		case "example":
			posPart, negPart, hasNeg := strings.Cut(rest, "--")
			items := splitItems(posPart)
			if len(items) == 0 {
				fmt.Fprintln(out, "usage: example <kw> | <kw> | ... [-- <negative kw> | ...]")
				continue
			}
			var cands []core.Candidate
			var err error
			if hasNeg {
				var negatives []core.ExampleTuple
				for _, n := range splitItems(negPart) {
					negatives = append(negatives, core.Keywords(n))
				}
				cands, err = engine.SynthesizeWithNegatives(qctx(ctx, "example"),
					[]core.ExampleTuple{core.Keywords(items...)}, negatives)
			} else {
				cands, err = engine.Synthesize(qctx(ctx, "example"), core.Keywords(items...))
			}
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			candidates = core.RankCandidates(cands)
			cands = candidates
			if len(cands) == 0 {
				fmt.Fprintln(out, "no valid interpretation; try other examples")
				continue
			}
			for i, c := range cands {
				fmt.Fprintf(out, "  [%d] %s\n", i, c.Query.Description)
			}
			fmt.Fprintln(out, `pick one with "pick <n>"`)
		case "pick":
			i, err := strconv.Atoi(rest)
			if err != nil || i < 0 || i >= len(candidates) {
				fmt.Fprintln(out, "usage: pick <n> after an example command")
				continue
			}
			rs, err := sess.Start(qctx(ctx, "pick"), candidates[i].Query)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			printResults(out, rs, 15)
		case "show":
			cur := sess.Current()
			if cur == nil {
				fmt.Fprintln(out, "no active query")
				continue
			}
			n := 15
			if rest != "" {
				if v, err := strconv.Atoi(rest); err == nil {
					n = v
				}
			}
			fmt.Fprintln(out, cur.Query.Description)
			printResults(out, cur.Results, n)
		case "dis", "topk", "perc", "sim", "cluster", "rollup":
			kind := map[string]refine.Kind{
				"dis": refine.KindDisaggregate, "topk": refine.KindTopK,
				"perc": refine.KindPercentile, "sim": refine.KindSimilarity,
				"cluster": refine.KindCluster, "rollup": refine.KindRollUp,
			}[cmd]
			opts, err := sess.Options(ctx, kind)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			options = opts
			if len(opts) == 0 {
				fmt.Fprintln(out, "no refinements available")
				continue
			}
			for i, r := range opts {
				fmt.Fprintf(out, "  [%d] %s\n", i, r.Why)
			}
			fmt.Fprintln(out, `apply one with "apply <n>"`)
		case "apply":
			i, err := strconv.Atoi(rest)
			if err != nil || i < 0 || i >= len(options) {
				fmt.Fprintln(out, "usage: apply <n> after a refinement command")
				continue
			}
			rs, err := sess.Apply(qctx(ctx, "apply"), options[i])
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			printResults(out, rs, 15)
		case "contrast":
			aPart, bPart, ok := strings.Cut(rest, " vs ")
			if !ok {
				fmt.Fprintln(out, "usage: contrast <kw> | <kw> vs <kw> | <kw>")
				continue
			}
			a, bb := splitItems(aPart), splitItems(bPart)
			cs, err := engine.ContrastSets(qctx(ctx, "contrast"), core.Keywords(a...), core.Keywords(bb...))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if len(cs) == 0 {
				fmt.Fprintln(out, "no shared interpretation")
				continue
			}
			for _, c := range cs {
				fmt.Fprintln(out, c.Query.Description)
				for _, r := range c.Rows {
					fmt.Fprintf(out, "  %-24s A=%-12.1f B=%-12.1f ratio=%.2f\n", r.Column, r.A, r.B, r.Ratio)
				}
			}
		case "rank":
			cur := sess.Current()
			if cur == nil || len(options) == 0 {
				fmt.Fprintln(out, "list refinements first (dis/topk/perc/sim)")
				continue
			}
			scored := refine.Rank(cur.Results, options)
			options = options[:0]
			for i, sc := range scored {
				options = append(options, sc.Refinement)
				fmt.Fprintf(out, "  [%d] %.2f %s\n", i, sc.Score, sc.Why)
			}
		case "save":
			if rest == "" {
				fmt.Fprintln(out, "usage: save <file.json>")
				continue
			}
			if sess.Current() == nil {
				fmt.Fprintln(out, "no exploration to save")
				continue
			}
			f, err := os.Create(rest)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			err = sess.WriteJSON(f)
			f.Close()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "saved %d steps to %s\n", sess.Depth(), rest)
		case "back":
			if sess.Backtrack() {
				fmt.Fprintln(out, "back to:", sess.Current().Query.Description)
			} else {
				fmt.Fprintln(out, "nothing to backtrack")
			}
		case "explain":
			if rest == "" {
				fmt.Fprintln(out, "usage: explain <query> (or: explain current)")
				continue
			}
			if rest == "current" {
				cur := sess.Current()
				if cur == nil {
					fmt.Fprintln(out, "no active query")
					continue
				}
				rest = cur.Query.ToSPARQL()
			}
			ip, ok := client.(*endpoint.InProcess)
			if !ok {
				fmt.Fprintln(out, "explain requires an in-process store (-data or -gen)")
				continue
			}
			txt, err := ip.Engine.ExplainString(rest)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprint(out, txt)
		case "sparql":
			if rest == "" {
				fmt.Fprintln(out, "usage: sparql <query>")
				continue
			}
			res, err := client.Query(qctx(ctx, "sparql"), rest)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprint(out, res.String())
		default:
			fmt.Fprintf(out, "unknown command %q; type help\n", cmd)
		}
	}
}

// splitItems splits "a | b | c" into trimmed non-empty items.
func splitItems(s string) []string {
	var out []string
	for _, part := range strings.Split(s, "|") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func printHelp(out io.Writer) {
	fmt.Fprintln(out, `commands:
  example <kw> | <kw> ...  reverse-engineer analytical queries from examples
  example <kws> -- <kws>   synthesis with negative examples
  contrast <kws> vs <kws>  compare the measures of two example sets
  rank                     rank the last listed refinements
  pick <n>                 execute candidate n
  show [rows]              print current results
  dis                      list disaggregation (drill-down) refinements
  topk                     list top-k subset refinements
  perc                     list percentile subset refinements
  sim                      list similarity-search refinements
  cluster                  list clustering-based refinements
  rollup                   list roll-up (re-aggregate) refinements
  apply <n>                execute refinement n
  back                     backtrack to the previous query
  save <file.json>         export the exploration history
  profile                  print the virtual schema graph
  profile <query|current>  run a query under the runtime profiler (EXPLAIN ANALYZE)
  sparql <query>           run raw SPARQL
  explain <query|current>  show the query plan
  trace                    toggle per-command query tracing
  stats                    print collected metrics (Prometheus text)
  quit`)
}

func printResults(out io.Writer, rs *core.ResultSet, limit int) {
	q := rs.Query
	for _, d := range q.Dims {
		fmt.Fprintf(out, "%-26s | ", d.Level.String())
	}
	for _, a := range q.Aggregates {
		fmt.Fprintf(out, "%-14s | ", a.OutVar)
	}
	fmt.Fprintln(out)
	for i, t := range rs.Tuples {
		if i >= limit {
			fmt.Fprintf(out, "... (%d more rows)\n", rs.Len()-limit)
			break
		}
		for _, m := range t.Dims {
			fmt.Fprintf(out, "%-26s | ", short(m.Value))
		}
		for _, a := range q.Aggregates {
			fmt.Fprintf(out, "%-14.1f | ", t.Measures[a.OutVar])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%d tuples; example-matching tuples: %d\n", rs.Len(), len(rs.ExampleTuples()))
}

func short(v string) string {
	for i := len(v) - 1; i >= 0; i-- {
		if v[i] == '/' || v[i] == '#' {
			return v[i+1:]
		}
	}
	return v
}
