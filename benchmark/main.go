// Command benchmark is the repository's benchmark: four named
// workloads over the whole stack, end-to-end metrics measured with
// tracing off, per-layer metrics and a span trace from a traced run,
// and every answer checked against an oracle computed in set-up.
//
// It takes every number from outside the program, by timing calls
// into each layer's public functions. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "manifest" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(currentManifest()); err != nil {
			fmt.Fprintf(stderr, "benchmark manifest: %v\n", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all, one after the other)")
		seed         = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds      = fs.Float64("seconds", runSeconds, "length of the timed phase")
		trace        = fs.Int("trace", 0, "0: untraced run, prints the end-to-end metrics; 1: traced run, prints the per-layer metrics")
		quick        = fs.Bool("quick", false, "smoke size: tiny datasets, one set-up")
		outDir       = fs.String("out", defaultOutDir(), "directory for result records and span traces")
		verbose      = fs.Bool("v", false, "print one line per pass to standard error")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	names := workloadNames
	if *workloadName != "" {
		if newWorkload(*workloadName) == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *workloadName, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workloadName}
	}
	sc := fullScale
	if *quick {
		sc = quickScale
	}
	code := 0
	for _, name := range names {
		cfg := runConfig{
			workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1,
			quick: *quick, sc: sc, outDir: *outDir,
		}
		if *verbose {
			cfg.log = stderr
		}
		rec, err := runWorkload(context.Background(), cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if err := rec.save(*outDir); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: writing result: %v\n", name, err)
			return 1
		}
		// The contract line: last on standard output, one JSON object.
		line, err := json.Marshal(rec.contractLine())
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// defaultOutDir is benchmark/out whether the benchmark is started from
// the repository root (as the driver does) or from its own directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// runConfig is one invocation's settings for one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	sc       scale
	outDir   string
	log      io.Writer // per-pass lines when non-nil
}

// environment is recorded in every result, so two files can be told
// apart before their numbers are compared.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	e := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: os.Getenv("BENCH_COMMIT"),
	}
	if e.Commit == "" {
		e.Commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					e.Commit = s.Value
				}
			}
		}
	}
	return e
}

// metricValue is one reported number with its unit and, for timings,
// the sample count behind it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// phaseCount is the failure accounting of one phase: an error, a
// refusal and a wrong answer all count as failed.
type phaseCount struct {
	Phase     string `json:"phase"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// runRecord is the result of one run of one workload; `compare` reads
// files of these, one JSON object per line.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Quick     bool                   `json:"quick"`
	Env       environment            `json:"env"`
	InputHash string                 `json:"input_hash"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Phases    []phaseCount           `json:"phases"`
	Metrics   map[string]metricValue `json:"metrics"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// contractLine is the object the driver reads: with tracing off the
// end-to-end metrics, with tracing on the per-layer metrics.
func (r *runRecord) contractLine() map[string]any {
	defs := endToEndMetrics
	if r.Traced {
		defs = perLayerMetrics
	}
	ms := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v := r.Metrics[d.Name]
		ms[d.Name] = map[string]any{"value": v.Value, "unit": d.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms}
}

// save appends the record to <dir>/runs.jsonl.
func (r *runRecord) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorkload performs one run: set-up (several times when untraced,
// setup_s is the median), a warm-up pass, the timed phase, then — in a
// traced run — the layer probes.
func runWorkload(ctx context.Context, cfg runConfig, out io.Writer) (*runRecord, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	env := &benchEnv{sc: cfg.sc, seed: cfg.seed, tr: tr, nproc: runtime.NumCPU()}

	repeats := cfg.sc.setupRepeats
	if cfg.trace {
		repeats = 1 // setup_s is an untraced metric
	}
	var setupTimes []float64
	var w workload
	for i := 0; i < repeats; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		w = newWorkload(cfg.workload)
		t := newTimer()
		if err := w.setup(ctx, env); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, t.lap())
	}
	defer w.close()

	warm := newRecorder()
	w.pass(ctx, warm) // untimed: fills caches, lets the heap reach its working size
	if warm.failed() > 0 {
		return nil, fmt.Errorf("warm-up pass: %d of %d operations failed; first: %s", warm.failed(), warm.attempted(), warm.firstFailure())
	}
	w.resetCounters()

	// Timed phase: whole passes until the time is used up, so every run
	// measures the same composition of operations. A traced run
	// alternates untraced and traced passes; their ratio is the
	// tracing overhead. After each pass the live heap is sampled (a
	// forced collection, outside the pass's time).
	var timed []timedPass
	var heapMB []float64
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for {
		p := timedPass{rec: newRecorder(), traced: cfg.trace && len(timed)%2 == 1}
		tr.set(p.traced)
		passStart := time.Now()
		w.pass(ctx, p.rec)
		p.wall = time.Since(passStart)
		tr.set(false)
		timed = append(timed, p)
		if cfg.log != nil {
			fmt.Fprintf(cfg.log, "pass %3d  %8.1f ms  ops %6d  failed %d  step p50 %.4f ms  aux p50 %.4f ms\n",
				len(timed), ms(p.wall), p.rec.attempted(), p.rec.failed(), median(p.rec.lat[classStep]), median(p.rec.lat[classAux]))
		}
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		heapMB = append(heapMB, float64(mem.HeapAlloc)/(1<<20))
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*len(timed)) >= budget && (!cfg.trace || len(timed)%2 == 0) {
			break
		}
	}

	// Every pass counts for correctness and for the per-layer counts.
	// The timings come from the faster half of the passes: the passes
	// do identical work, interference from the host only ever adds
	// time, and on a shared two-core box it comes in bursts that would
	// otherwise move a run's numbers by a tenth.
	all := newRecorder()
	for _, p := range timed {
		all.merge(p.rec)
	}
	quiet, quietWall := quietHalf(timed, false)

	rec := &runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Quick: cfg.quick,
		Env: currentEnvironment(), InputHash: w.inputHash(),
		Attempted: all.attempted(), Failed: all.failed(), Phases: all.phaseCounts(),
		Metrics: map[string]metricValue{},
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	rec.FailRatio = ratio(float64(rec.Failed), float64(rec.Attempted))
	m := metricSink{rec: rec}

	if !cfg.trace {
		// End-to-end metrics come from the untraced run only.
		m.put("setup_s", median(setupTimes), len(setupTimes))
		m.put("ops_per_s", float64(quiet.attempted()-quiet.failed())/quietWall.Seconds(), quiet.attempted())
		if err := m.percentiles(quiet, classStep, "step_p50_ms", "step_p95_ms"); err != nil {
			return nil, err
		}
		m.put("aux_p50_ms", median(quiet.lat[classAux]), len(quiet.lat[classAux]))
		m.put("heap_live_mb", median(heapMB), len(heapMB))
	} else {
		spans := tr.snapshot()
		quietTraced, _ := quietHalf(timed, true)
		m.put("trace.overhead_ratio", ratio(median(quietTraced.lat[classStep]), median(quiet.lat[classStep])), len(quietTraced.lat[classStep]))
		m.put("trace.spans", float64(len(spans)), 0)
		self := selfTimes(spans)
		var total time.Duration
		for _, d := range self {
			total += d
		}
		for _, layer := range traceLayers {
			m.put("trace.self_share."+layer, ratio(self[layer].Seconds(), total.Seconds()), 0)
		}
		w.layerMetrics(all, spans, m)
		if err := runProbes(ctx, w.probeTarget(), env, m); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		rec.TraceFile = filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")
		if err := writeSpansJSONL(rec.TraceFile, spans); err != nil {
			return nil, err
		}
	}

	// A metric the manifest names but the run did not produce is a bug
	// in the benchmark, not a zero.
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if d.perLayer() != cfg.trace {
			continue
		}
		if _, ok := rec.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	printReport(out, rec, all)
	return rec, nil
}

// timedPass is one pass of the timed phase.
type timedPass struct {
	rec    *recorder
	wall   time.Duration
	traced bool
}

// quietHalf merges the faster half (by operations per second) of the
// passes that ran with tracing on, or off, and returns their total
// time.
func quietHalf(passes []timedPass, traced bool) (*recorder, time.Duration) {
	var mine []timedPass
	for _, p := range passes {
		if p.traced == traced {
			mine = append(mine, p)
		}
	}
	rate := func(p timedPass) float64 { return float64(p.rec.attempted()) / p.wall.Seconds() }
	sort.SliceStable(mine, func(i, j int) bool { return rate(mine[i]) > rate(mine[j]) })
	merged := newRecorder()
	var wall time.Duration
	for _, p := range mine[:(len(mine)+1)/2] {
		merged.merge(p.rec)
		wall += p.wall
	}
	return merged, wall
}

// metricSink collects a run's metrics under the manifest's units.
type metricSink struct{ rec *runRecord }

func (m metricSink) put(name string, v float64, samples int) {
	m.rec.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), Samples: samples}
}

// percentiles reports the median and p95 of one latency class.
func (m metricSink) percentiles(r *recorder, class, p50Name, p95Name string) error {
	xs := r.lat[class]
	p95, err := percentile(xs, 0.95)
	if err != nil {
		return fmt.Errorf("%s: %w", p95Name, err)
	}
	m.put(p50Name, median(xs), len(xs))
	m.put(p95Name, p95, len(xs))
	return nil
}

// printReport prints every metric by name with its unit, and the
// attempted / succeeded / failed counts per phase.
func printReport(out io.Writer, r *runRecord, rec *recorder) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "== workload %s  seed %d  %s  input_hash %s ==\n", r.Workload, r.Seed, mode, r.InputHash)
	fmt.Fprintf(out, "env: nproc=%d GOMAXPROCS=%d %s commit=%s\n", r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit)
	for _, p := range r.Phases {
		fmt.Fprintf(out, "phase %-14s attempted %7d  succeeded %7d  failed %d\n", p.Phase, p.Attempted, p.Succeeded, p.Failed)
	}
	fmt.Fprintf(out, "fail_ratio %.6f (%d of %d)\n", r.FailRatio, r.Failed, r.Attempted)
	for _, msg := range rec.failures {
		fmt.Fprintf(out, "  failure: %s\n", msg)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		if v.Samples > 0 {
			fmt.Fprintf(out, "%-40s %14.6g %-8s n=%d\n", n, v.Value, v.Unit, v.Samples)
		} else {
			fmt.Fprintf(out, "%-40s %14.6g %s\n", n, v.Value, v.Unit)
		}
	}
}

// timer measures consecutive intervals in seconds.
type timer struct{ last time.Time }

func newTimer() *timer { return &timer{last: time.Now()} }

func (t *timer) lap() float64 {
	now := time.Now()
	d := now.Sub(t.last)
	t.last = now
	return d.Seconds()
}
