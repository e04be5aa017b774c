package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// benchEnv is what every workload's set-up receives.
type benchEnv struct {
	sc    scale
	seed  int64
	tr    *tracer // nil in an untraced run: no wrapper is installed at all
	nproc int
}

// workload is one named traffic mix over one stack. A pass is the
// workload's fixed unit of work: the same operations in the same order
// every time, so runs of different length measure the same mix.
type workload interface {
	// setup generates the inputs from the seed, builds the stack and
	// computes the oracle answers. All of it counts as setup_s.
	setup(ctx context.Context, env *benchEnv) error
	// pass performs one unit of work, recording each operation.
	pass(ctx context.Context, rec *recorder)
	// resetCounters forgets what the warm-up pass counted.
	resetCounters()
	// inputHash fingerprints the generated inputs.
	inputHash() string
	// layerMetrics reports the per-layer numbers the timed phase
	// produced; layers the workload bypasses report 0.
	layerMetrics(all *recorder, spans []spanRec, m metricSink)
	// probeTarget is the dataset the layer probes run on.
	probeTarget() *cube
	close()
}

var workloadNames = []string{"explore", "serve_shared", "federated", "ingest_query"}

func newWorkload(name string) workload {
	switch name {
	case "explore":
		return &exploreWorkload{}
	case "serve_shared":
		return &serveWorkload{}
	case "federated":
		return &federatedWorkload{}
	case "ingest_query":
		return &ingestWorkload{}
	}
	return nil
}

// Latency classes every workload fills: "step" is the analyst-facing
// request (one exploration step's answer), "aux" the workload's second
// operation class. README.md says what each is per workload.
const (
	classStep = "step"
	classAux  = "aux"
)

// recorder collects one goroutine's measurements: latencies per class
// in milliseconds, attempted/failed per phase, and named counts. It is
// not safe for concurrent use; concurrent clients each own one and the
// harness merges them.
type recorder struct {
	lat      map[string][]float64
	phases   map[string]*phaseCount
	counts   map[string]float64
	failures []string // first few failure messages, for the report
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]float64{}, phases: map[string]*phaseCount{}, counts: map[string]float64{}}
}

func (r *recorder) phase(name string) *phaseCount {
	p := r.phases[name]
	if p == nil {
		p = &phaseCount{Phase: name}
		r.phases[name] = p
	}
	return p
}

// ok records one correct operation of the phase under the given
// latency classes.
func (r *recorder) ok(phase string, d time.Duration, classes ...string) {
	p := r.phase(phase)
	p.Attempted++
	p.Succeeded++
	ms := float64(d) / float64(time.Millisecond)
	for _, c := range classes {
		r.lat[c] = append(r.lat[c], ms)
	}
}

// fail records one failed operation: an error, a refusal or a wrong
// answer. It has no latency — a failed request misses every limit.
func (r *recorder) fail(phase, format string, args ...any) {
	p := r.phase(phase)
	p.Attempted++
	p.Failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, phase+": "+fmt.Sprintf(format, args...))
	}
}

func (r *recorder) add(name string, v float64) { r.counts[name] += v }

func (r *recorder) sample(class string, v float64) { r.lat[class] = append(r.lat[class], v) }

func (r *recorder) merge(o *recorder) {
	for c, xs := range o.lat {
		r.lat[c] = append(r.lat[c], xs...)
	}
	for n, p := range o.phases {
		q := r.phase(n)
		q.Attempted += p.Attempted
		q.Succeeded += p.Succeeded
		q.Failed += p.Failed
	}
	for n, v := range o.counts {
		r.counts[n] += v
	}
	for _, f := range o.failures {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, f)
		}
	}
}

func (r *recorder) attempted() (n int) {
	for _, p := range r.phases {
		n += p.Attempted
	}
	return n
}

func (r *recorder) failed() (n int) {
	for _, p := range r.phases {
		n += p.Failed
	}
	return n
}

func (r *recorder) firstFailure() string {
	if len(r.failures) == 0 {
		return ""
	}
	return r.failures[0]
}

func (r *recorder) phaseCounts() []phaseCount {
	out := make([]phaseCount, 0, len(r.phases))
	for _, p := range r.phases {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	return out
}

// spansNamed counts spans by name and sums their N.
func spansNamed(spans []spanRec, name string) (count int, n int64) {
	for _, s := range spans {
		if s.Name == name {
			count++
			n += s.N
		}
	}
	return count, n
}
