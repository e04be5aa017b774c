package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	ctx := context.Background()
	hashOf := func(name string, seed int64) (string, workload) {
		t.Helper()
		w := newWorkload(name)
		if err := w.setup(ctx, &benchEnv{sc: quickScale, seed: seed, nproc: 2}); err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		t.Cleanup(w.close)
		return w.inputHash(), w
	}
	for _, name := range workloadNames {
		h1, w1 := hashOf(name, 7)
		h2, w2 := hashOf(name, 7)
		h3, _ := hashOf(name, 8)
		if h1 != h2 {
			t.Errorf("%s: seed 7 hashed to %s and then to %s", name, h1, h2)
		}
		if h1 == h3 {
			t.Errorf("%s: seeds 7 and 8 share input_hash %s", name, h1)
		}
		if e1, ok := w1.(*exploreWorkload); ok {
			e2 := w2.(*exploreWorkload)
			if !reflect.DeepEqual(keywordsOf(e1), keywordsOf(e2)) {
				t.Errorf("explore: seed 7 sampled different examples the second time")
			}
		}
	}
}

func keywordsOf(w *exploreWorkload) [][]string {
	var out [][]string
	for _, op := range w.ops {
		out = append(out, op.keywords)
	}
	return out
}

func TestPercentileRefusesThinSamples(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs[:199], 0.95); err == nil {
		t.Error("p95 of 199 samples was reported")
	}
	if v, err := percentile(xs[:200], 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(xs[:3], 0.5); err != nil || v != 2 {
		t.Errorf("p50 of 1..3 = %v, %v; want 2", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of no samples was reported")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	// root [0,100) core
	//   a  [10,40) endpoint
	//     a1 [15,35) sparql
	//   b  [30,60) endpoint   (overlaps a by 10)
	//   c  [90,120) endpoint  (runs past the root: clipped to 10)
	spans := []spanRec{
		{ID: 1, Parent: 0, Layer: layerCore, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerEndpoint, Start: 10, End: 40},
		{ID: 3, Parent: 2, Layer: layerSparql, Start: 15, End: 35},
		{ID: 4, Parent: 1, Layer: layerEndpoint, Start: 30, End: 60},
		{ID: 5, Parent: 1, Layer: layerEndpoint, Start: 90, End: 120},
		{ID: 6, Parent: 0, Layer: layerStore, Start: 200, End: 190}, // never closed
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		layerCore:     40, // 100 - union([10,60) ∪ [90,100)) = 100 - 60
		layerEndpoint: 10 + 30 + 30,
		layerSparql:   20,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
	if got[layerStore] != 0 {
		t.Errorf("an unclosed span contributed %d", got[layerStore])
	}
}

func TestTracerRecordsParentAndOperation(t *testing.T) {
	tr := newTracer()
	ctx := context.Background()
	if c, end := tr.root(ctx, layerCore, "off"); c != ctx {
		t.Error("a switched-off tracer changed the context")
	} else {
		end(0)
	}
	tr.set(true)
	rctx, endRoot := tr.root(ctx, layerCore, "synth")
	cctx, endChild := tr.begin(rctx, layerEndpoint, "inproc")
	tr.interval(cctx, layerSparql, "exec", time.Now(), time.Now(), 3)
	endChild(3)
	endRoot(1)
	_, endOther := tr.root(ctx, layerCore, "synth")
	endOther(0)
	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans recorded, want 4", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID {
		t.Errorf("parents: %+v", spans)
	}
	if spans[0].Op != spans[2].Op || spans[3].Op == spans[0].Op || spans[3].Parent != 0 {
		t.Errorf("operation ids: %+v", spans)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkManifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := currentManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the tables in manifest.go; regenerate it with `go run . manifest`")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s: name or unit too long", d.Name)
		}
	}
	for _, d := range endToEndMetrics {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for name, why := range workloadWhy {
		if len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why is %d characters", name, len(why))
		}
	}
}

// TestQuickSmoke runs every workload at smoke size, untraced and
// traced, and checks the contract line: every metric BENCHMARK.json
// names for that mode is printed with its unit, and nothing failed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four workloads")
	}
	out := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			seconds := "2.5" // enough passes for 200 step samples in the faster half
			if traced == "1" {
				seconds = "1" // no p95 to support: per-layer metrics only
			}
			code := run([]string{"-quick", "-workload", name, "-seed", "3", "-seconds", seconds, "-trace", traced, "-out", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s\n%s", name, traced, code, stderr.String(), stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result object: %v", name, traced, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", name, traced, line.Correct, line.Attempted, line.Failed)
			}
			defs := endToEndMetrics
			if traced == "1" {
				defs = perLayerMetrics
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics printed, manifest names %d", name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := line.Metrics[d.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%s: %s not printed", name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s trace=%s: %s printed in %q, manifest says %q", name, traced, d.Name, got.Unit, d.Unit)
				case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s trace=%s: %s = %v", name, traced, d.Name, *got.Value)
				case traced == "0" && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, *got.Value)
				}
			}
		}
	}
}

func TestCompareJudgesAndRefuses(t *testing.T) {
	mk := func(seed int64, hash string, step float64) runRecord {
		ms := map[string]metricValue{}
		for _, d := range endToEndMetrics {
			ms[d.Name] = metricValue{Value: 100, Unit: d.Unit}
		}
		ms["step_p50_ms"] = metricValue{Value: step, Unit: "ms"}
		return runRecord{Workload: "explore", Seed: seed, Seconds: 15, InputHash: hash, Correct: true, Attempted: 10, Metrics: ms}
	}
	var parent, same, slower, faster, noisy []runRecord
	for i := int64(0); i < 10; i++ {
		jitter := float64(i%3) * 0.1
		parent = append(parent, mk(i, "h", 10+jitter))
		same = append(same, mk(i, "h", 10.05+jitter))
		slower = append(slower, mk(i, "h", 13+jitter))
		faster = append(faster, mk(i, "h", 7+jitter))
		noisy = append(noisy, mk(i, "h", 10+float64(i%2)*3))
	}
	verdict := func(b []runRecord) string {
		t.Helper()
		rows, err := compareRuns(parent, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Metric == "step_p50_ms" {
				return r.Verdict
			}
		}
		t.Fatal("no step_p50_ms row")
		return ""
	}
	if v := verdict(same); v != verdictUnchanged {
		t.Errorf("same-speed change judged %q", v)
	}
	if v := verdict(slower); v != verdictRegression {
		t.Errorf("30%% slower change judged %q", v)
	}
	if v := verdict(faster); v != verdictGain {
		t.Errorf("30%% faster change judged %q", v)
	}
	if v := verdict(noisy); v != verdictUnresolved {
		t.Errorf("change with a 30%% spread judged %q", v)
	}
	other := append([]runRecord(nil), same...)
	other[4].InputHash = "different"
	if _, err := compareRuns(parent, other); err == nil {
		t.Error("runs with different input_hash were compared")
	}
	if _, err := compareRuns(parent, same[:9]); err == nil {
		t.Error("10 parent runs were compared with 9 change runs")
	}
}
