package main

import "strings"

// metricDef mirrors one metric entry of BENCHMARK.json. The tables
// below are the source the benchmark prints from; a unit test keeps
// BENCHMARK.json equal to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a change may cost
}

func (d metricDef) perLayer() bool { return d.Bound == 0 }

// endToEndMetrics are what an analyst (or operator) of the system
// sees. Every workload reports every one of them, from the untraced
// run; README.md says what "step" and "aux" are on each workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"step_p50_ms", "ms", "lower", 0.20},
	{"step_p95_ms", "ms", "lower", 0.25},
	{"aux_p50_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.20},
}

// perLayerMetrics are the single-layer numbers of the traced run. They
// carry no bound: they explain a move in an end-to-end metric, they do
// not gate a change. README.md maps each to the end-to-end metric and
// workload it should move.
var perLayerMetrics = layerDefs(
	// rdf / store / datagen: probes on the workload's own dataset.
	"rdf.decode_triples_per_s 1/s higher",
	"datagen.build_s s lower",
	"store.load_build_s s lower",
	"store.snapshot_write_s s lower",
	"store.snapshot_read_s s lower",
	"store.snapshot_bytes_per_triple B lower",
	"store.estimated_bytes_per_triple B lower",
	"store.heap_bytes_per_triple B lower",
	"store.match_point_ns ns lower",
	"store.match_scan_ns_per_row ns lower",
	"store.delta_read_penalty_ratio ratio lower",
	"store.textsearch_us us lower",
	// store write path: ingest_query's timed phase.
	"store.add_us us lower",
	"store.compactions count higher",
	"store.write_stall_max_ms ms lower",
	"store.restart_ms ms lower",
	"store.load_triples_per_s 1/s higher",
	// sparql executor probes.
	"sparql.parse_us us lower",
	"sparql.exec_ms.bgp ms lower",
	"sparql.exec_ms.groupby ms lower",
	"sparql.exec_ms.closure ms lower",
	"sparql.exec_ms.topk ms lower",
	"sparql.rows_per_ms 1/ms higher",
	"sparql.phase_share.join ratio lower",
	"sparql.phase_share.aggregate ratio lower",
	"sparql.phase_share.sort ratio lower",
	"sparql.workers_speedup ratio higher",
	"sparql.est_error_ratio ratio lower",
	"par.task_overhead_ns ns lower",
	// endpoint probes.
	"endpoint.inproc_overhead_us us lower",
	"endpoint.http_overhead_us us lower",
	"endpoint.json_mb_per_s MB/s higher",
	"endpoint.result_bytes_per_query B lower",
	"obs.registry_overhead_ratio ratio lower",
	// vgraph / core / refine / session: explore's timed phase.
	"vgraph.bootstrap_s s lower",
	"vgraph.bootstrap_queries count lower",
	"core.synth_ms.size1 ms lower",
	"core.synth_ms.size2 ms lower",
	"core.synth_ms.size3 ms lower",
	"core.queries_per_synth count lower",
	"core.candidates_per_synth count higher",
	"core.useful_query_ratio ratio higher",
	"core.step_share.keyword-search ratio lower",
	"core.step_share.membership-ask ratio lower",
	"core.step_share.membership-values ratio lower",
	"core.step_share.witness ratio lower",
	"refine.options_ms.disaggregate ms lower",
	"refine.options_ms.topk ms lower",
	"refine.options_ms.similarity ms lower",
	"refine.options_ms.percentile ms lower",
	"refine.options_per_call count higher",
	"session.apply_ms.disaggregate ms lower",
	"session.apply_ms.topk ms lower",
	"session.apply_ms.similarity ms lower",
	"session.apply_ms.percentile ms lower",
	"session.rows_per_step count lower",
	// shard: federated's timed phase.
	"shard.query_ms.colocated ms lower",
	"shard.query_ms.partial_agg ms lower",
	"shard.query_ms.bound_join ms lower",
	"shard.query_ms.gather ms lower",
	"shard.overhead_ratio.colocated ratio lower",
	"shard.overhead_ratio.partial_agg ratio lower",
	"shard.overhead_ratio.bound_join ratio lower",
	"shard.overhead_ratio.gather ratio lower",
	"shard.fanout_per_query count lower",
	"shard.rows_shipped_per_result_row ratio lower",
	"shard.bound_bindings_per_query count lower",
	"shard.plan_cache_hit_ratio ratio higher",
	"shard.coordinator_self_share ratio lower",
	"shard.slowest_shard_skew ratio lower",
	// serve: serve_shared's timed phase (invalidation: ingest_query's).
	"serve.hit_ratio ratio higher",
	"serve.coalesced_ratio ratio higher",
	"serve.executions_per_request ratio lower",
	"serve.evictions count lower",
	"serve.hit_us us lower",
	"serve.miss_overhead_us us lower",
	"serve.queue_wait_p95_ms ms lower",
	"serve.sheds count lower",
	"serve.invalidation_miss_ratio ratio lower",
	"serve.query_p99_ms ms lower",
	// the trace itself.
	"trace.overhead_ratio ratio lower",
	"trace.spans count lower",
	"trace.self_share.core ratio lower",
	"trace.self_share.refine ratio lower",
	"trace.self_share.session ratio lower",
	"trace.self_share.endpoint ratio lower",
	"trace.self_share.sparql ratio lower",
	"trace.self_share.serve ratio lower",
	"trace.self_share.shard ratio lower",
	"trace.self_share.store ratio lower",
)

func layerDefs(lines ...string) []metricDef {
	out := make([]metricDef, 0, len(lines))
	for _, l := range lines {
		f := strings.Fields(l)
		out = append(out, metricDef{Name: f[0], Unit: f[1], Better: f[2]})
	}
	return out
}

func unitOf(name string) string {
	for _, d := range endToEndMetrics {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range perLayerMetrics {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// zero reports 0 for every per-layer metric under the given name
// prefixes that the run has not measured: the layer is bypassed on
// this workload, and its count there is the fact, not a gap.
func (m metricSink) zero(prefixes ...string) {
	for _, d := range perLayerMetrics {
		if _, done := m.rec.Metrics[d.Name]; done {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				m.put(d.Name, 0, 0)
				break
			}
		}
	}
}

// workloadWhy is the one-line rationale of each workload, as
// BENCHMARK.json records it.
var workloadWhy = map[string]string{
	"explore":      "Algorithm 1+2 on one node, no cache, no shards: core, vgraph, refine and the sparql executor do the work; serve and shard are bypassed, so a cache or coordinator change must not move it",
	"serve_shared": "production read path: loopback HTTP over serve (cache, single-flight, admission); 75% hot set that fits the cache, 25% cold tail 4x its size: evictions are non-zero, executor gains show only on misses",
	"federated":    "3-shard coordinator, plan cache on, result cache off, 1 client: plan-class mix byte-compared with the single-node answer; shard and shard-side sparql dominate, serve is bypassed",
	"ingest_query": "writes beside reads on one store: restart from a snapshot, Add batches through the delta buffer to an auto-compaction, hot reads through a cache the generation bump must invalidate",
}

// benchmarkManifest is the shape of BENCHMARK.json.
type benchmarkManifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the length of the timed phase the bounds were measured
// at; BENCHMARK.json passes it as --seconds.
const runSeconds = 20

// currentManifest renders the tables above as BENCHMARK.json.
// `benchmark manifest` prints it; a unit test keeps the checked-in file
// equal to it.
func currentManifest() benchmarkManifest {
	m := benchmarkManifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, n := range workloadNames {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: n, Why: workloadWhy[n]})
	}
	for _, d := range endToEndMetrics {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &b})
	}
	for _, d := range perLayerMetrics {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
