package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"re2xolap/internal/core"
	"re2xolap/internal/datagen"
	"re2xolap/internal/endpoint"
	"re2xolap/internal/refine"
	"re2xolap/internal/session"
)

// exploreWorkload is the paper's Algorithm 1+2 loop on a single node:
// seeded examples of size 1–3 go through core.Engine.Synthesize over a
// bare in-process client (no result cache, no shards), and every sixth
// continues as a session — Start, then one Options+Apply per
// refinement kind — alternating the eurostat shape (aggregation-heavy)
// and the dbpedia shape (synthesis-heavy). One closed-loop client: an
// explorer waits for an answer before the next step.
type exploreWorkload struct {
	env   *benchEnv
	cubes []*cube
	ops   []exploreOp
	hash  string
}

// exploreCells are the (cube, example size) strata of the example
// pool, with the refinement kinds a session started there walks. Two
// things are left out because their cost swings by an order of
// magnitude with the members drawn, which no sample of this size
// averages out (the issue excludes size 4 everywhere for that reason):
// size-3 examples on the dbpedia shape, and Similarity on the dbpedia
// shape, whose VALUES dice over M-to-N levels — and every step after
// it — the executor takes 40 ms to 10 s for.
var exploreCells = []struct {
	cube, size int
	kinds      []refine.Kind
}{
	{0, 1, sessionKinds}, {1, 1, dbpediaKinds},
	{0, 2, sessionKinds}, {1, 2, dbpediaKinds},
	{0, 3, sessionKinds},
}

var dbpediaKinds = []refine.Kind{refine.KindDisaggregate, refine.KindTopK, refine.KindPercentile}

// exploreOp is one example with its oracle: the candidate list the
// reference engine synthesized and, for every sixth example, the
// recorded session walk.
type exploreOp struct {
	cube      int
	size      int
	keywords  []string
	wantCands uint64
	start     int // candidate the session starts from
	script    []stepScript
}

func (w *exploreWorkload) setup(ctx context.Context, env *benchEnv) error {
	w.env = env
	var via func(endpoint.Client) endpoint.Client
	if env.tr != nil {
		via = func(c endpoint.Client) endpoint.Client {
			return &traceClient{t: env.tr, layer: layerEndpoint, name: "inproc", inner: c}
		}
	}
	for _, spec := range []datagen.Spec{eurostatSpec(env.sc.eurostatObs), dbpediaSpec(env.sc)} {
		c, err := buildCube(ctx, spec, via)
		if err != nil {
			return err
		}
		w.cubes = append(w.cubes, c)
	}
	ih := newInputHasher()
	for _, c := range w.cubes {
		ih.spec(c.spec, c.st.Len())
	}
	// Per cell — cube and example size — a fixed list of shapes; the
	// seed picks the members. Every sessionEvery-th example continues
	// as a session; the stride is coprime to the cell count, so the
	// sessions rotate through the cells.
	rng := rand.New(rand.NewSource(subSeed(env.seed, "explore")))
	picks := rand.New(rand.NewSource(shapeOrder))
	perCell := (env.sc.examples + len(exploreCells) - 1) / len(exploreCells)
	shapes := make([][]shape, len(exploreCells))
	for i, cell := range exploreCells {
		shapes[i] = w.cubes[cell.cube].shapes(cell.size, perCell, 0)
	}
	for i := 0; i < env.sc.examples; i++ {
		cell := exploreCells[i%len(exploreCells)]
		sh := shapes[i%len(exploreCells)][i/len(exploreCells)]
		op := exploreOp{cube: cell.cube, size: cell.size}
		c := w.cubes[op.cube]
		ex, cands, start, err := c.synthesizeShape(ctx, rng, sh)
		if err != nil {
			return err
		}
		op.keywords, op.wantCands, op.start = ex, hashCandidates(cands), start
		if i%env.sc.sessionEvery == 0 {
			if op.script, err = walkSession(ctx, c, cands[start].Query, cell.kinds, picks); err != nil {
				return fmt.Errorf("oracle session on %v: %w", op.keywords, err)
			}
		}
		ih.str(op.keywords...)
		ih.u64(op.wantCands)
		for _, s := range op.script {
			ih.str(string(s.Kind), s.SPARQL)
			ih.u64(uint64(s.Pick), s.Hash)
		}
		w.ops = append(w.ops, op)
	}
	w.hash = ih.sum()
	return nil
}

func (w *exploreWorkload) pass(ctx context.Context, rec *recorder) {
	tr := w.env.tr
	// A pass is one population of fresh analysts: the keyword-match
	// cache starts empty and fills as their examples repeat labels.
	for _, c := range w.cubes {
		c.eng.InvalidateCache()
	}
	for i := range w.ops {
		op := &w.ops[i]
		c := w.cubes[op.cube]

		sctx, end := tr.root(ctx, layerCore, "synth")
		q0 := c.cli.QueryCount()
		t0 := time.Now()
		cands, err := c.eng.Synthesize(sctx, core.Keywords(op.keywords...))
		d := time.Since(t0)
		end(int64(len(cands)))
		switch {
		case err != nil:
			rec.fail("synth", "%v: %v", op.keywords, err)
			continue
		case hashCandidates(cands) != op.wantCands:
			rec.fail("synth", "%v: candidate list differs from the reference", op.keywords)
			continue
		}
		rec.ok("synth", d, classAux, fmt.Sprintf("synth.size%d", op.size))
		rec.add("synth.queries", float64(c.cli.QueryCount()-q0))
		rec.add("synth.candidates", float64(len(cands)))
		if op.script == nil {
			continue
		}

		sess := session.New(c.eng, c.g)
		for j, st := range op.script {
			stepCtx, endStep := tr.root(ctx, layerSession, "step")
			var rs *core.ResultSet
			var dOpt, dApply time.Duration
			offered := -1
			t0 := time.Now()
			if j == 0 {
				actx, endA := tr.begin(stepCtx, layerSession, "start")
				rs, err = sess.Start(actx, cands[op.start].Query)
				dApply = time.Since(t0)
				endA(rowsOf(rs))
			} else {
				octx, endO := tr.begin(stepCtx, layerRefine, "options")
				var opts []refine.Refinement
				opts, err = sess.Options(octx, st.Kind)
				dOpt = time.Since(t0)
				endO(int64(len(opts)))
				offered = len(opts)
				if err == nil && st.Pick < len(opts) {
					actx, endA := tr.begin(stepCtx, layerSession, "apply")
					t1 := time.Now()
					rs, err = sess.Apply(actx, opts[st.Pick])
					dApply = time.Since(t1)
					endA(rowsOf(rs))
				}
			}
			d := time.Since(t0)
			endStep(rowsOf(rs))
			switch {
			case err != nil:
				rec.fail("step", "%v step %d (%s): %v", op.keywords, j, st.Kind, err)
			case j > 0 && offered != st.Options:
				rec.fail("step", "%v step %d (%s): %d options offered, reference saw %d", op.keywords, j, st.Kind, offered, st.Options)
			case rs == nil || hashResultSet(rs) != st.Hash:
				rec.fail("step", "%v step %d (%s): result differs from the reference", op.keywords, j, st.Kind)
			default:
				rec.ok("step", d, classStep)
				rec.add("step.rows", float64(rs.Len()))
				if j > 0 {
					rec.sample("options."+string(st.Kind), ms(dOpt))
					rec.sample("apply."+string(st.Kind), ms(dApply))
					rec.add("options.offered", float64(offered))
					rec.add("options.calls", 1)
				}
				continue
			}
			break // the session cannot continue past a failed step
		}
	}
}

func rowsOf(rs *core.ResultSet) int64 {
	if rs == nil {
		return 0
	}
	return int64(rs.Len())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (w *exploreWorkload) resetCounters() {}

func (w *exploreWorkload) inputHash() string { return w.hash }

func (w *exploreWorkload) probeTarget() *cube { return w.cubes[0] }

func (w *exploreWorkload) close() {}

func (w *exploreWorkload) layerMetrics(all *recorder, spans []spanRec, m metricSink) {
	synths := float64(all.phase("synth").Succeeded)
	steps := float64(all.phase("step").Succeeded)
	for size := 1; size <= 3; size++ {
		xs := all.lat[fmt.Sprintf("synth.size%d", size)]
		m.put(fmt.Sprintf("core.synth_ms.size%d", size), median(xs), len(xs))
	}
	m.put("core.queries_per_synth", ratio(all.counts["synth.queries"], synths), int(synths))
	m.put("core.candidates_per_synth", ratio(all.counts["synth.candidates"], synths), int(synths))
	m.put("core.useful_query_ratio", ratio(all.counts["synth.candidates"], all.counts["synth.queries"]), int(synths))

	// Where synthesis spends its endpoint time, from the engines' own
	// per-step accounting.
	stepSeconds := map[string]float64{}
	var total float64
	for _, c := range w.cubes {
		for _, s := range c.eng.StepStats() {
			stepSeconds[s.Step] += s.TotalSeconds
			total += s.TotalSeconds
		}
	}
	for _, step := range coreSteps {
		m.put("core.step_share."+step, ratio(stepSeconds[step], total), 0)
	}

	for _, k := range sessionKinds {
		o, a := all.lat["options."+string(k)], all.lat["apply."+string(k)]
		m.put("refine.options_ms."+string(k), median(o), len(o))
		m.put("session.apply_ms."+string(k), median(a), len(a))
	}
	m.put("refine.options_per_call", ratio(all.counts["options.offered"], all.counts["options.calls"]), int(all.counts["options.calls"]))
	m.put("session.rows_per_step", ratio(all.counts["step.rows"], steps), int(steps))

	var boot float64
	var bootQ int64
	var build float64
	for _, c := range w.cubes {
		boot += c.bootstrapS
		bootQ += c.bootstrapQueries
		build += c.buildS
	}
	m.put("vgraph.bootstrap_s", boot, len(w.cubes))
	m.put("vgraph.bootstrap_queries", float64(bootQ), len(w.cubes))
	m.put("datagen.build_s", build, len(w.cubes))
	m.zero(append([]string{"shard.", "serve."}, storeWriteMetrics...)...)
}

// coreSteps are the synthesis steps core.Engine tags its endpoint
// queries with.
var coreSteps = []string{"keyword-search", "membership-ask", "membership-values", "witness"}
