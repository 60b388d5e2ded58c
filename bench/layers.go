package main

import (
	"strings"

	"deepcat/internal/core"
)

// perLayerSpecs lists the per-layer metrics of a traced run, named after
// the module they price. README.md maps each to the end-to-end metric it
// should move and to the bench_baseline.json micro-benchmark it replaces.
var perLayerSpecs = []metricSpec{
	// internal/service/client: JSON, HTTP and loopback around the handler.
	{"client.suggest_self_ms", "ms", "lower", 0},
	{"client.observe_self_ms", "ms", "lower", 0},
	// internal/service: handler, Manager round, sanitizer.
	{"service.handler_suggest_ms", "ms", "lower", 0},
	{"service.handler_observe_ms", "ms", "lower", 0},
	{"service.handler_observe_self_ms", "ms", "lower", 0},
	{"service.manager_round_ms", "ms", "lower", 0},
	{"service.quarantined_share", "ratio", "lower", 0},
	{"service.verify_ms", "ms", "lower", 0},
	// service.Store (FSStore).
	{"store.save_ms", "ms", "lower", 0},
	{"store.save_bytes", "B", "lower", 0},
	{"store.saves", "count", "lower", 0},
	{"store.load_ms", "ms", "lower", 0},
	// internal/core.
	{"core.new_ms", "ms", "lower", 0},
	{"core.restore_ms", "ms", "lower", 0},
	{"core.snapshot_encode_ms", "ms", "lower", 0},
	{"core.snapshot_bytes", "B", "lower", 0},
	{"core.suggest_us", "us", "lower", 0},
	{"core.suggest_traced_us", "us", "lower", 0},
	{"core.twinq_tries_per_suggest", "count", "lower", 0},
	{"core.twinq_optimized_share", "ratio", "lower", 0},
	{"core.observe_inline_ms", "ms", "lower", 0},
	{"core.observe_notrain_us", "us", "lower", 0},
	{"core.offline_iter_ms", "ms", "lower", 0},
	// internal/trace: the flight recorder, on by default.
	{"trace.recorder_overhead_pct", "%", "lower", 0},
	// internal/rl.
	{"rl.act_us", "us", "lower", 0},
	{"rl.qbatch_score_us", "us", "lower", 0},
	{"rl.train_step_ms", "ms", "lower", 0},
	{"rl.train_step_small_ms", "ms", "lower", 0},
	{"rl.train_step_allocs", "count", "lower", 0},
	{"rl.rdper_sample_us", "us", "lower", 0},
	{"rl.rdper_add_ns", "ns", "lower", 0},
	// internal/nn and internal/mat.
	{"nn.forward_us", "us", "lower", 0},
	{"nn.forward_batch_us", "us", "lower", 0},
	{"nn.forward_backward_us", "us", "lower", 0},
	{"nn.adam_step_us", "us", "lower", 0},
	{"nn.soft_update_us", "us", "lower", 0},
	{"mat.mul_lanes_ns", "ns", "lower", 0},
	{"mat.mul_lanes_flops", "flop", "lower", 0},
	// internal/spine.
	{"spine.ingest_ns", "ns", "lower", 0},
	{"spine.sample_us", "us", "lower", 0},
	{"spine.train_pass_ms", "ms", "lower", 0},
	{"spine.learner_duty", "ratio", "lower", 0},
	{"spine.trainings", "count", "higher", 0},
	{"spine.policy_staleness_s", "s", "lower", 0},
	{"spine.shed_transitions", "count", "lower", 0},
	// internal/sparksim and internal/warehouse.
	{"sparksim.evaluate_us", "us", "lower", 0},
	{"warehouse.append_us", "us", "lower", 0},
	{"warehouse.open_ms", "ms", "lower", 0},
	{"warehouse.records", "count", "lower", 0},
	// The Go runtime over the home phase's timed part.
	{"proc.alloc_mb_per_round", "MB", "lower", 0},
	{"proc.allocs_per_round", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	// What the ledger could not attribute, per level (target below 10).
	{"client.suggest.unexplained_pct", "%", "lower", 0},
	{"client.observe.unexplained_pct", "%", "lower", 0},
	{"service.handler_suggest.unexplained_pct", "%", "lower", 0},
	{"service.handler_observe.unexplained_pct", "%", "lower", 0},
	{"core.suggest.unexplained_pct", "%", "lower", 0},
	{"core.observe.unexplained_pct", "%", "lower", 0},
	{"rl.train_step.unexplained_pct", "%", "lower", 0},
	{"tune.offline.unexplained_pct", "%", "lower", 0},
	{"tune.online_step.unexplained_pct", "%", "lower", 0},
	{"life.resume.unexplained_pct", "%", "lower", 0},
	{"life.handoff.unexplained_pct", "%", "lower", 0},
	{"life.create.unexplained_pct", "%", "lower", 0},
	// What the benchmark's own span recording costs the traced segments.
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// serveParents and lifeParents say which span causes which.
var (
	serveParents = map[string][]string{
		"service.handler_suggest": {"client.suggest"},
		"service.handler_observe": {"client.observe"},
		"store.save":              {"service.handler_observe"},
	}
	lifeParents = map[string][]string{
		"store.load": {"life.resume"},
		"store.save": {"life.round", "life.handoff", "life.create"},
	}
)

// tunerDefaults is the configuration every session and model runs with; the
// ledger takes from it what one inline observe trains (FineTuneIters steps
// on BatchSize samples) and how long offline training only collects
// (WarmupSteps). The dimensions do not matter for those.
var tunerDefaults = core.DefaultConfig(0, 0)

// perLayer fills rec with every per-layer metric and returns the ledger:
// spans timed in place where the benchmark wraps a boundary, ladder rungs
// beneath them where it cannot.
func perLayer(rec *runRecord, home string, sv serveOut, tn tuneOut, lf lifeOut, lad ladderOut, serveRec, lifeRec *recorder) *node {
	sa := aggregate(serveRec.spans, serveParents)
	la := aggregate(lifeRec.spans, lifeParents)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// Units come from the table, which is also what BENCHMARK.json lists.
	unitOf := make(map[string]string, len(perLayerSpecs))
	for _, spec := range perLayerSpecs {
		unitOf[spec.Name] = spec.Unit
	}
	set := func(name string, v float64, samples int) { rec.set(name, unitOf[name], v, samples) }

	// Ladder rungs carry over under their own names.
	for name := range unitOf {
		if v, ok := lad[name]; ok {
			set(name, v, 0)
		}
	}

	set("client.suggest_self_ms", sa["client.suggest"].selfPerCallMs(), sa["client.suggest"].count())
	set("client.observe_self_ms", sa["client.observe"].selfPerCallMs(), sa["client.observe"].count())
	set("service.handler_suggest_ms", sa["service.handler_suggest"].perCallMs(), sa["service.handler_suggest"].count())
	set("service.handler_observe_ms", sa["service.handler_observe"].perCallMs(), sa["service.handler_observe"].count())
	set("service.handler_observe_self_ms", sa["service.handler_observe"].selfPerCallMs(), sa["service.handler_observe"].count())

	// The Store as both phases used it.
	saves, saveBytes := sv.saves+lf.saves, sv.saveBytes+lf.saveBytes
	saveAgg := &spanAgg{}
	for _, a := range []*spanAgg{sa["store.save"], la["store.save"]} {
		if a != nil {
			saveAgg.Count += a.Count
			saveAgg.BusyNs += a.BusyNs
		}
	}
	set("store.save_ms", saveAgg.perCallMs(), saveAgg.Count)
	set("store.save_bytes", ratio(float64(saveBytes), float64(saves)), int(saves))
	set("store.saves", float64(saves), int(saves))
	set("store.load_ms", la["store.load"].perCallMs(), la["store.load"].count())

	// Counts the daemon keeps itself.
	suggests := 0
	if h := sv.metrics.HistogramTotal("deepcat_suggest_duration_seconds"); h != nil {
		suggests = int(h.Count)
	}
	observes := 0
	if h := sv.metrics.HistogramTotal("deepcat_observe_duration_seconds"); h != nil {
		observes = int(h.Count) // learned observations; quarantined ones skip it
	}
	quarantined := int(sv.metrics.CounterTotal("deepcat_observations_quarantined_total"))
	set("service.quarantined_share", ratio(float64(quarantined), float64(observes+quarantined)), observes+quarantined)
	tries := 1 + ratio(float64(sv.metrics.CounterTotal("deepcat_twinq_candidates_total")), float64(suggests))
	set("core.twinq_tries_per_suggest", tries, suggests)
	set("core.twinq_optimized_share", ratio(float64(sv.metrics.CounterTotal("deepcat_twinq_rejections_total")), float64(suggests)), suggests)

	var trainings int
	var staleness float64
	for _, ls := range sv.spineStats.Lanes {
		trainings += ls.Trainings
		staleness = max(staleness, ls.StalenessSeconds)
	}
	set("spine.learner_duty", sv.spineStats.LearnerDuty, trainings)
	set("spine.trainings", float64(trainings), trainings)
	set("spine.policy_staleness_s", staleness, len(sv.spineStats.Lanes))
	set("spine.shed_transitions", float64(sv.spineStats.ShedTransitions), 1)

	set("warehouse.open_ms", lf.openMs.median(), len(lf.openMs))
	set("warehouse.records", float64(lf.whRecords), 1)

	// Runtime cost of the home phase per unit of its work: a round, an
	// iteration or online step, a cycle.
	mem, units := sv.mem, sv.rounds
	switch home {
	case "tune":
		mem, units = tn.mem, tn.ops
	case "life":
		mem, units = lf.mem, lf.cycles
	}
	set("proc.alloc_mb_per_round", ratio(float64(mem.allocBytes)/1e6, float64(units)), units)
	set("proc.allocs_per_round", ratio(float64(mem.mallocs), float64(units)), units)
	set("proc.gc_pause_ms", float64(mem.pauseNs)/1e6, units)

	// Tracing overhead where the wrappers sit: HTTP rounds per second in
	// traced against untraced segments. The tune phase has no wrapper on it.
	overhead := 0.0
	if sv.rateUntraced > 0 {
		overhead = 100 * (1 - sv.rateTraced/sv.rateUntraced)
	}
	set("bench.trace_overhead_pct", overhead, sv.rounds)

	root := buildLedger(sv, tn, lf, lad, sa, la, suggests, observes, tries)
	for _, spec := range perLayerSpecs {
		if name, ok := strings.CutSuffix(spec.Name, ".unexplained_pct"); ok {
			set(spec.Name, root.unexplained(name), 0)
		}
	}
	return root
}

// buildLedger assembles the cost tree. Span nodes use what the traced
// segments recorded; ladder nodes multiply a rung by the number of calls the
// parent makes (known from the code path: 24 fine-tune steps per inline
// observe, two critics per Twin-Q score, and so on).
func buildLedger(sv serveOut, tn tuneOut, lf lifeOut, lad ladderOut, sa, la map[string]*spanAgg, suggests, observes int, tries float64) *node {
	// A rung's node is named after its metric without the unit suffix.
	rung := func(metric string, count int, unit float64, children ...*node) *node {
		name := metric
		for _, suffix := range []string{"_ms", "_us", "_ns"} {
			name = strings.TrimSuffix(name, suffix)
		}
		return ladderNode(name, count, lad[metric]*unit, children...)
	}
	const usToMs, nsToMs = 1e-3, 1e-6

	// Suggest: the daemon's recorder is on, so the traced rung prices it.
	suggestTree := func(n int) *node {
		// Past the first chunk of 8 the search scores chunks of up to 56;
		// the extra tries are priced per candidate at the first chunk's rate.
		scores := float64(n) * max(1, tries/twinqChunk)
		return ladderNode("core.suggest", n, lad["core.suggest_traced_us"]*usToMs,
			rung("rl.act_us", n, usToMs),
			rung("rl.qbatch_score_us", int(scores), usToMs,
				rung("nn.forward_batch_us", 2*int(scores), usToMs,
					rung("mat.mul_lanes_ns", 2*int(scores), nsToMs))))
	}
	trainTree := func(name string, n int) *node {
		// Per step and sample: three target-network forwards, two critic
		// forward+backward passes, and every second step the actor update
		// (about two more forward+backward passes); two or three Adam steps
		// and, every second step, three soft updates.
		return rung(name, n, 1,
			rung("nn.forward_us", n*3*tunerDefaults.BatchSize, usToMs),
			rung("nn.forward_backward_us", n*3*tunerDefaults.BatchSize, usToMs),
			rung("nn.adam_step_us", n*5/2, usToMs),
			rung("nn.soft_update_us", n*3/2, usToMs))
	}
	observeTree := func(n int) *node {
		if sv.spineStats.Shards > 0 {
			return ladderNode("core.observe", n, lad["core.observe_notrain_us"]*usToMs,
				rung("rl.rdper_add_ns", n, nsToMs))
		}
		return ladderNode("core.observe", n, lad["core.observe_inline_ms"],
			rung("rl.rdper_add_ns", n, nsToMs),
			rung("rl.rdper_sample_us", n*tunerDefaults.FineTuneIters, usToMs),
			trainTree("rl.train_step_ms", n*tunerDefaults.FineTuneIters))
	}

	nSug, nObs := sa["service.handler_suggest"].count(), sa["service.handler_observe"].count()
	learned := nObs
	if total := observes + int(sv.metrics.CounterTotal("deepcat_observations_quarantined_total")); total > 0 {
		learned = nObs * observes / total
	}
	serve := sumNode("serve.rounds", nSug,
		spanNode("client.suggest", sa["client.suggest"],
			spanNode("service.handler_suggest", sa["service.handler_suggest"], suggestTree(nSug))),
		spanNode("client.observe", sa["client.observe"],
			spanNode("service.handler_observe", sa["service.handler_observe"],
				observeTree(learned),
				rung("core.snapshot_encode_ms", nObs, 1),
				spanNode("store.save", sa["service.handler_observe>store.save"]))))

	// The first WarmupSteps iterations of a model only fill the buffer.
	trained := tn.offlineIters - len(tn.setupS)*tunerDefaults.WarmupSteps
	offline := &node{Name: "tune.offline", Source: "span", Count: tn.offlineIters, BusyMs: 1e3 * tn.offlineS,
		Children: []*node{rung("core.offline_iter_ms", trained, 1,
			rung("sparksim.evaluate_us", trained, usToMs),
			rung("rl.rdper_add_ns", trained, nsToMs),
			rung("rl.rdper_sample_us", trained, usToMs),
			trainTree("rl.train_step_ms", trained))}}
	steps := len(tn.recommendMs)
	var recommend float64
	for _, v := range tn.recommendMs {
		recommend += v
	}
	// Four of an online session's five steps train (the first has a single
	// transition), on the few transitions the session has seen.
	online := &node{Name: "tune.online_step", Source: "span", Count: steps, BusyMs: recommend,
		Children: []*node{
			rung("core.suggest_us", steps, usToMs),
			rung("sparksim.evaluate_us", steps, usToMs),
			rung("rl.train_step_small_ms", steps*4/5*tunerDefaults.FineTuneIters, 1),
		}}
	tune := sumNode("tune.pipeline", tn.ops, offline, online)

	resumes, rounds := la["life.resume"].count(), la["life.round"].count()
	handoffs, creates := la["life.handoff"].count(), la["life.create"].count()
	life := sumNode("life.cycles", lf.cycles/2,
		spanNode("warehouse.open", la["warehouse.open"]),
		spanNode("life.resume", la["life.resume"],
			spanNode("store.load", la["life.resume>store.load"]),
			rung("core.restore_ms", resumes, 1)),
		spanNode("life.round", la["life.round"],
			ladderNode("service.manager_round", rounds, lad[managerRoundSpine]),
			spanNode("store.save", la["life.round>store.save"])),
		spanNode("life.handoff", la["life.handoff"],
			rung("core.snapshot_encode_ms", 2*handoffs, 1),
			rung("service.verify_ms", handoffs, 1),
			rung("core.restore_ms", handoffs, 1),
			spanNode("store.save", la["life.handoff>store.save"])),
		spanNode("life.create", la["life.create"],
			rung("core.new_ms", creates, 1),
			rung("core.snapshot_encode_ms", creates, 1),
			spanNode("store.save", la["life.create>store.save"])))

	root := sumNode("run", 1, serve, tune, life)
	root.finish()
	return root
}
