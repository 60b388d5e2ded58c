package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"deepcat/internal/cli"
	"deepcat/internal/core"
	"deepcat/internal/mat"
	"deepcat/internal/nn"
	"deepcat/internal/rl"
	"deepcat/internal/service"
	"deepcat/internal/spine"
	"deepcat/internal/trace"
	"deepcat/internal/warehouse"
)

// The ladder measures the layers the daemon does not expose. It replays the
// calls the workloads make, one rung at a time, against the public API of
// replicas, single goroutine, and reports a mean per call. Two replicas:
// a session tuner, cold-started and fed the history a served session has
// half way through its timed rounds (so Twin-Q search length, buffer size
// and checkpoint size match what the spans saw), and an offline-trained
// tuner with a full replay buffer for the training rungs. Rung names are
// per-layer metric names; the ledger multiplies them by how often a parent
// makes the call.
type ladderOut map[string]float64

// managerRoundSpine is the ladder's one unreported rung: the Manager round
// in spine mode, which the lifecycle subtree needs on every workload.
const managerRoundSpine = "service.manager_round_ms(spine)"

// perCall times n calls of fn after n/10+1 warm-up calls.
func perCall(n int, fn func()) time.Duration {
	for i := 0; i < n/10+1; i++ {
		fn()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// twinqChunk is the Twin-Q search's first chunk: the raw recommendation plus
// seven perturbations, one SIMD lane group.
const twinqChunk = 8

// trainedHistory is how many of the session replica's observations train
// inline when the workload's daemon does: enough to fill a 32-batch. The
// rest are recorded without training, which leaves buffer and checkpoint
// size right at a fraction of the cost.
var trainedHistory = tunerDefaults.BatchSize + 2

// runLadder climbs every rung. spineMode is the workload's daemon mode,
// history the observations the session replica is given, scale a multiplier
// on every rung's iteration count (-smoke lowers it).
func runLadder(root string, seed int64, spineMode bool, history int, scale float64) (ladderOut, error) {
	n := func(base int) int { return max(2, int(float64(base)*scale)) }
	out := ladderOut{}
	// Rungs run inside perCall closures; the first error any of them hits is
	// kept and fails the ladder once it has finished.
	var first error
	try := func(err error) {
		if first == nil {
			first = err
		}
	}
	rng := rand.New(rand.NewSource(seed))

	e, err := cli.BuildEnv("a", "WC", 2, seed)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(e.StateDim(), e.Space().Dim())
	def := e.DefaultTime()
	action := e.Space().RandomAction(rng)
	out["sparksim.evaluate_us"] = us(perCall(n(2000), func() { e.Evaluate(action) }))
	out["core.new_ms"] = ms(perCall(n(10), func() {
		_, err := core.New(rand.New(rand.NewSource(seed)), cfg)
		try(err)
	}))

	// The session replica.
	sess, err := core.New(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		return nil, err
	}
	state, prev := e.IdleState(), def
	for i := 0; i < history; i++ {
		a, _ := sess.SuggestWithStats(state, false)
		o := e.Evaluate(a)
		if spineMode || i >= trainedHistory {
			sess.ObserveNoTrain(state, a, o.ExecTime, prev, def, o.State, false)
		} else {
			sess.Observe(state, a, o.ExecTime, prev, def, o.State, false)
		}
		state, prev = o.State, o.ExecTime
	}

	// Suggest and what it is made of.
	out["core.suggest_us"] = us(perCall(n(2000), func() { sess.SuggestWithStats(state, false) }))
	sess.SetRecorder(trace.NewSession(trace.Options{RingSize: serveTraceRing}))
	out["core.suggest_traced_us"] = us(perCall(n(2000), func() { sess.SuggestWithStats(state, false) }))
	sess.SetRecorder(nil)
	out["trace.recorder_overhead_pct"] = 100 * (out["core.suggest_traced_us"] - out["core.suggest_us"]) / out["core.suggest_us"]

	ar := nn.NewArena()
	dst := make([]float64, cfg.TD3.ActionDim)
	out["rl.act_us"] = us(perCall(n(5000), func() { sess.Agent.ActTo(ar, state, dst) }))

	cands := mat.RandVec(rng, twinqChunk*cfg.TD3.ActionDim, 0, 1)
	q1, q2 := make([]float64, twinqChunk), make([]float64, twinqChunk)
	qb := sess.Agent.NewQBatch()
	qb.SetState(state)
	out["rl.qbatch_score_us"] = us(perCall(n(5000), func() { qb.Score(ar, cands, twinqChunk, q1, q2) }))

	critic := sess.Agent.Critic1
	in := critic.InSize()
	xs := mat.RandVec(rng, twinqChunk*in, 0, 1)
	out["nn.forward_batch_us"] = us(perCall(n(5000), func() { critic.ForwardBatch(ar, xs, twinqChunk, q1) }))

	l0 := critic.Layers[0]
	xt := make([]float64, in*twinqChunk)
	nn.PackLanes(xt, xs, in, twinqChunk, twinqChunk)
	lanes := make([]float64, l0.W.Rows*twinqChunk)
	opt := mat.LaneOpts{Bias: l0.B, ReLU: true}
	out["mat.mul_lanes_ns"] = float64(perCall(n(20000), func() { l0.W.MulLanes(lanes, xt, twinqChunk, twinqChunk, opt) }).Nanoseconds())
	out["mat.mul_lanes_flops"] = float64(2 * l0.W.Rows * l0.W.Cols * twinqChunk)

	// The scalar network path training uses.
	x := xs[:in]
	out["nn.forward_us"] = us(perCall(n(5000), func() { critic.Forward(x) }))
	net := critic.Clone()
	grads := net.NewGrads()
	one := []float64{1}
	out["nn.forward_backward_us"] = us(perCall(n(5000), func() { net.Backward(net.ForwardTape(x), one, grads) }))
	adam := nn.NewAdam(net, 1e-3)
	out["nn.adam_step_us"] = us(perCall(n(2000), func() { adam.Step(net, grads, 1) }))
	target := net.Clone()
	out["nn.soft_update_us"] = us(perCall(n(2000), func() { target.SoftUpdate(net, 0.005) }))

	// Checkpoint encode and decode of the session replica, and Observe on a
	// restored copy of it (so the rungs below do not grow the original).
	var enc bytes.Buffer
	out["core.snapshot_encode_ms"] = ms(perCall(n(30), func() {
		enc.Reset()
		snap, err := sess.Snapshot()
		if err == nil {
			err = snap.Encode(&enc)
		}
		try(err)
	}))
	out["core.snapshot_bytes"] = float64(enc.Len())
	blob := append([]byte(nil), enc.Bytes()...)
	var copyOf *core.DeepCAT
	out["core.restore_ms"] = ms(perCall(n(30), func() {
		snap, err := core.DecodeSnapshot(bytes.NewReader(blob))
		if err == nil {
			copyOf, err = core.Restore(snap)
		}
		try(err)
	}))
	if first != nil {
		return nil, first
	}
	out["core.observe_inline_ms"] = ms(perCall(n(12), func() { copyOf.Observe(state, action, def, def, def, state, false) }))
	out["core.observe_notrain_us"] = us(perCall(n(2000), func() { copyOf.ObserveNoTrain(state, action, def, def, def, state, false) }))

	// The offline-trained replica: an offline iteration, the replay buffer
	// and the train step on full batches.
	off, err := core.New(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		return nil, err
	}
	off.OfflineTrain(e, n(200)+cfg.WarmupSteps, nil)
	iters := n(150)
	start := time.Now()
	off.OfflineTrain(e, iters, nil)
	out["core.offline_iter_ms"] = ms(time.Since(start)) / float64(iters)

	trs, err := rl.ExportTransitions(off.Buffer)
	if err != nil {
		return nil, err
	}
	buf := rl.NewRDPER(cfg.ReplayCapacity, cfg.RewardThreshold, cfg.Beta)
	for _, tr := range trs {
		buf.Add(tr)
	}
	out["rl.rdper_add_ns"] = float64(perCall(n(20000), func() { buf.Add(trs[0]) }).Nanoseconds())
	out["rl.rdper_sample_us"] = us(perCall(n(5000), func() { buf.Sample(rng, cfg.BatchSize) }))
	batch := buf.Sample(rng, cfg.BatchSize)
	steps := n(100)
	off.Agent.Train(rng, batch)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	for i := 0; i < steps; i++ {
		off.Agent.Train(rng, batch)
	}
	out["rl.train_step_ms"] = ms(time.Since(start)) / float64(steps)
	runtime.ReadMemStats(&m1)
	out["rl.train_step_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(steps)
	// An online session trains on the two to five transitions it has seen.
	small := 0
	out["rl.train_step_small_ms"] = ms(perCall(n(400), func() {
		off.Agent.Train(rng, rl.Batch{Transitions: batch.Transitions[:2+small%4]})
		small++
	}))

	// The Manager round over a MemStore: the service layer without disk or
	// HTTP, in the daemon mode the workload runs and in spine mode.
	var ckpt []byte
	managerRound := func(spineMode bool) (float64, error) {
		mem := service.NewMemStore()
		var sp *spine.Spine
		rounds := n(12)
		if spineMode {
			sp = newSpine(nil, false)
			defer sp.Close()
			rounds = n(300)
		}
		mgr := newManager(mem, nil, sp)
		spec := sessionPlan("r", seed, 1)[0]
		if _, err := mgr.Create(spec.createRequest()); err != nil {
			return 0, err
		}
		re, err := cli.BuildEnv("a", spec.Workload, spec.Input, spec.Seed)
		if err != nil {
			return 0, err
		}
		replica := &tuned{spec: spec, env: re}
		var t tally
		for i := 0; i < trainedHistory; i++ {
			managerRoundTrip(mgr, replica, &t)
		}
		per := ms(perCall(rounds, func() { managerRoundTrip(mgr, replica, &t) }))
		if t.failed > 0 {
			return 0, fmt.Errorf("replica manager rounds: %v", t.notes)
		}
		ckpt, err = mem.Load(spec.ID)
		return per, err
	}
	if out[managerRoundSpine], err = managerRound(true); err != nil {
		return nil, err
	}
	out["service.manager_round_ms"] = out[managerRoundSpine]
	if !spineMode {
		if out["service.manager_round_ms"], err = managerRound(false); err != nil {
			return nil, err
		}
	}
	out["service.verify_ms"] = ms(perCall(n(30), func() { try(service.VerifyCheckpoint(ckpt)) }))

	// The spine on its own: ingest, sample and one learner pass.
	lone := newSpine(nil, false)
	defer lone.Close()
	const fam = "a.WC.2"
	out["spine.ingest_ns"] = float64(perCall(n(20), func() { lone.Ingest(fam, trs) }).Nanoseconds()) / float64(len(trs))
	var sb rl.Batch
	out["spine.sample_us"] = us(perCall(n(5000), func() { lone.Sample(fam, rng, cfg.BatchSize, &sb) }))
	out["spine.train_pass_ms"] = ms(perCall(n(15), func() {
		_, err := lone.TrainFamily(fam, spineLearnIters)
		try(err)
	}))

	// The warehouse on its own: the append path. Reopening is timed in
	// place by the lifecycle phase.
	whDir := filepath.Join(root, "ladder-wh")
	defer os.RemoveAll(whDir)
	wh, err := warehouse.Open(warehouse.Options{Dir: whDir})
	if err != nil {
		return nil, err
	}
	rec := warehouse.Record{Signature: fam, Session: "ladder", Transition: trs[0]}
	out["warehouse.append_us"] = us(perCall(n(2000), func() { try(wh.Append(rec)) }))
	try(wh.Close())
	return out, first
}
