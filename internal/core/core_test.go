package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deepcat/internal/env"
	"deepcat/internal/mat"
	"deepcat/internal/rl"
	"deepcat/internal/sparksim"
)

func TestRewardFunction(t *testing.T) {
	// perf_e = 100/4 = 25s expected.
	if got := Reward(25, 100, 4); got != 0 {
		t.Fatalf("reward at expectation = %v, want 0", got)
	}
	if got := Reward(0, 100, 4); got != 1 {
		t.Fatalf("reward at zero time = %v, want 1", got)
	}
	if got := Reward(100, 100, 4); got != -3 {
		t.Fatalf("reward at default = %v, want -3", got)
	}
	// Faster is always better.
	if Reward(20, 100, 4) <= Reward(30, 100, 4) {
		t.Fatal("reward not monotone in execution time")
	}
}

func TestRewardRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		def := 10 + rng.Float64()*1000
		target := 1 + rng.Float64()*9
		tm := rng.Float64() * def * 2
		r := Reward(tm, def, target)
		back := RewardToTime(r, def, target)
		return math.Abs(back-tm) < 1e-9*(1+tm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func testEnv(t *testing.T, short string) *env.SparkEnv {
	t.Helper()
	sim := sparksim.NewSimulator(sparksim.ClusterA(), 1)
	w, err := sparksim.WorkloadByShort(short)
	if err != nil {
		t.Fatal(err)
	}
	return env.NewSparkEnv(sim, w, 0)
}

func newTuner(t *testing.T, e env.Environment, seed int64) *DeepCAT {
	t.Helper()
	cfg := DefaultConfig(e.StateDim(), e.Space().Dim())
	d, err := New(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig(9, 32)
	cfg.SpeedupTarget = 0
	if _, err := New(rng, cfg); err == nil {
		t.Fatal("zero speedup target accepted")
	}
	cfg = DefaultConfig(9, 32)
	cfg.EpisodeLen = 0
	if _, err := New(rng, cfg); err == nil {
		t.Fatal("zero episode length accepted")
	}
	cfg = DefaultConfig(9, 32)
	cfg.TD3.Gamma = 2
	if _, err := New(rng, cfg); err == nil {
		t.Fatal("invalid TD3 config accepted")
	}
}

func TestTwinQOptimizerAcceptsGoodAction(t *testing.T) {
	e := testEnv(t, "TS")
	d := newTuner(t, e, 2)
	opt := &TwinQOptimizer{QTh: -1e9, Sigma: 0.1, MaxTries: 8}
	s := e.IdleState()
	a := e.Space().DefaultAction()
	out, tries, optimized := opt.Optimize(rand.New(rand.NewSource(3)), d.Agent, s, a)
	if optimized || tries != 1 {
		t.Fatalf("good action modified: tries=%d optimized=%v", tries, optimized)
	}
	if mat.Dist2(out, a) != 0 {
		t.Fatal("accepted action differs from input")
	}
}

func TestTwinQOptimizerPerturbsBadAction(t *testing.T) {
	e := testEnv(t, "TS")
	d := newTuner(t, e, 4)
	opt := &TwinQOptimizer{QTh: 1e9, Sigma: 0.1, MaxTries: 16}
	s := e.IdleState()
	a := e.Space().DefaultAction()
	aCopy := mat.CloneSlice(a)
	out, tries, _ := opt.Optimize(rand.New(rand.NewSource(5)), d.Agent, s, a)
	if tries != 16 {
		t.Fatalf("tries = %d, want MaxTries", tries)
	}
	if mat.Dist2(a, aCopy) != 0 {
		t.Fatal("input action mutated")
	}
	// Unreachable threshold: returns the best-of-candidates.
	q1 := d.Agent.MinQ(s, out)
	q2 := d.Agent.MinQ(s, aCopy)
	if q1 < q2 {
		t.Fatalf("fallback action worse than input: %v < %v", q1, q2)
	}
	for _, x := range out {
		if x < 0 || x > 1 {
			t.Fatalf("perturbed action coordinate %v outside [0,1]", x)
		}
	}
}

func TestTwinQOptimizerReturnsBetterScoringAction(t *testing.T) {
	// With a reachable threshold, the returned action's min-Q must be
	// >= the input's min-Q: the optimizer never degrades an action.
	e := testEnv(t, "TS")
	d := newTuner(t, e, 6)
	rng := rand.New(rand.NewSource(7))
	opt := NewTwinQOptimizer()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := mat.RandVec(r, e.StateDim(), 0, 4)
		a := e.Space().RandomAction(r)
		before := d.Agent.MinQ(s, a)
		out, _, _ := opt.Optimize(rng, d.Agent, s, a)
		return d.Agent.MinQ(s, out) >= before-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOfflineTrainTrace(t *testing.T) {
	e := testEnv(t, "TS")
	d := newTuner(t, e, 8)
	var checkpoints []int
	trace := d.OfflineTrain(e, 120, func(it int) {
		if it%40 == 0 {
			checkpoints = append(checkpoints, it)
		}
	})
	if len(trace.Iters) != 120 {
		t.Fatalf("trace length %d", len(trace.Iters))
	}
	if trace.HighPool+trace.LowPool != 120 {
		t.Fatalf("pool accounting %d+%d != 120", trace.HighPool, trace.LowPool)
	}
	if len(checkpoints) != 3 {
		t.Fatalf("checkpoints = %v", checkpoints)
	}
	for _, it := range trace.Iters {
		if math.IsNaN(it.Reward) || math.IsNaN(it.MinQ) {
			t.Fatal("NaN in trace")
		}
		if it.MinQ != math.Min(it.Q1, it.Q2) {
			t.Fatal("MinQ inconsistent")
		}
	}
}

func TestOfflineTrainingImprovesPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping training test in -short mode")
	}
	e := testEnv(t, "TS")
	d := newTuner(t, e, 9)
	// Greedy policy before training: essentially random sigmoid outputs.
	sBefore := e.Evaluate(d.Agent.Act(e.IdleState()))
	d.OfflineTrain(e, 1500, nil)
	sAfter := e.Evaluate(d.Agent.Act(e.IdleState()))
	if sAfter.Failed {
		t.Fatal("trained policy recommends a failing config")
	}
	if sAfter.ExecTime >= sBefore.ExecTime && !sBefore.Failed {
		t.Fatalf("training did not improve policy: %.1f -> %.1f", sBefore.ExecTime, sAfter.ExecTime)
	}
	// The trained policy must clearly beat the default configuration.
	if sAfter.ExecTime > 0.7*e.DefaultTime() {
		t.Fatalf("trained policy %.1fs too close to default %.1fs", sAfter.ExecTime, e.DefaultTime())
	}
}

func TestOnlineTuneReport(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping training test in -short mode")
	}
	e := testEnv(t, "TS")
	d := newTuner(t, e, 10)
	d.OfflineTrain(e, 1200, nil)
	rep := d.Clone().OnlineTune(e)
	if rep.Tuner != "DeepCAT" {
		t.Fatalf("tuner name %q", rep.Tuner)
	}
	if len(rep.Steps) != d.Cfg.OnlineSteps {
		t.Fatalf("steps = %d, want %d", len(rep.Steps), d.Cfg.OnlineSteps)
	}
	if rep.BestTime >= e.DefaultTime() {
		t.Fatalf("online best %.1f not better than default %.1f", rep.BestTime, e.DefaultTime())
	}
	if rep.BestAction == nil {
		t.Fatal("no best action recorded")
	}
	// Re-evaluating the reported best action must reproduce a time close
	// to the reported best (within noise).
	check := e.Evaluate(rep.BestAction)
	if check.Failed || check.ExecTime > rep.BestTime*1.3 {
		t.Fatalf("best action does not reproduce: %.1f vs reported %.1f", check.ExecTime, rep.BestTime)
	}
	if rep.RecommendationCost() <= 0 {
		t.Fatal("recommendation time not measured")
	}
}

func TestOnlineTuneTimeBudget(t *testing.T) {
	e := testEnv(t, "TS")
	d := newTuner(t, e, 11)
	d.OfflineTrain(e, 80, nil)
	// The budget is exhausted after the first evaluation.
	rep, _ := env.RunOnline(context.Background(), d, e, env.Loop{Steps: d.Cfg.OnlineSteps, BudgetSeconds: 1})
	if len(rep.Steps) != 1 {
		t.Fatalf("budgeted run took %d steps, want 1", len(rep.Steps))
	}
}

func TestCloneIndependence(t *testing.T) {
	e := testEnv(t, "TS")
	d := newTuner(t, e, 12)
	d.OfflineTrain(e, 80, nil)
	c := d.Clone()
	s := e.IdleState()
	if mat.Dist2(d.Agent.Act(s), c.Agent.Act(s)) != 0 {
		t.Fatal("clone policy differs")
	}
	if c.Buffer.Len() != 0 {
		t.Fatal("clone inherited replay buffer contents")
	}
	// Training the clone must not move the original.
	before := d.Agent.Act(s)
	c.OfflineTrain(e, 80, nil)
	if mat.Dist2(d.Agent.Act(s), before) != 0 {
		t.Fatal("training the clone mutated the original")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	e := testEnv(t, "TS")
	d := newTuner(t, e, 13)
	d.OfflineTrain(e, 100, nil)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, 99)
	if err != nil {
		t.Fatal(err)
	}
	s := e.IdleState()
	if mat.Dist2(d.Agent.Act(s), got.Agent.Act(s)) > 1e-15 {
		t.Fatal("loaded policy differs")
	}
	a := e.Space().DefaultAction()
	if math.Abs(d.Agent.MinQ(s, a)-got.Agent.MinQ(s, a)) > 1e-12 {
		t.Fatal("loaded critics differ")
	}
}

func TestSaveLoadFile(t *testing.T) {
	e := testEnv(t, "TS")
	d := newTuner(t, e, 14)
	path := t.TempDir() + "/deepcat.model"
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path+".missing", 1); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("garbage"), 1); err == nil {
		t.Fatal("garbage model loaded")
	}
}

func TestRecoveryAfterFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping training test in -short mode")
	}
	// A model trained on WordCount (no caching) applied to PageRank
	// (cache-heavy) walks into OOM territory; with recovery noise and
	// fine-tuning it must still find a working configuration within the
	// online budget — the §5.3.1 adaptability scenario.
	sim := sparksim.NewSimulator(sparksim.ClusterA(), 1)
	wc, _ := sparksim.WorkloadByShort("WC")
	pr, _ := sparksim.WorkloadByShort("PR")
	eWC := env.NewSparkEnv(sim, wc, 0)
	ePR := env.NewSparkEnv(sim, pr, 0)
	d := newTuner(t, eWC, 15)
	d.OfflineTrain(eWC, 1500, nil)
	tuner := d.Clone()
	tuner.Cfg.OnlineSteps = 8
	rep := tuner.OnlineTune(ePR)
	if rep.BestTime >= ePR.DefaultTime() {
		t.Fatalf("cross-workload tuning found nothing better than default: %.1f vs %.1f",
			rep.BestTime, ePR.DefaultTime())
	}
}

func TestGobTD3ConfigRegistered(t *testing.T) {
	// Compile-time use of the registered type; guards the init().
	var cfg rl.TD3Config
	_ = cfg
}
