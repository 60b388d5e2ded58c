package core

import (
	"context"
	"fmt"
	"math/rand"

	"deepcat/internal/env"
	"deepcat/internal/mat"
	"deepcat/internal/rl"
	"deepcat/internal/trace"
)

// Config collects DeepCAT's hyper-parameters. Zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// SpeedupTarget sets the expected performance of Eq. (1):
	// perf_e = defaultTime / SpeedupTarget.
	SpeedupTarget float64
	// RewardMode selects the reward function: "immediate" (Eq. 1, the
	// paper's choice, default) or "delta" (the CDBTune-style formula, for
	// the reward-function ablation).
	RewardMode string
	// RewardThreshold is RDPER's R_th: transitions with reward >= R_th
	// land in the high-reward pool.
	RewardThreshold float64
	// Beta is RDPER's high-reward batch ratio (Fig. 11; paper picks 0.6).
	Beta float64
	// ReplayMode selects the experience replay mechanism: "rdper" (the
	// paper's contribution, default), "uniform" (conventional ER, the
	// Fig. 4 baseline) or "per" (TD-error prioritized replay, for
	// ablations against CDBTune's mechanism).
	ReplayMode string
	// ReplayCapacity bounds each RDPER pool.
	ReplayCapacity int
	// BatchSize is the training mini-batch size.
	BatchSize int
	// WarmupSteps is the number of random-action environment steps
	// collected before gradient updates begin.
	WarmupSteps int
	// ExploreSigma is the offline exploration noise on actor outputs.
	ExploreSigma float64
	// EpisodeLen is the number of tuning steps per offline episode; the
	// final step of each episode is terminal.
	EpisodeLen int

	// OnlineSteps is the online fine-tuning step budget (the paper uses 5,
	// following CDBTune).
	OnlineSteps int
	// FineTuneIters is the number of gradient updates after each online
	// evaluation.
	FineTuneIters int
	// RecoverySigma is the Gaussian exploration noise added to the actor
	// output on the step after a failed evaluation, so the tuner escapes
	// failure regions the offline model did not know about (workload or
	// hardware shift). Zero disables recovery noise.
	RecoverySigma float64

	// TwinQ configures the Twin-Q Optimizer; UseTwinQ disables it for
	// ablations when false.
	TwinQ    TwinQOptimizer
	UseTwinQ bool

	// TD3 configures the agent. StateDim/ActionDim are filled in by New.
	TD3 rl.TD3Config
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig(stateDim, actionDim int) Config {
	td3 := rl.DefaultTD3Config(stateDim, actionDim)
	td3.Hidden = []int{64, 64}
	return Config{
		SpeedupTarget:   3,
		RewardThreshold: 0,
		Beta:            0.6,
		ReplayCapacity:  100000,
		BatchSize:       32,
		WarmupSteps:     64,
		ExploreSigma:    0.15,
		EpisodeLen:      5,
		OnlineSteps:     5,
		FineTuneIters:   24,
		RecoverySigma:   0.25,
		TwinQ:           *NewTwinQOptimizer(),
		UseTwinQ:        true,
		TD3:             td3,
	}
}

// DeepCAT is the tuner: a TD3 agent, an RDPER buffer, and the Twin-Q
// Optimizer, wired to the offline-training and online-tuning procedures of
// the paper's Fig. 1 architecture.
type DeepCAT struct {
	Cfg    Config
	Agent  *rl.TD3
	Buffer rl.Sampler
	rng    *rand.Rand
	// rec, when non-nil, receives the flight-recorder event stream:
	// suggest/observe/train spans, every Twin-Q candidate scored, reward
	// decompositions. Tracing is strictly passive — it consumes no
	// randomness and never alters tuning decisions (the determinism
	// regression test asserts identical action sequences with it on and
	// off). Not serialized: snapshots and clones start untraced.
	rec trace.Recorder
	// scratch holds the reusable arena and candidate buffers of the batched
	// Suggest path, built lazily on first use. It carries no tuner state —
	// only workspace — so it is not serialized; snapshots and clones start
	// with a cold scratch and warm it on their first Suggest. Access is
	// guarded by whatever serializes Suggest calls (the tuning service's
	// per-session mutex).
	scratch *twinqScratch
}

// SetRecorder attaches a flight recorder to the tuner (nil detaches). When
// the replay buffer is an RDPER it is wired too, so routing decisions land
// in the same stream. A nil *trace.Session behind the interface is
// normalized to a plain nil so the untraced fast path stays a nil check.
func (d *DeepCAT) SetRecorder(rec trace.Recorder) {
	if s, ok := rec.(*trace.Session); ok && s == nil {
		rec = nil
	}
	d.rec = rec
	if rd, ok := d.Buffer.(*rl.RDPER); ok {
		rd.Rec = rec
	}
}

// New constructs a DeepCAT tuner with freshly initialized networks.
func New(rng *rand.Rand, cfg Config) (*DeepCAT, error) {
	if cfg.SpeedupTarget <= 0 {
		return nil, fmt.Errorf("core: non-positive speedup target %g", cfg.SpeedupTarget)
	}
	if cfg.EpisodeLen <= 0 || cfg.OnlineSteps <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("core: non-positive step configuration %+v", cfg)
	}
	if cfg.RewardMode != "" && cfg.RewardMode != "immediate" && cfg.RewardMode != "delta" {
		return nil, fmt.Errorf("core: unknown reward mode %q", cfg.RewardMode)
	}
	agent, err := rl.NewTD3(rng, cfg.TD3)
	if err != nil {
		return nil, err
	}
	buf, err := newBuffer(cfg)
	if err != nil {
		return nil, err
	}
	return &DeepCAT{
		Cfg:    cfg,
		Agent:  agent,
		Buffer: buf,
		rng:    rng,
	}, nil
}

// newBuffer builds the replay buffer selected by cfg.ReplayMode.
func newBuffer(cfg Config) (rl.Sampler, error) {
	switch cfg.ReplayMode {
	case "", "rdper":
		return rl.NewRDPER(cfg.ReplayCapacity, cfg.RewardThreshold, cfg.Beta), nil
	case "uniform":
		return rl.NewUniformReplay(cfg.ReplayCapacity), nil
	case "per":
		return rl.NewPrioritizedReplay(cfg.ReplayCapacity), nil
	default:
		return nil, fmt.Errorf("core: unknown replay mode %q", cfg.ReplayMode)
	}
}

// IterStat records one offline training iteration for analysis (Fig. 3).
type IterStat struct {
	Reward float64
	Q1, Q2 float64
	MinQ   float64
}

// TrainTrace is the record of an offline training run.
type TrainTrace struct {
	Iters []IterStat
	// HighPool and LowPool are the final RDPER pool sizes.
	HighPool, LowPool int
}

// OfflineTrain interacts with e for the given number of environment steps,
// training after every step once the warmup is collected. It implements the
// offline training stage of Fig. 1: episodes of EpisodeLen steps, Gaussian
// exploration noise, RDPER storage, TD3 updates. The returned trace holds
// per-iteration rewards and twin-critic values for the evaluated action.
//
// Checkpoints, if non-nil, is called after each iteration with the 1-based
// iteration number; harnesses use it to snapshot the policy at intervals
// (Fig. 4) without retraining from scratch.
func (d *DeepCAT) OfflineTrain(e env.Environment, iters int, checkpoint func(iter int)) TrainTrace {
	trace := TrainTrace{Iters: make([]IterStat, 0, iters)}
	state := e.IdleState()
	defTime := e.DefaultTime()
	prevTime := defTime
	stepInEp := 0
	for it := 1; it <= iters; it++ {
		var action []float64
		if d.Buffer.Len() < d.Cfg.WarmupSteps {
			action = e.Space().RandomAction(d.rng)
		} else {
			action = d.Agent.ActNoisy(d.rng, state, d.Cfg.ExploreSigma)
		}
		outcome := e.Evaluate(action)
		r := d.reward(outcome.ExecTime, prevTime, defTime)
		stepInEp++
		done := stepInEp >= d.Cfg.EpisodeLen
		d.Buffer.Add(rl.Transition{
			State:     state,
			Action:    action,
			Reward:    r,
			NextState: outcome.State,
			Done:      done,
		})
		q1, q2 := d.Agent.QValues(state, action)
		trace.Iters = append(trace.Iters, IterStat{Reward: r, Q1: q1, Q2: q2, MinQ: minF(q1, q2)})

		if done {
			state = e.IdleState()
			prevTime = defTime
			stepInEp = 0
		} else {
			state = outcome.State
			prevTime = outcome.ExecTime
		}
		if d.Buffer.Len() >= d.Cfg.WarmupSteps {
			d.trainOnce(d.Cfg.BatchSize)
		}
		if checkpoint != nil {
			checkpoint(it)
		}
	}
	if rd, ok := d.Buffer.(*rl.RDPER); ok {
		trace.HighPool = rd.HighLen()
		trace.LowPool = rd.LowLen()
	}
	return trace
}

// trainOnce samples a batch, performs one TD3 update and refreshes
// priorities when the buffer is TD-error prioritized.
func (d *DeepCAT) trainOnce(batchSize int) {
	sp := trace.Begin(d.rec, "train_once")
	batch := d.Buffer.Sample(d.rng, batchSize)
	if batch.Len() == 0 {
		if sp != nil {
			sp.AttrInt("batch", 0).End()
		}
		return
	}
	stats := d.Agent.Train(d.rng, batch)
	if ps, ok := d.Buffer.(rl.PrioritySampler); ok {
		ps.UpdatePriorities(batch.Indices, stats.TDErrors)
	}
	if sp != nil {
		sp.AttrInt("batch", batch.Len()).
			AttrFloat("critic_loss", stats.CriticLoss).
			AttrFloat("mean_q", stats.MeanQ).
			AttrBool("actor_updated", stats.ActorUpdated).
			End()
	}
}

// Clone returns a deep copy of the tuner (networks and configuration; the
// replay buffer is shared structurally but re-created empty). Harnesses use
// clones to run independent online tuning sessions from one offline model.
func (d *DeepCAT) Clone() *DeepCAT {
	buf, err := newBuffer(d.Cfg)
	if err != nil {
		panic(err) // the config was already validated in New
	}
	c := &DeepCAT{
		Cfg:    d.Cfg,
		rng:    rand.New(rand.NewSource(d.rng.Int63())),
		Buffer: buf,
	}
	agent, err := rl.NewTD3(c.rng, d.Cfg.TD3)
	if err != nil {
		panic(err) // the config was already validated in New
	}
	agent.Actor.CopyFrom(d.Agent.Actor)
	agent.ActorTarget.CopyFrom(d.Agent.ActorTarget)
	agent.Critic1.CopyFrom(d.Agent.Critic1)
	agent.Critic2.CopyFrom(d.Agent.Critic2)
	agent.Critic1T.CopyFrom(d.Agent.Critic1T)
	agent.Critic2T.CopyFrom(d.Agent.Critic2T)
	c.Agent = agent
	return c
}

// SuggestStats reports how the Twin-Q Optimizer treated one suggestion:
// how many candidate actions it scored (1 when the raw recommendation
// passed Q_th immediately) and whether the raw recommendation was rejected
// and replaced by a perturbation. The observability layer aggregates these
// into the fleet-wide rejection rate — the paper's measure of how many
// sub-optimal configurations were never paid for with a real run.
type SuggestStats struct {
	// Tries is the number of candidate actions the twin critics scored.
	Tries int
	// Optimized reports that the raw actor output scored below Q_th and a
	// perturbed action was returned instead.
	Optimized bool
}

// Suggest proposes the next configuration for the given system state: the
// actor's deterministic action (or a recovery-noise perturbation when the
// previous evaluation failed), repaired by the Twin-Q Optimizer when its
// twin-critic score falls below Q_th. This is one half of the incremental
// online-tuning API used by the tuning service; env.RunOnline composes it
// with Learn into the paper's closed loop.
func (d *DeepCAT) Suggest(state []float64, lastFailed bool) (action []float64, optimized bool) {
	action, st := d.SuggestWithStats(state, lastFailed)
	return action, st.Optimized
}

// SuggestWithStats is Suggest plus the Twin-Q search statistics; the
// tuning service uses it to feed perturbation/rejection metrics.
func (d *DeepCAT) SuggestWithStats(state []float64, lastFailed bool) ([]float64, SuggestStats) {
	sp := trace.Begin(d.rec, "suggest")
	if d.scratch == nil {
		d.scratch = newTwinqScratch()
	}
	recovery := lastFailed && d.Cfg.RecoverySigma > 0
	// The actor runs through the arena-backed batched path (bit-identical
	// to Act/ActNoisy, including the recovery-noise draw order) so the hot
	// loop allocates nothing but the returned action.
	action := d.scratch.action(d.Cfg.TD3.ActionDim)
	d.Agent.ActTo(d.scratch.ar, state, action)
	if recovery {
		for i := range action {
			action[i] = mat.Clip(action[i]+d.Cfg.RecoverySigma*d.rng.NormFloat64(), 0, 1)
		}
	}
	st := SuggestStats{Tries: 1}
	if d.Cfg.UseTwinQ {
		action, st.Tries, st.Optimized = d.Cfg.TwinQ.optimize(d.rng, d.Agent, state, action, d.rec, d.scratch)
	} else {
		action = mat.CloneSlice(action)
	}
	if sp != nil {
		sp.AttrBool("recovery", recovery).
			AttrInt("tries", st.Tries).
			AttrBool("optimized", st.Optimized).
			End()
	}
	return action, st
}

// Observe records a measured outcome for a previously suggested action and
// fine-tunes the agent on the new experience. state is the system state the
// action was suggested for, nextState the post-run state, execTime the
// measured runtime, and prevTime/defTime the previous and default runtimes
// that parameterize the reward. It returns the reward assigned to the
// transition. This is the other half of the incremental API; callers that
// own the evaluation loop (e.g. an external job scheduler talking to the
// tuning service) alternate Suggest and Observe.
func (d *DeepCAT) Observe(state, action []float64, execTime, prevTime, defTime float64, nextState []float64, done bool) float64 {
	return d.observe(state, action, execTime, prevTime, defTime, nextState, done, true)
}

// ObserveNoTrain records the outcome exactly like Observe — same reward,
// same trace events, same replay append — but skips the inline fine-tune
// iterations. Sessions in actor/learner (spine) mode use it: the transition
// still lands in the local replay (keeping checkpoints self-contained and
// the inline fallback warm), while gradient work moves to the shared
// learner pool.
func (d *DeepCAT) ObserveNoTrain(state, action []float64, execTime, prevTime, defTime float64, nextState []float64, done bool) float64 {
	return d.observe(state, action, execTime, prevTime, defTime, nextState, done, false)
}

func (d *DeepCAT) observe(state, action []float64, execTime, prevTime, defTime float64, nextState []float64, done, train bool) float64 {
	sp := trace.Begin(d.rec, "observe")
	r := d.reward(execTime, prevTime, defTime)
	if d.rec != nil {
		rb := &trace.RewardBreakdown{
			Mode:     "immediate",
			ExecTime: execTime,
			PrevTime: prevTime,
			DefTime:  defTime,
			Reward:   r,
		}
		if d.Cfg.RewardMode == "delta" {
			rb.Mode = "delta"
		} else {
			rb.SpeedupTarget = d.Cfg.SpeedupTarget
			rb.PerfE = defTime / d.Cfg.SpeedupTarget
		}
		d.rec.Emit(trace.Event{Kind: trace.KindReward, Reward: rb})
	}
	d.Buffer.Add(rl.Transition{
		State:     state,
		Action:    action,
		Reward:    r,
		NextState: nextState,
		Done:      done,
	})
	if train {
		for i := 0; i < d.Cfg.FineTuneIters && d.Buffer.Len() >= 2; i++ {
			d.trainOnce(min(d.Cfg.BatchSize, d.Buffer.Len()))
		}
	}
	if sp != nil {
		sp.AttrFloat("reward", r).AttrFloat("exec_time", execTime).End()
	}
	return r
}

// Learn is Observe for an accepted online step, making DeepCAT an
// env.Tuner.
func (d *DeepCAT) Learn(o env.Observation) {
	d.Observe(o.State, o.Action, o.Outcome.ExecTime, o.PrevTime, o.DefTime, o.Outcome.State, o.Done)
}

// OnlineTune runs the online tuning stage on environment e for
// Cfg.OnlineSteps steps through the classic env.RunOnline loop: at each
// step the actor proposes a configuration for the current state, the
// Twin-Q Optimizer repairs it if its twin-critic score is sub-optimal, the
// result is evaluated, and the agent is fine-tuned on the new experience.
func (d *DeepCAT) OnlineTune(e env.Environment) *env.Report {
	rep, _ := env.RunOnline(context.Background(), d, e, env.Loop{Steps: d.Cfg.OnlineSteps, Rec: d.rec})
	rep.Tuner = "DeepCAT"
	return rep
}

// reward dispatches on Cfg.RewardMode.
func (d *DeepCAT) reward(execTime, prevTime, defTime float64) float64 {
	if d.Cfg.RewardMode == "delta" {
		return DeltaReward(execTime, prevTime, defTime)
	}
	return Reward(execTime, defTime, d.Cfg.SpeedupTarget)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
