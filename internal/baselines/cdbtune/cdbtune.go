// Package cdbtune implements the CDBTune baseline (Zhang et al., SIGMOD
// 2019) as the paper evaluates it: a DDPG agent with TD-error prioritized
// experience replay, trained offline and fine-tuned online for five steps
// per tuning request. Two deliberate differences from DeepCAT follow the
// paper's analysis (§3, §5.2):
//
//   - the agent is single-critic DDPG, so it inherits the Q-value
//     overestimation TD3 was designed to remove;
//   - replay is prioritized by TD error (information gain), not by reward,
//     so the sparse high-reward transitions are not guaranteed replay share;
//   - the reward is CDBTune's own delta-based formula, which targets
//     eventual improvement rather than DeepCAT's per-action immediate
//     objective, and there is no Twin-Q Optimizer, so every recommended
//     action — good or bad — is paid for with a real evaluation.
package cdbtune

import (
	"context"
	"fmt"
	"math/rand"

	"deepcat/internal/core"
	"deepcat/internal/env"
	"deepcat/internal/rl"
)

// Config collects CDBTune's hyper-parameters.
type Config struct {
	// ReplayCapacity bounds the prioritized replay buffer.
	ReplayCapacity int
	// BatchSize is the training mini-batch size.
	BatchSize int
	// WarmupSteps is the number of random-action steps before training.
	WarmupSteps int
	// ExploreSigma is the offline exploration noise.
	ExploreSigma float64
	// EpisodeLen is the offline episode length.
	EpisodeLen int
	// OnlineSteps is the online fine-tuning budget (5 in the paper).
	OnlineSteps int
	// FineTuneIters is the number of gradient updates per online step.
	FineTuneIters int
	// RecoverySigma is exploration noise after a failed online step.
	RecoverySigma float64
	// DDPG configures the agent.
	DDPG rl.DDPGConfig
}

// DefaultConfig mirrors DeepCAT's defaults wherever the approaches share a
// knob, so comparisons isolate the algorithmic differences.
func DefaultConfig(stateDim, actionDim int) Config {
	d := rl.DefaultDDPGConfig(stateDim, actionDim)
	d.Hidden = []int{64, 64}
	return Config{
		ReplayCapacity: 100000,
		BatchSize:      32,
		WarmupSteps:    64,
		ExploreSigma:   0.15,
		EpisodeLen:     5,
		OnlineSteps:    5,
		FineTuneIters:  24,
		RecoverySigma:  0.25,
		DDPG:           d,
	}
}

// CDBTune is the baseline tuner.
type CDBTune struct {
	Cfg    Config
	Agent  *rl.DDPG
	Buffer *rl.PrioritizedReplay
	rng    *rand.Rand
}

// New constructs a CDBTune tuner.
func New(rng *rand.Rand, cfg Config) (*CDBTune, error) {
	if cfg.EpisodeLen <= 0 || cfg.OnlineSteps <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("cdbtune: non-positive step configuration")
	}
	agent, err := rl.NewDDPG(rng, cfg.DDPG)
	if err != nil {
		return nil, err
	}
	return &CDBTune{
		Cfg:    cfg,
		Agent:  agent,
		Buffer: rl.NewPrioritizedReplay(cfg.ReplayCapacity),
		rng:    rng,
	}, nil
}

// Reward is CDBTune's delta-based reward for an execution-time metric:
// improvement over the initial (default) time and over the previous step's
// time are combined so that sustained progress is amplified. With
// delta0 = (T0-Tt)/T0 and deltaP = (Tp-Tt)/Tp:
//
//	r = ((1+delta0)^2 - 1) * |1+deltaP|   when delta0 > 0
//	r = -((1-delta0)^2 - 1) * |1-deltaP|  otherwise
//
// This is the "eventual optimum" objective the DeepCAT paper contrasts with
// its immediate per-action reward (Eq. 1).
func Reward(execTime, prevTime, defaultTime float64) float64 {
	return core.DeltaReward(execTime, prevTime, defaultTime)
}

// OfflineTrain interacts with e for iters environment steps, training DDPG
// with TD-error PER after each step once warm.
func (c *CDBTune) OfflineTrain(e env.Environment, iters int) {
	state := e.IdleState()
	defTime := e.DefaultTime()
	prevTime := defTime
	stepInEp := 0
	for it := 1; it <= iters; it++ {
		var action []float64
		if c.Buffer.Len() < c.Cfg.WarmupSteps {
			action = e.Space().RandomAction(c.rng)
		} else {
			action = c.Agent.ActNoisy(c.rng, state, c.Cfg.ExploreSigma)
		}
		outcome := e.Evaluate(action)
		r := Reward(outcome.ExecTime, prevTime, defTime)
		stepInEp++
		done := stepInEp >= c.Cfg.EpisodeLen
		c.Buffer.Add(rl.Transition{
			State:     state,
			Action:    action,
			Reward:    r,
			NextState: outcome.State,
			Done:      done,
		})
		if done {
			state = e.IdleState()
			prevTime = defTime
			stepInEp = 0
		} else {
			state = outcome.State
			prevTime = outcome.ExecTime
		}
		if c.Buffer.Len() >= c.Cfg.WarmupSteps {
			batch := c.Buffer.Sample(c.rng, c.Cfg.BatchSize)
			stats := c.Agent.Train(c.rng, batch)
			c.Buffer.UpdatePriorities(batch.Indices, stats.TDErrors)
		}
	}
}

// Clone returns an independent copy with the same weights and an empty
// buffer.
func (c *CDBTune) Clone() *CDBTune {
	out := &CDBTune{
		Cfg:    c.Cfg,
		rng:    rand.New(rand.NewSource(c.rng.Int63())),
		Buffer: rl.NewPrioritizedReplay(c.Cfg.ReplayCapacity),
	}
	agent, err := rl.NewDDPG(out.rng, c.Cfg.DDPG)
	if err != nil {
		panic(err) // config validated in New
	}
	agent.Actor.CopyFrom(c.Agent.Actor)
	agent.ActorTarget.CopyFrom(c.Agent.ActorTarget)
	agent.Critic.CopyFrom(c.Agent.Critic)
	agent.CriticT.CopyFrom(c.Agent.CriticT)
	out.Agent = agent
	return out
}

// Suggest is the actor's deterministic action, or a noisy one after a
// failed step so the tuner escapes the failure region.
func (c *CDBTune) Suggest(state []float64, lastFailed bool) ([]float64, bool) {
	if lastFailed && c.Cfg.RecoverySigma > 0 {
		return c.Agent.ActNoisy(c.rng, state, c.Cfg.RecoverySigma), false
	}
	return c.Agent.Act(state), false
}

// Learn stores the step's transition under CDBTune's reward and fine-tunes
// the agent with FineTuneIters prioritized updates.
func (c *CDBTune) Learn(o env.Observation) {
	c.Buffer.Add(rl.Transition{
		State:     o.State,
		Action:    o.Action,
		Reward:    Reward(o.Outcome.ExecTime, o.PrevTime, o.DefTime),
		NextState: o.Outcome.State,
		Done:      o.Done,
	})
	for i := 0; i < c.Cfg.FineTuneIters && c.Buffer.Len() >= 2; i++ {
		batch := c.Buffer.Sample(c.rng, min(c.Cfg.BatchSize, c.Buffer.Len()))
		stats := c.Agent.Train(c.rng, batch)
		c.Buffer.UpdatePriorities(batch.Indices, stats.TDErrors)
	}
}

// OnlineTune fine-tunes the offline model on environment e for the
// configured number of steps and reports the session. Every recommended
// action is evaluated for real — CDBTune has no mechanism to skip
// sub-optimal configurations, which is the cost gap DeepCAT's Twin-Q
// Optimizer targets.
func (c *CDBTune) OnlineTune(e env.Environment) *env.Report {
	rep, _ := env.RunOnline(context.Background(), c, e, env.Loop{Steps: c.Cfg.OnlineSteps})
	rep.Tuner = "CDBTune"
	return rep
}
