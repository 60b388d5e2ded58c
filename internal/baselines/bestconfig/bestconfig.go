// Package bestconfig implements the BestConfig baseline (Zhu et al., SoCC
// 2017), the search-based family the paper discusses in §1 and §6: divide-
// and-diverge sampling (DDS) over the configuration space followed by
// recursive bound-and-search (RBS) around the incumbent best point.
//
// The paper omits BestConfig from its head-to-head evaluation because
// search-based methods "need a large number of time-consuming configuration
// evaluations and restart from scratch whenever a new tuning request
// comes"; this implementation exists to make that argument measurable: the
// extension benchmarks run BestConfig at the DRL approaches' 5-step budget
// (where it barely improves on random sampling) and at several times that
// budget (where it becomes competitive but costs proportionally more).
package bestconfig

import (
	"context"
	"fmt"
	"math/rand"

	"deepcat/internal/env"
	"deepcat/internal/mat"
)

// Config collects BestConfig's knobs.
type Config struct {
	// SamplesPerRound is the DDS sample count per round (each round is one
	// Latin-hypercube-style divide-and-diverge batch).
	SamplesPerRound int
	// Shrink is the RBS bounding factor: after each round the search box
	// contracts to Shrink times the interval width around the incumbent in
	// every dimension.
	Shrink float64
}

// DefaultConfig returns the settings used by the extension benchmarks.
func DefaultConfig() Config {
	return Config{SamplesPerRound: 5, Shrink: 2.0}
}

// BestConfig is the search-based tuner. It holds no learned state: every
// tuning request starts from scratch, which is exactly the cost profile the
// paper contrasts with DRL fine-tuning.
type BestConfig struct {
	Cfg Config
	rng *rand.Rand
}

// New constructs a BestConfig tuner.
func New(rng *rand.Rand, cfg Config) (*BestConfig, error) {
	if cfg.SamplesPerRound <= 0 {
		return nil, fmt.Errorf("bestconfig: non-positive samples per round")
	}
	if cfg.Shrink <= 0 {
		return nil, fmt.Errorf("bestconfig: non-positive shrink factor")
	}
	return &BestConfig{Cfg: cfg, rng: rng}, nil
}

// ddsSample draws k divide-and-diverge samples inside the box [lo, hi]^d:
// each dimension is split into k equal intervals and each sample occupies a
// distinct interval per dimension (a Latin hypercube), so the batch both
// divides the space and diverges across it.
func (b *BestConfig) ddsSample(lo, hi []float64, k int) [][]float64 {
	dim := len(lo)
	out := make([][]float64, k)
	for i := range out {
		out[i] = make([]float64, dim)
	}
	for d := 0; d < dim; d++ {
		perm := b.rng.Perm(k)
		width := (hi[d] - lo[d]) / float64(k)
		for i := 0; i < k; i++ {
			cell := float64(perm[i])
			out[i][d] = lo[d] + width*(cell+b.rng.Float64())
		}
	}
	return out
}

// OnlineTune searches environment e with a budget of totalSteps
// evaluations: rounds of DDS sampling, each followed by RBS bounding around
// the best point found so far.
func (b *BestConfig) OnlineTune(e env.Environment, totalSteps int) *env.Report {
	rep, _ := env.RunOnline(context.Background(), b.Session(e, totalSteps), e, env.Loop{Steps: totalSteps})
	rep.Tuner = "BestConfig"
	return rep
}

// Session is one search of a tuning request: the current search box, the
// queued samples of the current round and the best point found so far.
type Session struct {
	b         *BestConfig
	lo, hi    []float64
	remaining int         // evaluations left in the budget
	k         int         // sample count of the current round
	queue     [][]float64 // samples of the current round not yet suggested
	roundHit  bool        // the current round produced a successful run
	best      float64
	bestU     []float64
}

// Session starts a search of e's space with a budget of totalSteps
// evaluations; the budget sizes the last round, so it draws exactly the
// samples the budget has left.
func (b *BestConfig) Session(e env.Environment, totalSteps int) *Session {
	dim := e.Space().Dim()
	s := &Session{b: b, lo: make([]float64, dim), hi: make([]float64, dim), remaining: totalSteps, best: 1e18}
	for d := range s.hi {
		s.hi[d] = 1
	}
	return s
}

// Suggest returns the next sample of the current round, drawing a new DDS
// round once the current one is used up. The state and the failure flag
// are ignored: search restarts from scratch for every request.
func (s *Session) Suggest([]float64, bool) ([]float64, bool) {
	if len(s.queue) == 0 {
		// RBS: bound the next round around the incumbent best. When the
		// whole round failed, keep the current box (diverge again).
		if s.roundHit {
			for d := range s.lo {
				width := (s.hi[d] - s.lo[d]) / float64(s.k) * s.b.Cfg.Shrink
				s.lo[d] = mat.Clip(s.bestU[d]-width/2, 0, 1)
				s.hi[d] = mat.Clip(s.bestU[d]+width/2, 0, 1)
				if s.hi[d]-s.lo[d] < 1e-6 { // degenerate box: reopen slightly
					s.lo[d] = mat.Clip(s.bestU[d]-1e-3, 0, 1)
					s.hi[d] = mat.Clip(s.bestU[d]+1e-3, 0, 1)
				}
			}
		}
		s.k = min(s.b.Cfg.SamplesPerRound, max(s.remaining, 1))
		s.queue = s.b.ddsSample(s.lo, s.hi, s.k)
		s.roundHit = false
	}
	u := s.queue[0]
	s.queue = s.queue[1:]
	s.remaining--
	return u, false
}

// Learn tracks the incumbent best and whether the round succeeded at all.
func (s *Session) Learn(o env.Observation) {
	if o.Outcome.Failed || !(o.Outcome.ExecTime < 1e18) {
		return
	}
	s.roundHit = true
	if o.Outcome.ExecTime < s.best {
		s.best = o.Outcome.ExecTime
		s.bestU = mat.CloneSlice(o.Action)
	}
}
