// Package rl implements the reinforcement-learning machinery of the DeepCAT
// reproduction: experience transitions, three replay strategies (uniform,
// TD-error prioritized replay on a sum-tree, and the paper's reward-driven
// RDPER), exploration noise processes, and the DDPG and TD3 actor-critic
// agents built on package nn.
//
// Everything is deterministic given seeded *rand.Rand values, and nothing
// here knows about Spark or configuration tuning — the agents operate on
// abstract state/action vectors so they can be reused for any environment.
package rl

import (
	"errors"

	"deepcat/internal/mat"
)

// Transition is one (s, a, r, s', done) experience tuple. Action dimensions
// are normalized to [0,1] by callers, matching the paper's action encoding
// (§3.1).
type Transition struct {
	State     []float64
	Action    []float64
	Reward    float64
	NextState []float64
	Done      bool
}

// Clone returns a deep copy of the transition, so that buffers can retain
// data even if callers reuse their slices.
func (tr Transition) Clone() Transition {
	return Transition{
		State:     mat.CloneSlice(tr.State),
		Action:    mat.CloneSlice(tr.Action),
		Reward:    tr.Reward,
		NextState: mat.CloneSlice(tr.NextState),
		Done:      tr.Done,
	}
}

// errNonFinite is what Check returns for a transition carrying NaN or ±Inf.
var errNonFinite = errors.New("rl: transition carries a non-finite value")

// Check reports whether tr is usable experience: every number in it is
// finite. It is the rule for what may enter a replay buffer, the warehouse
// or a donor's training set.
func (tr Transition) Check() error {
	if !mat.Finite(tr.Reward) || !mat.AllFinite(tr.State) ||
		!mat.AllFinite(tr.Action) || !mat.AllFinite(tr.NextState) {
		return errNonFinite
	}
	return nil
}

// Batch is a sampled mini-batch. Indices and Weights are only meaningful for
// prioritized samplers: Indices identify the sampled transitions for
// priority updates and Weights carry importance-sampling corrections
// (all-ones for non-prioritized samplers).
type Batch struct {
	Transitions []Transition
	Indices     []int
	Weights     []float64
}

// Len returns the number of transitions in the batch.
func (b Batch) Len() int { return len(b.Transitions) }
