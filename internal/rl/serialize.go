package rl

import (
	"fmt"

	"deepcat/internal/mat"
	"deepcat/internal/nn"
)

// PoolState is the serializable state of one UniformReplay ring buffer:
// the full transition contents plus the ring cursor, so a restored pool
// evicts in exactly the order the original would have.
type PoolState struct {
	Cap         int
	Next        int
	Full        bool
	Transitions []Transition
}

// State returns a deep copy of the buffer's state.
func (u *UniformReplay) State() PoolState {
	s := PoolState{
		Cap:         u.cap,
		Next:        u.next,
		Full:        u.full,
		Transitions: make([]Transition, len(u.buf)),
	}
	for i, tr := range u.buf {
		s.Transitions[i] = tr.Clone()
	}
	return s
}

// SetState replaces the buffer's contents with a previously captured state.
func (u *UniformReplay) SetState(s PoolState) error {
	if s.Cap <= 0 {
		return fmt.Errorf("rl: pool state with non-positive capacity %d", s.Cap)
	}
	if len(s.Transitions) > s.Cap {
		return fmt.Errorf("rl: pool state holds %d transitions, capacity %d", len(s.Transitions), s.Cap)
	}
	if s.Next < 0 || s.Next >= s.Cap {
		return fmt.Errorf("rl: pool state cursor %d outside [0,%d)", s.Next, s.Cap)
	}
	u.cap = s.Cap
	u.next = s.Next
	u.full = s.Full
	u.buf = make([]Transition, len(s.Transitions))
	for i, tr := range s.Transitions {
		u.buf[i] = tr.Clone()
	}
	return nil
}

// ReplayState is the serializable state of any Sampler in this package,
// discriminated by Mode. For "per" buffers only the transitions survive a
// round trip: priorities are reset to the maximum on restore (the standard
// new-experience treatment), since TD errors are recomputed within a few
// training steps anyway.
type ReplayState struct {
	// Mode is "uniform", "rdper" or "per".
	Mode string
	// Uniform is set for mode "uniform" and "per".
	Uniform *PoolState
	// High and Low are set for mode "rdper".
	High, Low *PoolState
	// RewardThreshold and Beta echo the RDPER routing parameters.
	RewardThreshold, Beta float64
}

// Check reports whether every transition in every pool of s passes
// Transition.Check.
func (s ReplayState) Check() error {
	for _, p := range []struct {
		name string
		pool *PoolState
	}{{"uniform", s.Uniform}, {"high", s.High}, {"low", s.Low}} {
		if p.pool == nil {
			continue
		}
		for i, tr := range p.pool.Transitions {
			if err := tr.Check(); err != nil {
				return fmt.Errorf("rl: replay %s[%d]: %w", p.name, i, err)
			}
		}
	}
	return nil
}

// CaptureReplay snapshots any of the package's samplers.
func CaptureReplay(s Sampler) (ReplayState, error) {
	switch b := s.(type) {
	case *UniformReplay:
		st := b.State()
		return ReplayState{Mode: "uniform", Uniform: &st}, nil
	case *RDPER:
		hi, lo := b.high.State(), b.low.State()
		return ReplayState{
			Mode: "rdper", High: &hi, Low: &lo,
			RewardThreshold: b.RewardThreshold, Beta: b.Beta,
		}, nil
	case *PrioritizedReplay:
		st := PoolState{Cap: b.cap, Transitions: make([]Transition, len(b.buf))}
		for i, tr := range b.buf {
			st.Transitions[i] = tr.Clone()
		}
		return ReplayState{Mode: "per", Uniform: &st}, nil
	default:
		return ReplayState{}, fmt.Errorf("rl: cannot capture replay of type %T", s)
	}
}

// RestoreReplay loads a captured state into dst, which must be the same
// sampler type the state was captured from. A state that fails Check is
// refused before anything is loaded.
func RestoreReplay(dst Sampler, st ReplayState) error {
	if err := st.Check(); err != nil {
		return err
	}
	switch b := dst.(type) {
	case *UniformReplay:
		if st.Mode != "uniform" || st.Uniform == nil {
			return fmt.Errorf("rl: replay state mode %q cannot restore a UniformReplay", st.Mode)
		}
		return b.SetState(*st.Uniform)
	case *RDPER:
		if st.Mode != "rdper" || st.High == nil || st.Low == nil {
			return fmt.Errorf("rl: replay state mode %q cannot restore an RDPER", st.Mode)
		}
		b.RewardThreshold = st.RewardThreshold
		b.Beta = st.Beta
		if err := b.high.SetState(*st.High); err != nil {
			return err
		}
		return b.low.SetState(*st.Low)
	case *PrioritizedReplay:
		if st.Mode != "per" || st.Uniform == nil {
			return fmt.Errorf("rl: replay state mode %q cannot restore a PrioritizedReplay", st.Mode)
		}
		if len(st.Uniform.Transitions) > b.cap {
			return fmt.Errorf("rl: per state holds %d transitions, capacity %d", len(st.Uniform.Transitions), b.cap)
		}
		for _, tr := range st.Uniform.Transitions {
			b.Add(tr)
		}
		return nil
	default:
		return fmt.Errorf("rl: cannot restore replay of type %T", dst)
	}
}

// ExportTransitions returns a deep copy of every transition stored in s:
// uniform and prioritized buffers in storage order, RDPER high pool first
// then low. Sessions use it to stream accumulated experience into the fleet
// warehouse without knowing which sampler they run.
func ExportTransitions(s Sampler) ([]Transition, error) {
	switch b := s.(type) {
	case *UniformReplay:
		return cloneTransitions(b.buf, nil), nil
	case *RDPER:
		out := cloneTransitions(b.high.buf, nil)
		return cloneTransitions(b.low.buf, out), nil
	case *PrioritizedReplay:
		return cloneTransitions(b.buf, nil), nil
	default:
		return nil, fmt.Errorf("rl: cannot export transitions of type %T", s)
	}
}

func cloneTransitions(buf, dst []Transition) []Transition {
	for _, tr := range buf {
		dst = append(dst, tr.Clone())
	}
	return dst
}

// TD3State is the full serializable state of a TD3 agent: every network
// (online and target), all three optimizers' moment estimates, and the
// update counter that schedules the delayed policy updates. Restoring it
// into a fresh agent built from the same TD3Config reproduces the original
// agent's training trajectory exactly.
type TD3State struct {
	Actor, ActorTarget *nn.MLP
	Critic1, Critic2   *nn.MLP
	Critic1T, Critic2T *nn.MLP

	ActorOpt, Critic1Opt, Critic2Opt nn.AdamState

	Updates int
}

// CaptureState returns a deep copy of the agent's mutable state.
func (t *TD3) CaptureState() TD3State {
	return TD3State{
		Actor:       t.Actor.Clone(),
		ActorTarget: t.ActorTarget.Clone(),
		Critic1:     t.Critic1.Clone(),
		Critic2:     t.Critic2.Clone(),
		Critic1T:    t.Critic1T.Clone(),
		Critic2T:    t.Critic2T.Clone(),
		ActorOpt:    t.actorOpt.State(),
		Critic1Opt:  t.c1Opt.State(),
		Critic2Opt:  t.c2Opt.State(),
		Updates:     t.updates,
	}
}

// Check reports whether s is a usable agent state: all six networks well
// formed, each target shaped like its online network, each optimizer's
// moments shaped like the network it steps, and every weight and moment
// finite. A NaN admitted into a gradient update spreads through every
// weight it touches, so a state that fails here must not be restored,
// published or persisted.
func (s TD3State) Check() error {
	for _, p := range [3]struct {
		name        string
		net, target *nn.MLP
		opt         nn.AdamState
	}{
		{"actor", s.Actor, s.ActorTarget, s.ActorOpt},
		{"critic1", s.Critic1, s.Critic1T, s.Critic1Opt},
		{"critic2", s.Critic2, s.Critic2T, s.Critic2Opt},
	} {
		if err := checkNet(p.net, nil); err != nil {
			return fmt.Errorf("rl: TD3 state %s: %w", p.name, err)
		}
		if err := checkNet(p.target, p.net); err != nil {
			return fmt.Errorf("rl: TD3 state %s_target: %w", p.name, err)
		}
		if err := checkOpt(p.opt, p.net); err != nil {
			return fmt.Errorf("rl: TD3 state %s_opt: %w", p.name, err)
		}
	}
	if s.Updates < 0 {
		return fmt.Errorf("rl: TD3 state with negative update count %d", s.Updates)
	}
	return nil
}

// checkNet checks that m is well formed, shaped like like (when non-nil)
// and finite.
func checkNet(m, like *nn.MLP) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if like != nil {
		if err := like.Match(m); err != nil {
			return err
		}
	}
	for i, l := range m.Layers {
		if !mat.AllFinite(l.W.Data) || !mat.AllFinite(l.B) {
			return fmt.Errorf("layer %d carries a non-finite value", i)
		}
	}
	return nil
}

// checkOpt checks that o holds one finite moment pair per layer of m, each
// shaped like that layer.
func checkOpt(o nn.AdamState, m *nn.MLP) error {
	n := len(m.Layers)
	if o.T < 0 || len(o.MW) != n || len(o.VW) != n || len(o.MB) != n || len(o.VB) != n {
		return fmt.Errorf("step %d with %d layers of moments, want %d", o.T, len(o.MW), n)
	}
	for i, l := range m.Layers {
		for _, w := range [2]*mat.Matrix{o.MW[i], o.VW[i]} {
			if w == nil || w.Rows != l.W.Rows || w.Cols != l.W.Cols || len(w.Data) != len(l.W.Data) || !mat.AllFinite(w.Data) {
				return fmt.Errorf("layer %d weight moments malformed or non-finite", i)
			}
		}
		for _, b := range [2][]float64{o.MB[i], o.VB[i]} {
			if len(b) != len(l.B) || !mat.AllFinite(b) {
				return fmt.Errorf("layer %d bias moments malformed or non-finite", i)
			}
		}
	}
	return nil
}

// RestoreState loads a captured state into t, which must have been built
// from the same configuration. The state is checked in full before
// anything is copied (Check, plus every network shaped like t's own), so a
// state that is refused leaves t exactly as it was. Every weight hand-off
// goes through here: resume, fleet adopt, donor warm-start, spine adoption.
func (t *TD3) RestoreState(s TD3State) error {
	if err := s.Check(); err != nil {
		return err
	}
	for _, p := range [3][2]*nn.MLP{{t.Actor, s.Actor}, {t.Critic1, s.Critic1}, {t.Critic2, s.Critic2}} {
		if err := p[0].Match(p[1]); err != nil {
			return fmt.Errorf("rl: TD3 state does not fit this agent: %w", err)
		}
	}
	t.actorOpt.SetState(s.ActorOpt)
	t.c1Opt.SetState(s.Critic1Opt)
	t.c2Opt.SetState(s.Critic2Opt)
	t.Actor.CopyFrom(s.Actor)
	t.ActorTarget.CopyFrom(s.ActorTarget)
	t.Critic1.CopyFrom(s.Critic1)
	t.Critic2.CopyFrom(s.Critic2)
	t.Critic1T.CopyFrom(s.Critic1T)
	t.Critic2T.CopyFrom(s.Critic2T)
	t.updates = s.Updates
	return nil
}
