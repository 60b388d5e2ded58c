package rl

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"deepcat/internal/mat"
)

// encodeState gob-encodes a TD3 state so two captures compare bit for bit.
func encodeState(t *testing.T, st TD3State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreStateRefusesBeforeMutating feeds RestoreState one broken state
// per rule of TD3State.Check, plus a well-formed state built for other
// dimensions, and checks that each is refused with an error, never a
// panic, and leaves the agent bit-identical.
func TestRestoreStateRefusesBeforeMutating(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	agent, err := NewTD3(rng, DefaultTD3Config(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	donor, err := NewTD3(rng, DefaultTD3Config(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewTD3(rng, DefaultTD3Config(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	before := encodeState(t, agent.CaptureState())

	cases := map[string]func(st *TD3State){
		"missing critic":  func(st *TD3State) { st.Critic1 = nil },
		"nan weight":      func(st *TD3State) { st.Critic2.Layers[0].W.Data[0] = math.NaN() },
		"inf bias":        func(st *TD3State) { st.ActorTarget.Layers[1].B[0] = math.Inf(-1) },
		"short data":      func(st *TD3State) { st.Actor.Layers[0].W.Data = st.Actor.Layers[0].W.Data[:1] },
		"target shape":    func(st *TD3State) { st.Critic2T.Layers[1].W = mat.New(3, 3) },
		"broken chain":    func(st *TD3State) { st.Critic1.Layers[1].W = mat.New(st.Critic1.Layers[1].W.Rows, 5) },
		"short optimizer": func(st *TD3State) { st.Critic2Opt.MW = st.Critic2Opt.MW[:1] },
		"nan moment":      func(st *TD3State) { st.ActorOpt.VB[0][0] = math.NaN() },
		"moment shape":    func(st *TD3State) { st.Critic1Opt.MW[0] = mat.New(1, 1) },
		"negative step":   func(st *TD3State) { st.ActorOpt.T = -1 },
		"other dims":      func(st *TD3State) { *st = other.CaptureState() },
	}
	for name, mutate := range cases {
		st := donor.CaptureState()
		st.ActorOpt.T = 7 // a partial restore would show here first
		mutate(&st)
		if err := agent.RestoreState(st); err == nil {
			t.Fatalf("%s: state restored", name)
		}
		if !bytes.Equal(encodeState(t, agent.CaptureState()), before) {
			t.Fatalf("%s: refused restore changed the agent", name)
		}
	}

	st := donor.CaptureState()
	if err := st.Check(); err != nil {
		t.Fatalf("captured state fails its own check: %v", err)
	}
	if err := agent.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeState(t, agent.CaptureState()), encodeState(t, st)) {
		t.Fatal("restored agent differs from the state")
	}
}

// TestTransitionAndReplayCheck covers the experience half of the rule.
func TestTransitionAndReplayCheck(t *testing.T) {
	good := Transition{State: []float64{1}, Action: []float64{0.5}, Reward: -2, NextState: []float64{1}}
	if err := good.Check(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]func(tr *Transition){
		"reward": func(tr *Transition) { tr.Reward = math.NaN() },
		"state":  func(tr *Transition) { tr.State = []float64{math.Inf(1)} },
		"action": func(tr *Transition) { tr.Action = []float64{math.NaN()} },
		"next":   func(tr *Transition) { tr.NextState = []float64{math.Inf(-1)} },
	} {
		tr := good.Clone()
		bad(&tr)
		if tr.Check() == nil {
			t.Fatalf("non-finite %s accepted", name)
		}
		rs := ReplayState{Mode: "rdper", High: &PoolState{Cap: 2}, Low: &PoolState{Cap: 2, Transitions: []Transition{good, tr}}}
		if err := rs.Check(); err == nil {
			t.Fatalf("replay with non-finite %s accepted", name)
		}
	}
}
