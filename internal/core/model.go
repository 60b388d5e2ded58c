package core

import (
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"

	"deepcat/internal/nn"
	"deepcat/internal/rl"
)

// savedModel is the serialized form of an offline-trained DeepCAT model:
// the actor and both critics plus their targets, and the configuration
// needed to reconstruct the agent. The replay buffer is intentionally not
// saved — online tuning starts from fresh experience, as in the paper.
type savedModel struct {
	Cfg      Config
	Actor    *nn.MLP
	ActorT   *nn.MLP
	Critic1  *nn.MLP
	Critic2  *nn.MLP
	Critic1T *nn.MLP
	Critic2T *nn.MLP
}

// Save writes the offline-trained model to w.
func (d *DeepCAT) Save(w io.Writer) error {
	m := savedModel{
		Cfg:      d.Cfg,
		Actor:    d.Agent.Actor,
		ActorT:   d.Agent.ActorTarget,
		Critic1:  d.Agent.Critic1,
		Critic2:  d.Agent.Critic2,
		Critic1T: d.Agent.Critic1T,
		Critic2T: d.Agent.Critic2T,
	}
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// SaveFile saves the model to the named file.
func (d *DeepCAT) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	defer f.Close()
	if err := d.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// Load reconstructs a DeepCAT tuner from a model stream written by Save.
// The supplied seed drives the tuner's online randomness.
func Load(r io.Reader, seed int64) (*DeepCAT, error) {
	var m savedModel
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	d, err := New(rand.New(rand.NewSource(seed)), m.Cfg)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	// A model saved without targets gets them from the online networks.
	st := d.Agent.CaptureState()
	st.Actor, st.Critic1, st.Critic2 = m.Actor, m.Critic1, m.Critic2
	st.ActorTarget, st.Critic1T, st.Critic2T = cmp.Or(m.ActorT, m.Actor), cmp.Or(m.Critic1T, m.Critic1), cmp.Or(m.Critic2T, m.Critic2)
	if err := d.Agent.RestoreState(st); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	return d, nil
}

// LoadFile loads a model from the named file.
func LoadFile(path string, seed int64) (*DeepCAT, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	defer f.Close()
	return Load(f, seed)
}

// ensure the rl package's TD3 config type is gob-encodable (hidden slices,
// plain fields). This registration keeps future type evolution explicit.
func init() {
	gob.Register(rl.TD3Config{})
}
