package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"deepcat/internal/mat"
)

// Save writes the network's architecture and weights to w using
// encoding/gob. Optimizer state is not saved; a reloaded network is meant
// for inference or fresh fine-tuning, matching the paper's offline-train /
// online-tune split.
func (m *MLP) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load reads a network previously written with Save.
func Load(r io.Reader) (*MLP, error) {
	dec := gob.NewDecoder(r)
	var m MLP
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	return &m, nil
}

// AdamState is the serializable state of an Adam optimizer: the step count
// and the per-parameter moment estimates. Capturing it alongside network
// weights lets a restored agent continue training with exactly the update
// dynamics it would have had without the save/load cycle.
type AdamState struct {
	T      int
	MW, VW []*mat.Matrix
	MB, VB [][]float64
}

// State returns a deep copy of the optimizer's mutable state. The
// hyper-parameters (LR, betas, eps, clipping) are not included; they are
// reconstructed from configuration when the owning agent is rebuilt.
func (a *Adam) State() AdamState {
	s := AdamState{
		T:  a.t,
		MW: make([]*mat.Matrix, len(a.mW)),
		VW: make([]*mat.Matrix, len(a.vW)),
		MB: make([][]float64, len(a.mB)),
		VB: make([][]float64, len(a.vB)),
	}
	for i := range a.mW {
		s.MW[i] = a.mW[i].Clone()
		s.VW[i] = a.vW[i].Clone()
		s.MB[i] = append([]float64(nil), a.mB[i]...)
		s.VB[i] = append([]float64(nil), a.vB[i]...)
	}
	return s
}

// SetState restores state captured by State into a. The state must be
// shaped like a's network, one moment pair per layer; rl.TD3State.Check is
// how a decoded state is checked before it gets here.
func (a *Adam) SetState(s AdamState) {
	a.t = s.T
	for i := range a.mW {
		a.mW[i].CopyFrom(s.MW[i])
		a.vW[i].CopyFrom(s.VW[i])
		copy(a.mB[i], s.MB[i])
		copy(a.vB[i], s.VB[i])
	}
}

// SaveFile saves the network to the named file, creating or truncating it.
func (m *MLP) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: save file: %w", err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile loads a network from the named file.
func LoadFile(path string) (*MLP, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: load file: %w", err)
	}
	defer f.Close()
	return Load(f)
}
