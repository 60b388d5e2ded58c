package nn

import (
	"fmt"
	"math/rand"

	"deepcat/internal/mat"
)

// Dense is one fully connected layer: y = act(W·x + b). Fields are exported
// so that networks serialize with encoding/gob.
type Dense struct {
	W   *mat.Matrix // out x in weight matrix
	B   []float64   // out bias vector
	Act Activation
}

// outSize returns the number of units in the layer.
func (d *Dense) outSize() int { return d.W.Rows }

// inSize returns the layer's input dimension.
func (d *Dense) inSize() int { return d.W.Cols }

// MLP is a multi-layer perceptron. Construct it with NewMLP; the zero value
// is not usable.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds a network with the given layer sizes and activations.
// sizes[0] is the input dimension; each subsequent entry is a layer width,
// so len(acts) must be len(sizes)-1. Weights use Xavier initialization from
// rng; the final layer additionally gets the small uniform init (±3e-3)
// customary for DDPG/TD3 output layers, which keeps initial policy outputs
// near the center of the action range.
func NewMLP(rng *rand.Rand, sizes []int, acts []Activation) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: NewMLP needs at least 2 sizes, got %d", len(sizes)))
	}
	if len(acts) != len(sizes)-1 {
		panic(fmt.Sprintf("nn: NewMLP got %d activations for %d layers", len(acts), len(sizes)-1))
	}
	m := &MLP{Layers: make([]*Dense, len(acts))}
	for i := range acts {
		in, out := sizes[i], sizes[i+1]
		if in <= 0 || out <= 0 {
			panic(fmt.Sprintf("nn: non-positive layer size %d -> %d", in, out))
		}
		l := &Dense{W: mat.New(out, in), B: make([]float64, out), Act: acts[i]}
		if i == len(acts)-1 {
			l.W.RandUniform(rng, 3e-3)
			for j := range l.B {
				l.B[j] = (rng.Float64()*2 - 1) * 3e-3
			}
		} else {
			l.W.XavierInit(rng, in, out)
		}
		m.Layers[i] = l
	}
	return m
}

// InSize returns the network input dimension.
func (m *MLP) InSize() int { return m.Layers[0].inSize() }

// OutSize returns the network output dimension.
func (m *MLP) OutSize() int { return m.Layers[len(m.Layers)-1].outSize() }

// NumParams returns the total number of trainable scalars.
func (m *MLP) NumParams() int {
	var n int
	for _, l := range m.Layers {
		n += l.W.Rows*l.W.Cols + len(l.B)
	}
	return n
}

// Forward runs inference on a single input vector and returns a freshly
// allocated output. It is safe for concurrent use as long as no goroutine is
// mutating the weights.
func (m *MLP) Forward(x []float64) []float64 {
	if len(x) != m.InSize() {
		panic(fmt.Sprintf("nn: Forward input length %d, want %d", len(x), m.InSize()))
	}
	cur := x
	for _, l := range m.Layers {
		next := make([]float64, l.outSize())
		l.W.MulVecTo(next, cur)
		for i := range next {
			next[i] = l.Act.apply(next[i] + l.B[i])
		}
		cur = next
	}
	return cur
}

// Tape records the intermediate activations of one forward pass so that
// Backward can compute exact gradients for that sample.
type Tape struct {
	// inputs[i] is the input to layer i; inputs[0] aliases the caller's x.
	inputs [][]float64
	// outputs[i] is the post-activation output of layer i.
	outputs [][]float64
}

// Output returns the network output recorded on the tape.
func (t *Tape) Output() []float64 { return t.outputs[len(t.outputs)-1] }

// ForwardTape runs a forward pass recording every layer's activations.
func (m *MLP) ForwardTape(x []float64) *Tape {
	if len(x) != m.InSize() {
		panic(fmt.Sprintf("nn: ForwardTape input length %d, want %d", len(x), m.InSize()))
	}
	t := &Tape{
		inputs:  make([][]float64, len(m.Layers)),
		outputs: make([][]float64, len(m.Layers)),
	}
	cur := x
	for i, l := range m.Layers {
		t.inputs[i] = cur
		next := make([]float64, l.outSize())
		l.W.MulVecTo(next, cur)
		for j := range next {
			next[j] = l.Act.apply(next[j] + l.B[j])
		}
		t.outputs[i] = next
		cur = next
	}
	return t
}

// Grads accumulates parameter gradients with the same shapes as an MLP's
// layers. Create one with NewGrads and reuse it across a mini-batch, calling
// Zero between batches.
type Grads struct {
	W []*mat.Matrix
	B [][]float64
}

// NewGrads allocates a zeroed gradient accumulator shaped like m.
func (m *MLP) NewGrads() *Grads {
	g := &Grads{W: make([]*mat.Matrix, len(m.Layers)), B: make([][]float64, len(m.Layers))}
	for i, l := range m.Layers {
		g.W[i] = mat.New(l.W.Rows, l.W.Cols)
		g.B[i] = make([]float64, len(l.B))
	}
	return g
}

// Zero clears the accumulator.
func (g *Grads) Zero() {
	for i := range g.W {
		g.W[i].Zero()
		for j := range g.B[i] {
			g.B[i][j] = 0
		}
	}
}

// Backward backpropagates gradOut (∂loss/∂output for the sample recorded on
// tape) through the network, accumulating parameter gradients into g (which
// may be nil if only the input gradient is wanted) and returning
// ∂loss/∂input. The tape must come from this network's ForwardTape, and the
// weights must not have changed in between.
func (m *MLP) Backward(tape *Tape, gradOut []float64, g *Grads) []float64 {
	if len(gradOut) != m.OutSize() {
		panic(fmt.Sprintf("nn: Backward grad length %d, want %d", len(gradOut), m.OutSize()))
	}
	delta := mat.CloneSlice(gradOut)
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		out := tape.outputs[i]
		// delta := gradOut ⊙ σ'(y)
		for j := range delta {
			delta[j] *= l.Act.derivFromOutput(out[j])
		}
		if g != nil {
			g.W[i].AddOuterScaled(delta, tape.inputs[i], 1)
			for j, d := range delta {
				g.B[i][j] += d
			}
		}
		prev := make([]float64, l.inSize())
		l.W.MulVecTransTo(prev, delta)
		delta = prev
	}
	return delta
}

// InputGrad returns ∂(Σ selector·output)/∂input for input x without
// accumulating parameter gradients; the deterministic policy gradient uses
// it to obtain ∂Q/∂a from a critic.
func (m *MLP) InputGrad(x, selector []float64) []float64 {
	t := m.ForwardTape(x)
	return m.Backward(t, selector, nil)
}

// Clone returns a deep copy of the network (weights only; no optimizer
// state).
func (m *MLP) Clone() *MLP {
	c := &MLP{Layers: make([]*Dense, len(m.Layers))}
	for i, l := range m.Layers {
		c.Layers[i] = &Dense{W: l.W.Clone(), B: mat.CloneSlice(l.B), Act: l.Act}
	}
	return c
}

// CopyFrom copies src's weights into m. The architectures must match.
func (m *MLP) CopyFrom(src *MLP) {
	m.mustMatch(src)
	for i, l := range m.Layers {
		l.W.CopyFrom(src.Layers[i].W)
		copy(l.B, src.Layers[i].B)
	}
}

// SoftUpdate performs the Polyak averaging used for target networks:
// m = (1-tau)·m + tau·src.
func (m *MLP) SoftUpdate(src *MLP, tau float64) {
	m.mustMatch(src)
	for i, l := range m.Layers {
		l.W.Lerp(src.Layers[i].W, tau)
		for j := range l.B {
			l.B[j] = (1-tau)*l.B[j] + tau*src.Layers[i].B[j]
		}
	}
}

// Validate reports whether m is well formed: at least one layer, every
// weight matrix and bias sized consistently, and each layer's input the
// previous layer's output. A decoded network must pass it before use.
func (m *MLP) Validate() error {
	if m == nil || len(m.Layers) == 0 {
		return fmt.Errorf("nn: empty network")
	}
	for i, l := range m.Layers {
		if l == nil || l.W == nil || l.W.Rows <= 0 || l.W.Cols <= 0 ||
			len(l.W.Data) != l.W.Rows*l.W.Cols || len(l.B) != l.W.Rows {
			return fmt.Errorf("nn: malformed layer %d", i)
		}
		if i > 0 && l.W.Cols != m.Layers[i-1].W.Rows {
			return fmt.Errorf("nn: layer %d takes %d inputs, layer %d gives %d", i, l.W.Cols, i-1, m.Layers[i-1].W.Rows)
		}
	}
	return nil
}

// Match reports whether src has m's architecture: as many layers, each of
// the same shape. CopyFrom and SoftUpdate require it.
func (m *MLP) Match(src *MLP) error {
	if len(m.Layers) != len(src.Layers) {
		return fmt.Errorf("nn: architecture mismatch: %d vs %d layers", len(m.Layers), len(src.Layers))
	}
	for i, l := range m.Layers {
		s := src.Layers[i]
		if l.W.Rows != s.W.Rows || l.W.Cols != s.W.Cols {
			return fmt.Errorf("nn: layer %d shape mismatch %dx%d vs %dx%d", i, l.W.Rows, l.W.Cols, s.W.Rows, s.W.Cols)
		}
	}
	return nil
}

func (m *MLP) mustMatch(src *MLP) {
	if err := m.Match(src); err != nil {
		panic(err.Error())
	}
}
