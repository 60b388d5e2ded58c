// Package env defines the tuning-target abstraction that DeepCAT and the
// baseline tuners drive, the one online loop (RunOnline) that drives any
// Tuner against it, and the report types that record what an online tuning
// session cost and found.
//
// An Environment is a black box: the tuner submits a normalized
// configuration action, the environment runs it (here: the sparksim cluster
// model) and returns the execution time, the resulting system state (load
// averages) and internal metrics. Tuners never see simulator internals, so
// any system implementing Environment — including a binding to a real
// cluster — can be tuned unchanged.
package env

import (
	"context"
	"fmt"

	"deepcat/internal/config"
	"deepcat/internal/sparksim"
)

// Outcome is the result of one configuration evaluation.
type Outcome struct {
	// ExecTime is the measured execution time in seconds (the performance
	// metric the paper minimizes).
	ExecTime float64
	// Failed and OOM mirror sparksim.Result semantics.
	Failed bool
	OOM    bool
	// State is the post-run system state (load averages, §3.1).
	State []float64
	// Metrics is the internal-metrics vector used for workload mapping.
	Metrics []float64
}

// Environment is a tunable system.
type Environment interface {
	// Space is the configuration space being tuned.
	Space() *config.Space
	// StateDim is the length of Outcome.State.
	StateDim() int
	// MetricsDim is the length of Outcome.Metrics.
	MetricsDim() int
	// Evaluate runs the configuration encoded by the normalized action
	// u in [0,1]^Space().Dim() and returns the outcome. Implementations
	// must not retain u.
	Evaluate(u []float64) Outcome
	// DefaultTime returns the execution time under the out-of-the-box
	// configuration, the baseline of the paper's reward function (Eq. 1).
	DefaultTime() float64
	// IdleState returns the system state before any evaluation.
	IdleState() []float64
	// Label names the environment for reports (e.g. "TS-D1@cluster-a").
	Label() string
}

// CtxEnvironment is the fallible, cancelable half of the evaluation
// contract. A binding to a real cluster implements it instead of (or in
// addition to) the infallible Evaluate: a submitted job can crash, straggle
// past the caller's deadline, or find the cluster temporarily unreachable,
// and the returned error reports which. Implementations must honor ctx —
// returning ctx.Err() (possibly wrapped) once it is done — and must not
// retain u.
//
// Environments that do not implement CtxEnvironment are driven through
// EvaluateWithContext, which adapts the infallible Evaluate.
type CtxEnvironment interface {
	Environment
	EvaluateCtx(ctx context.Context, u []float64) (Outcome, error)
}

// EvaluateWithContext evaluates u on e under ctx, bridging both halves of
// the contract so callers never branch on the environment's capabilities:
//
//   - a CtxEnvironment is called directly and owns deadline handling;
//   - a plain Environment with an uncancelable ctx is called inline
//     (zero overhead — this is the path every pre-existing environment
//     takes);
//   - a plain Environment under a cancelable ctx is evaluated in a
//     goroutine so the caller regains control at the deadline. The
//     evaluation itself cannot be interrupted — its goroutine is abandoned
//     and its result discarded — which bounds the caller's wall-clock time,
//     not the environment's work.
func EvaluateWithContext(ctx context.Context, e Environment, u []float64) (Outcome, error) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	if ce, ok := e.(CtxEnvironment); ok {
		return ce.EvaluateCtx(ctx, u)
	}
	if ctx.Done() == nil {
		return e.Evaluate(u), nil
	}
	type result struct{ o Outcome }
	ch := make(chan result, 1)
	go func() { ch <- result{e.Evaluate(u)} }()
	select {
	case r := <-ch:
		return r.o, nil
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
}

// SparkEnv adapts a sparksim.Simulator plus a (workload, input) pair to the
// Environment interface. When Clamp is set, recommended configurations are
// first clamped to the cluster's physical capacity (the paper's rule for
// hardware migration, §5.3.2).
type SparkEnv struct {
	Sim      *sparksim.Simulator
	Workload sparksim.Workload
	InputIdx int
	// Clamp enables ClampToCluster before each evaluation.
	Clamp bool

	defaultTime float64
}

// NewSparkEnv builds an environment for one workload-input pair.
func NewSparkEnv(sim *sparksim.Simulator, w sparksim.Workload, inputIdx int) *SparkEnv {
	return &SparkEnv{
		Sim:         sim,
		Workload:    w,
		InputIdx:    inputIdx,
		defaultTime: sim.DefaultTime(w, inputIdx),
	}
}

// Space returns the 32-parameter pipeline space.
func (e *SparkEnv) Space() *config.Space { return e.Sim.Space() }

// StateDim returns sparksim.StateDim.
func (e *SparkEnv) StateDim() int { return sparksim.StateDim }

// MetricsDim returns sparksim.MetricsDim.
func (e *SparkEnv) MetricsDim() int { return sparksim.MetricsDim }

// DefaultTime returns the noise-free default-configuration execution time.
func (e *SparkEnv) DefaultTime() float64 { return e.defaultTime }

// IdleState returns the idle-cluster load averages.
func (e *SparkEnv) IdleState() []float64 { return e.Sim.IdleState() }

// Label names the pair and cluster.
func (e *SparkEnv) Label() string {
	return fmt.Sprintf("%s@%s", sparksim.PairLabel(e.Workload, e.InputIdx), e.Sim.Cluster().Name)
}

// Evaluate runs the configuration on the simulated cluster.
func (e *SparkEnv) Evaluate(u []float64) Outcome {
	var r sparksim.Result
	if e.Clamp {
		v := e.Space().Denormalize(u)
		r = e.Sim.EvaluateValues(e.Workload, e.InputIdx, e.Sim.ClampToCluster(v))
	} else {
		r = e.Sim.Evaluate(e.Workload, e.InputIdx, u)
	}
	return Outcome{
		ExecTime: r.ExecTime,
		Failed:   r.Failed,
		OOM:      r.OOM,
		State:    r.LoadAvg,
		Metrics:  r.Metrics,
	}
}

// Counted wraps an Environment and counts evaluations and accumulated
// evaluation time; useful for budget enforcement and tests.
type Counted struct {
	Environment
	Evals     int
	TotalTime float64
}

// NewCounted wraps e.
func NewCounted(e Environment) *Counted { return &Counted{Environment: e} }

// Evaluate forwards to the wrapped environment and updates the counters.
func (c *Counted) Evaluate(u []float64) Outcome {
	o := c.Environment.Evaluate(u)
	c.Evals++
	c.TotalTime += o.ExecTime
	return o
}

// EvaluateCtx forwards through the contract bridge, so wrapping with
// Counted never hides the inner environment's fallible path. Failed
// evaluations still count — a crashed run was paid for — but contribute no
// execution time.
func (c *Counted) EvaluateCtx(ctx context.Context, u []float64) (Outcome, error) {
	o, err := EvaluateWithContext(ctx, c.Environment, u)
	c.Evals++
	if err == nil {
		c.TotalTime += o.ExecTime
	}
	return o, err
}
