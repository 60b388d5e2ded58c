package env

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"deepcat/internal/mat"
	"deepcat/internal/trace"
)

// Tuner is the online half of a configuration tuner, the contract RunOnline
// drives: propose the next configuration, then learn from its measurement.
// DeepCAT, CDBTune, OtterTune and BestConfig all implement it.
type Tuner interface {
	// Suggest proposes a normalized configuration for the system state.
	// lastFailed reports that the previous step produced no usable
	// measurement; optimized that the tuner replaced its raw
	// recommendation before evaluation (DeepCAT's Twin-Q Optimizer).
	Suggest(state []float64, lastFailed bool) (action []float64, optimized bool)
	// Learn records one accepted measurement. Faulted and quarantined
	// steps never reach it.
	Learn(Observation)
}

// Observation is one accepted online step as the tuner learns from it.
type Observation struct {
	// State is the system state Action was suggested for; the post-run
	// state is Outcome.State.
	State   []float64
	Action  []float64
	Outcome Outcome
	// PrevTime is the previous step's execution time (DefTime before the
	// first step) and DefTime the default configuration's; together they
	// parameterize the reward.
	PrevTime, DefTime float64
	// Done marks the final step of the session.
	Done bool
}

// Loop is the policy of one online tuning session.
type Loop struct {
	// Steps is the number of tuning steps.
	Steps int
	// BudgetSeconds optionally bounds the total online tuning cost
	// (evaluation plus recommendation time); 0 disables the bound. Tuning
	// stops before the step that would follow exceeding the budget.
	BudgetSeconds float64
	// Hardening is the fault policy; the zero value is the classic loop.
	Hardening Hardening
	// Rec receives fault and quarantine events; nil records nothing.
	Rec trace.Recorder
}

// Hardening configures the fault-tolerant online loop. The zero value
// disables every mechanism, making RunOnline the classic loop with only
// the Stepper's non-finite check; enable pieces independently as the
// target environment warrants.
type Hardening struct {
	// EvalTimeout bounds one environment evaluation attempt; a straggler
	// past the deadline is abandoned and surfaces as a timeout fault. Zero
	// means no per-evaluation deadline.
	EvalTimeout time.Duration
	// EvalRetries is how many extra attempts a failed evaluation gets
	// before the step is declared faulted.
	EvalRetries int
	// RetryBaseDelay is the base of the jittered exponential backoff
	// between attempts (default 10ms when retries are enabled). The jitter
	// draws from a loop-local RNG, never the tuner's — retry timing cannot
	// perturb tuning decisions.
	RetryBaseDelay time.Duration
	// SanitizeWindow enables the outlier test with this many recent
	// successful execution times as its baseline; 0 disables it. The
	// non-finite check runs regardless (see Stepper).
	SanitizeWindow int
	// SanitizeMADK is the MAD multiple past which an execution time is
	// quarantined (default DefaultMADK). Only the upper tail is tested: a
	// dramatic improvement is the goal, not an anomaly.
	SanitizeMADK float64
	// FallbackLKG re-evaluates the last known good configuration once when
	// a step's retries are exhausted, so a faulted step can still produce
	// a usable measurement instead of a hole in the trajectory.
	FallbackLKG bool
}

// DefaultHardening returns the profile used by the chaos harness: short
// deadline, two retries, sanitizing on, last-known-good fallback on.
func DefaultHardening() Hardening {
	return Hardening{
		EvalTimeout:    2 * time.Second,
		EvalRetries:    2,
		RetryBaseDelay: 5 * time.Millisecond,
		SanitizeWindow: 20,
		SanitizeMADK:   DefaultMADK,
		FallbackLKG:    true,
	}
}

// RunOnline is the online tuning loop of the paper's Fig. 1, driving a
// Stepper: at each step the tuner suggests a configuration for the current
// state, the environment evaluates it, and the tuner learns from the
// measurement; the best configuration found is reported. l.Hardening adds
// per-evaluation deadlines, jittered retry, last-known-good fallback and
// the outlier test.
//
// Each step's RecommendSeconds is the wall time spent inside the stepper's
// Next and Record. The report's Tuner name is left for the caller to fill
// in. The returned error is non-nil only when ctx ends the run early; the
// report always covers the steps completed so far.
func RunOnline(ctx context.Context, t Tuner, e Environment, l Loop) (*Report, error) {
	h := l.Hardening
	sp := NewStepper(t, e, h.SanitizeWindow, h.SanitizeMADK)
	sp.Horizon = l.Steps
	// Backoff jitter only; deliberately not the tuner's RNG, so hardened
	// and classic runs consume identical tuner randomness.
	jrng := rand.New(rand.NewSource(1))
	rep := &Report{EnvLabel: e.Label(), BestTime: inf()}
	for sp.Step < l.Steps {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if l.BudgetSeconds > 0 && rep.TotalCost() >= l.BudgetSeconds {
			break
		}
		start := time.Now()
		action, optimized := sp.Next()
		recommend := time.Since(start)
		outcome, retries, evalErr := h.evaluate(ctx, e, action, jrng)
		st := TuningStep{Action: mat.CloneSlice(action), Optimized: optimized, Retries: retries}
		rep.Retries += retries
		if evalErr != nil && h.FallbackLKG && sp.BestAction != nil && ctx.Err() == nil {
			if fo, ferr := h.evaluateOnce(ctx, e, sp.BestAction); ferr == nil && sp.check(fo) == nil {
				outcome, evalErr, action = fo, nil, sp.BestAction
				st.Action, st.Fallback = mat.CloneSlice(action), true
				rep.Fallbacks++
			}
		}
		start = time.Now()
		rejected, improved := sp.Record(action, outcome, evalErr)
		st.RecommendSeconds = (recommend + time.Since(start)).Seconds()
		switch {
		case evalErr != nil:
			st.Fault, st.Failed = faultName(evalErr), true
			rep.Faults++
			traceFault(l.Rec, "env_fault", evalErr, sp.Step-1, retries)
		case rejected != nil:
			st.Rejected, st.Failed = true, true
			rep.Rejected++
			traceFault(l.Rec, "sanitize_reject", rejected, sp.Step-1, retries)
		default:
			st.ExecTime, st.Failed = outcome.ExecTime, outcome.Failed
		}
		rep.Steps = append(rep.Steps, st)
		if improved {
			rep.BestTime, rep.BestAction = sp.BestTime, sp.BestAction
		}
		// A rejected step had its measurement; only a fault can mean that
		// ctx ended the run.
		if err := ctx.Err(); err != nil && evalErr != nil {
			return rep, err
		}
	}
	return rep, nil
}

// traceFault records a step that taught the tuner nothing, kind being
// env_fault or sanitize_reject.
func traceFault(rec trace.Recorder, kind string, err error, step, retries int) {
	if sp := trace.Begin(rec, kind); sp != nil {
		sp.Attr("kind", faultName(err)).AttrInt("step", step).
			AttrInt("retries", retries).Attr("error", err.Error()).End()
	}
}

// evaluate runs one evaluation with up to EvalRetries retries under
// jittered exponential backoff. It returns the number of retries consumed
// alongside the result; ctx ending always stops retrying immediately.
func (h Hardening) evaluate(ctx context.Context, e Environment, action []float64, jrng *rand.Rand) (Outcome, int, error) {
	retries := 0
	for attempt := 0; ; attempt++ {
		o, err := h.evaluateOnce(ctx, e, action)
		if err == nil {
			return o, retries, nil
		}
		if ctx.Err() != nil || attempt >= h.EvalRetries {
			return Outcome{}, retries, err
		}
		retries++
		sleepJittered(ctx, h.retryDelay(attempt+1), jrng)
	}
}

// evaluateOnce performs a single evaluation attempt under the configured
// per-evaluation deadline (if any).
func (h Hardening) evaluateOnce(ctx context.Context, e Environment, action []float64) (Outcome, error) {
	if h.EvalTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.EvalTimeout)
		defer cancel()
	}
	return EvaluateWithContext(ctx, e, action)
}

// retryDelay is the exponential backoff for the attempt-th retry
// (attempt >= 1 corresponds to delay base<<(attempt-1)), capped at 1s.
func (h Hardening) retryDelay(attempt int) time.Duration {
	base := h.RetryBaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	d := base << uint(attempt-1)
	if d > time.Second || d <= 0 {
		d = time.Second
	}
	return d
}

// sleepJittered sleeps for a uniformly jittered duration in [d/2, d],
// returning early if ctx ends.
func sleepJittered(ctx context.Context, d time.Duration, jrng *rand.Rand) {
	if d <= 0 {
		return
	}
	d = d/2 + time.Duration(jrng.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// faultName classifies an evaluation error for reporting: environments can
// name their own fault classes by implementing FaultKind() string (the
// chaos wrapper does); context errors map to "timeout"/"canceled";
// everything else is "error".
func faultName(err error) string {
	var fk interface{ FaultKind() string }
	if errors.As(err, &fk) {
		return fk.FaultKind()
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, ErrNonFinite):
		return "non_finite"
	case errors.Is(err, ErrOutlier):
		return "outlier"
	}
	return "error"
}
