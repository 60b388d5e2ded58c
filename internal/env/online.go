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
	// Hardening is the fault policy; the zero value is the classic
	// infallible loop.
	Hardening Hardening
	// Rec receives fault and quarantine events; nil records nothing.
	Rec trace.Recorder
}

// Hardening configures the fault-tolerant online loop. The zero value
// disables every mechanism, making RunOnline behave exactly like the
// classic infallible loop; enable pieces independently as the target
// environment warrants.
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
	// SanitizeWindow enables the outcome sanitizer with this many recent
	// successful execution times as the outlier baseline; 0 disables
	// sanitizing entirely (including the non-finite check).
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

// RunOnline is the online tuning loop of the paper's Fig. 1: at each step
// the tuner suggests a configuration for the current state, the
// environment evaluates it, and the tuner learns from the measurement; the
// best configuration found is reported. l.Hardening adds per-evaluation
// deadlines, jittered retry, last-known-good fallback and outcome
// sanitizing. Faulted and quarantined steps never reach Learn, but they set
// the failure flag so the next Suggest can explore away.
//
// Each step's RecommendSeconds is the wall time spent inside Suggest and
// Learn. The report's Tuner name is left for the caller to fill in. The
// returned error is non-nil only when ctx ends the run early; the report
// always covers the steps completed so far.
func RunOnline(ctx context.Context, t Tuner, e Environment, l Loop) (*Report, error) {
	h := l.Hardening
	var san *Sanitizer
	if h.SanitizeWindow > 0 {
		san = NewSanitizer(h.SanitizeWindow, h.SanitizeMADK)
	}
	// Backoff jitter only; deliberately not the tuner's RNG, so hardened
	// and classic runs consume identical tuner randomness.
	jrng := rand.New(rand.NewSource(1))

	rep := &Report{EnvLabel: e.Label(), BestTime: inf()}
	state := e.IdleState()
	defTime := e.DefaultTime()
	prevTime := defTime
	lastFailed := false
	for step := 0; step < l.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if l.BudgetSeconds > 0 && rep.TotalCost() >= l.BudgetSeconds {
			break
		}
		start := time.Now()
		action, optimized := t.Suggest(state, lastFailed)
		st := TuningStep{
			Action:           mat.CloneSlice(action),
			Optimized:        optimized,
			RecommendSeconds: time.Since(start).Seconds(),
		}
		outcome, retries, evalErr := h.evaluate(ctx, e, action, jrng)
		st.Retries = retries
		rep.Retries += retries

		if evalErr != nil && h.FallbackLKG && rep.BestAction != nil && ctx.Err() == nil {
			if fo, ferr := h.evaluateOnce(ctx, e, rep.BestAction); ferr == nil && san.Check(fo) == nil {
				outcome, evalErr = fo, nil
				action = rep.BestAction
				st.Action = mat.CloneSlice(rep.BestAction)
				st.Fallback = true
				rep.Fallbacks++
			}
		}
		kind := "env_fault"
		if evalErr != nil {
			st.Fault = faultName(evalErr)
			rep.Faults++
		} else if evalErr = san.Check(outcome); evalErr != nil {
			kind, st.Rejected = "sanitize_reject", true
			rep.Rejected++
		}
		if evalErr != nil {
			st.Failed = true
			rep.Steps = append(rep.Steps, st)
			lastFailed = true
			if sp := trace.Begin(l.Rec, kind); sp != nil {
				sp.Attr("kind", faultName(evalErr)).AttrInt("step", step).
					AttrInt("retries", retries).Attr("error", evalErr.Error()).End()
			}
			// A quarantined step had its measurement; only a fault can
			// mean that ctx ended the run.
			if err := ctx.Err(); err != nil && !st.Rejected {
				return rep, err
			}
			continue
		}

		start = time.Now()
		t.Learn(Observation{
			State:    state,
			Action:   action,
			Outcome:  outcome,
			PrevTime: prevTime,
			DefTime:  defTime,
			Done:     step == l.Steps-1,
		})
		st.RecommendSeconds += time.Since(start).Seconds()
		if san != nil && !outcome.Failed {
			san.Admit(outcome.ExecTime)
		}
		st.ExecTime = outcome.ExecTime
		st.Failed = outcome.Failed
		rep.Steps = append(rep.Steps, st)
		if !outcome.Failed && outcome.ExecTime < rep.BestTime {
			rep.BestTime = outcome.ExecTime
			rep.BestAction = mat.CloneSlice(action)
		}
		lastFailed = outcome.Failed
		prevTime = outcome.ExecTime
		state = outcome.State
	}
	return rep, nil
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
		sleepJittered(ctx, h.retryDelay(attempt), jrng)
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
