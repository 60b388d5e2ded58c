package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"deepcat/internal/env"
)

// scriptedEnv wraps a real simulator environment and applies a per-call
// modifier from the script (nil entries and calls past the script pass
// through), giving tests precise control over which evaluations fail,
// corrupt or inflate.
type scriptedEnv struct {
	*env.SparkEnv
	calls  int
	script []func(o env.Outcome) (env.Outcome, error)
}

func (s *scriptedEnv) EvaluateCtx(ctx context.Context, u []float64) (env.Outcome, error) {
	i := s.calls
	s.calls++
	o := s.SparkEnv.Evaluate(u)
	if i < len(s.script) && s.script[i] != nil {
		return s.script[i](o)
	}
	return o, nil
}

func (s *scriptedEnv) Evaluate(u []float64) env.Outcome {
	o, err := s.EvaluateCtx(context.Background(), u)
	if err != nil {
		return env.Outcome{ExecTime: s.DefaultTime(), Failed: true, State: s.IdleState()}
	}
	return o
}

var errScripted = errors.New("scripted evaluation failure")

func fail(env.Outcome) (env.Outcome, error) { return env.Outcome{}, errScripted }

func hardenedTuner(t *testing.T, e env.Environment, seed int64) *DeepCAT {
	t.Helper()
	cfg := DefaultConfig(e.StateDim(), e.Space().Dim())
	cfg.FineTuneIters = 2
	d, err := New(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runOnline drives d through env.RunOnline for its configured step count
// under the fault policy h.
func runOnline(ctx context.Context, d *DeepCAT, e env.Environment, h env.Hardening) (*env.Report, error) {
	return env.RunOnline(ctx, d, e, env.Loop{Steps: d.Cfg.OnlineSteps, Hardening: h})
}

// TestRunOnlineZeroHardeningMatchesClassic asserts the delegation contract:
// with zero Hardening, snapshot-identical tuners on identical environments
// produce bit-identical trajectories through OnlineTune (the classic entry
// point) and env.RunOnline.
func TestRunOnlineZeroHardeningMatchesClassic(t *testing.T) {
	d := newTuner(t, testEnv(t, "TS"), 11)
	d.Cfg.FineTuneIters = 2
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	repA := a.OnlineTune(testEnv(t, "TS"))
	repB, err := runOnline(context.Background(), b, testEnv(t, "TS"), env.Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if len(repA.Steps) != len(repB.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(repA.Steps), len(repB.Steps))
	}
	for i := range repA.Steps {
		sa, sb := repA.Steps[i], repB.Steps[i]
		if sa.ExecTime != sb.ExecTime {
			t.Fatalf("step %d exec time %g vs %g", i, sa.ExecTime, sb.ExecTime)
		}
		for j := range sa.Action {
			if sa.Action[j] != sb.Action[j] {
				t.Fatalf("step %d action[%d] %g vs %g", i, j, sa.Action[j], sb.Action[j])
			}
		}
	}
	if repA.BestTime != repB.BestTime {
		t.Fatalf("best time %g vs %g", repA.BestTime, repB.BestTime)
	}
	if repB.Faults+repB.Retries+repB.Rejected+repB.Fallbacks != 0 {
		t.Fatalf("classic run reported hardened accounting: %+v", repB)
	}
}

func TestHardenedRetryRecoversTransientFailure(t *testing.T) {
	se := &scriptedEnv{
		SparkEnv: testEnv(t, "TS"),
		// Step 1's first two attempts fail; the third succeeds.
		script: []func(env.Outcome) (env.Outcome, error){fail, fail},
	}
	d := hardenedTuner(t, se, 12)
	rep, err := runOnline(context.Background(), d, se, env.Hardening{EvalRetries: 2, RetryBaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != 0 {
		t.Fatalf("transient failure escalated to a fault: %+v", rep)
	}
	if rep.Retries != 2 || rep.Steps[0].Retries != 2 {
		t.Fatalf("retries = %d (step: %d), want 2", rep.Retries, rep.Steps[0].Retries)
	}
	if rep.Steps[0].Fault != "" || rep.Steps[0].ExecTime <= 0 {
		t.Fatalf("retried step not measured: %+v", rep.Steps[0])
	}
}

func TestHardenedFallbackToLastKnownGood(t *testing.T) {
	se := &scriptedEnv{
		SparkEnv: testEnv(t, "TS"),
		// Step 1 (call 0) succeeds and becomes the LKG; step 2's only
		// attempt (call 1) fails, so call 2 is the LKG fallback.
		script: []func(env.Outcome) (env.Outcome, error){nil, fail},
	}
	d := hardenedTuner(t, se, 13)
	rep, err := runOnline(context.Background(), d, se, env.Hardening{FallbackLKG: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1: %s", rep.Fallbacks, rep)
	}
	st := rep.Steps[1]
	if !st.Fallback || st.Fault != "" || st.ExecTime <= 0 {
		t.Fatalf("step 2 = %+v, want measured fallback", st)
	}
	for j := range st.Action {
		if st.Action[j] != rep.Steps[0].Action[j] {
			// The fallback must have evaluated the step-1 (best) action.
			if rep.BestAction[j] != st.Action[j] {
				t.Fatalf("fallback action is not the last known good")
			}
		}
	}
}

func TestHardenedFaultWithoutFallback(t *testing.T) {
	se := &scriptedEnv{
		SparkEnv: testEnv(t, "TS"),
		script:   []func(env.Outcome) (env.Outcome, error){fail, fail, fail, fail, fail},
	}
	d := hardenedTuner(t, se, 14)
	before := d.Buffer.Len()
	rep, err := runOnline(context.Background(), d, se, env.Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != len(rep.Steps) {
		t.Fatalf("faults = %d over %d steps, want all faulted", rep.Faults, len(rep.Steps))
	}
	for i, st := range rep.Steps {
		if st.Fault != "error" || !st.Failed || st.ExecTime != 0 {
			t.Fatalf("step %d = %+v, want zero-time fault", i, st)
		}
	}
	if d.Buffer.Len() != before {
		t.Fatal("faulted steps reached the replay buffer")
	}
	if rep.BestAction != nil || rep.BestTime < 1e18 {
		t.Fatalf("all-faulted run claims a best configuration: %+v", rep)
	}
}

func TestHardenedSanitizerQuarantinesCorruption(t *testing.T) {
	corruptNaN := func(o env.Outcome) (env.Outcome, error) {
		o.ExecTime = math.NaN()
		return o, nil
	}
	se := &scriptedEnv{
		SparkEnv: testEnv(t, "TS"),
		script:   []func(env.Outcome) (env.Outcome, error){nil, corruptNaN},
	}
	d := hardenedTuner(t, se, 15)
	rep, err := runOnline(context.Background(), d, se, env.Hardening{SanitizeWindow: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 1 || !rep.Steps[1].Rejected {
		t.Fatalf("NaN measurement not quarantined: %s", rep)
	}
	// One transition per measured step; the quarantined step adds none.
	if want := len(rep.Steps) - 1; d.Buffer.Len() != want {
		t.Fatalf("buffer holds %d transitions, want %d", d.Buffer.Len(), want)
	}
	for i, st := range rep.Steps {
		if !st.Rejected && (math.IsNaN(st.ExecTime) || math.IsInf(st.ExecTime, 0)) {
			t.Fatalf("step %d carries a non-finite measured time", i)
		}
	}
}

func TestRunOnlineHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := newTuner(t, testEnv(t, "TS"), 16)
	rep, err := runOnline(ctx, d, testEnv(t, "TS"), env.Hardening{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run = %v, want context.Canceled", err)
	}
	if len(rep.Steps) != 0 {
		t.Fatalf("cancelled-before-start run recorded %d steps", len(rep.Steps))
	}
}
