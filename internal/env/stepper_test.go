package env

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// scriptEnv is a minimal fallible Environment: its first fails
// evaluations fail, after which call i returns outs[i] (the last entry
// repeating).
type scriptEnv struct {
	Environment
	fails, calls int
	outs         []Outcome
}

func (s *scriptEnv) DefaultTime() float64 { return 100 }
func (s *scriptEnv) IdleState() []float64 { return []float64{0} }
func (s *scriptEnv) Label() string        { return "script" }

func (s *scriptEnv) EvaluateCtx(ctx context.Context, u []float64) (Outcome, error) {
	i := s.calls
	s.calls++
	if i < s.fails {
		return Outcome{}, errors.New("scripted failure")
	}
	return s.outs[min(i-s.fails, len(s.outs)-1)], nil
}

// recordingTuner suggests a fixed action and keeps what it learns and the
// failure flags it was asked with.
type recordingTuner struct {
	learned    []Observation
	lastFailed []bool
}

func (r *recordingTuner) Suggest(state []float64, lastFailed bool) ([]float64, bool) {
	r.lastFailed = append(r.lastFailed, lastFailed)
	return []float64{0.5}, false
}

func (r *recordingTuner) Learn(o Observation) { r.learned = append(r.learned, o) }

func TestStepperRecord(t *testing.T) {
	tu := &recordingTuner{}
	s := NewStepper(tu, &scriptEnv{}, 0, 0)
	s.Horizon = 3
	if rej, imp := s.Record([]float64{0.1}, Outcome{}, errors.New("crash")); rej != nil || imp || !s.LastFailed || len(tu.learned) != 0 {
		t.Fatalf("fault: rejected %v improved %v last failed %v learned %d", rej, imp, s.LastFailed, len(tu.learned))
	}
	if _, imp := s.Record([]float64{0.2}, Outcome{ExecTime: 30, Failed: true, State: []float64{1}}, nil); imp || !s.LastFailed || s.BestAction != nil {
		t.Fatalf("failed run: improved %v last failed %v best %v", imp, s.LastFailed, s.BestAction)
	}
	if _, imp := s.Record([]float64{0.3}, Outcome{ExecTime: 60, State: []float64{2}}, nil); !imp || s.LastFailed || s.BestTime != 60 || s.BestAction[0] != 0.3 {
		t.Fatalf("success: improved %v last failed %v best %g %v", imp, s.LastFailed, s.BestTime, s.BestAction)
	}
	if s.Step != 3 || len(tu.learned) != 2 {
		t.Fatalf("step %d, learned %d; want 3 and 2", s.Step, len(tu.learned))
	}
	first, last := tu.learned[0], tu.learned[1]
	if first.PrevTime != 100 || first.Done || last.PrevTime != 30 || last.State[0] != 1 || !last.Done {
		t.Fatalf("reward context: first %+v, last %+v", first, last)
	}
}

// TestRunOnlineFirstRetryHonoursBaseDelay pins that the backoff starts at
// RetryBaseDelay: two retries under a 1 ms base take milliseconds, not the
// 1 s cap.
func TestRunOnlineFirstRetryHonoursBaseDelay(t *testing.T) {
	e := &scriptEnv{fails: 2, outs: []Outcome{{ExecTime: 50, State: []float64{0}}}}
	start := time.Now()
	rep, err := RunOnline(context.Background(), &recordingTuner{}, e, Loop{
		Steps:     1,
		Hardening: Hardening{EvalRetries: 2, RetryBaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 50*time.Millisecond {
		t.Fatalf("2 retries under a 1ms base took %v", elapsed)
	}
	if rep.Retries != 2 || rep.Faults != 0 || rep.Steps[0].ExecTime != 50 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestRunOnlineZeroHardeningRejectsNonFinite pins the one finite policy:
// even with every hardening mechanism off, a NaN state is quarantined
// before it can reach Learn, and the next suggestion sees the failure.
func TestRunOnlineZeroHardeningRejectsNonFinite(t *testing.T) {
	e := &scriptEnv{outs: []Outcome{
		{ExecTime: 50, State: []float64{math.NaN()}},
		{ExecTime: 40, State: []float64{0}},
	}}
	tu := &recordingTuner{}
	rep, err := RunOnline(context.Background(), tu, e, Loop{Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 1 || !rep.Steps[0].Rejected || rep.Steps[1].Rejected {
		t.Fatalf("NaN state not quarantined: %s", rep)
	}
	if len(tu.learned) != 1 || math.IsNaN(tu.learned[0].State[0]) || tu.learned[0].Outcome.ExecTime != 40 {
		t.Fatalf("learned %+v, want only the finite second step", tu.learned)
	}
	if !tu.lastFailed[1] {
		t.Fatal("the step after a quarantine was not told it failed")
	}
	if rep.BestTime != 40 {
		t.Fatalf("best time %g, want 40", rep.BestTime)
	}
}
