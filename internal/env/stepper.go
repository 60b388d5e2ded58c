package env

import "deepcat/internal/mat"

// Stepper is the one online tuning step of the paper's Fig. 1, with its
// bookkeeping: Next asks the tuner for a configuration for the current
// state; Record takes what was actually evaluated, sanitizes it, lets the
// tuner learn from it and advances the state, the reward context and the
// best configuration found. Both online loops run it: RunOnline pulls
// measurements from an Environment, and the tuning service's sessions are
// pushed them by an external scheduler.
//
// Every measurement passes CheckFinite; San, when set, adds the upper-tail
// outlier test for successful runs (a failed run's execution time is a
// penalty price, not a measurement). Faulted and rejected steps never
// reach Learn, but they set LastFailed so the next Next can explore away.
type Stepper struct {
	tuner Tuner
	// San is the outlier test; nil leaves only the non-finite check.
	San *Sanitizer
	// defTime is the default configuration's execution time, the
	// reward's baseline.
	defTime float64
	// Horizon is the session length: the transition recorded at step
	// Horizon is marked Done. 0 means open-ended.
	Horizon int

	// The progress, exported so a caller can persist and restore it: the
	// steps recorded (faulted and rejected ones included), the state the
	// next suggestion is for, the last learned execution time (the default
	// configuration's before the first), whether the last step gave no successful run, and
	// the best successful configuration (nil, with BestTime 0, until one).
	Step       int
	State      []float64
	PrevTime   float64
	LastFailed bool
	BestTime   float64
	BestAction []float64
}

// NewStepper starts a session of t on e at its idle state. A positive
// window enables the outlier test over that many recent execution times,
// with threshold madK (see NewSanitizer).
func NewStepper(t Tuner, e Environment, window int, madK float64) *Stepper {
	s := &Stepper{tuner: t, defTime: e.DefaultTime(), State: e.IdleState(), PrevTime: e.DefaultTime()}
	if window > 0 {
		s.San = NewSanitizer(window, madK)
	}
	return s
}

// Next returns the tuner's suggestion for the current state and whether
// the tuner replaced its raw recommendation before returning it.
func (s *Stepper) Next() (action []float64, optimized bool) {
	return s.tuner.Suggest(s.State, s.LastFailed)
}

// Record closes one step. fault, when non-nil, is why the step produced no
// measurement; otherwise o is the outcome of evaluating action, which need
// not be the one Next returned (a caller may fall back to BestAction). A
// measurement the sanitizer refuses is returned as rejected and, like a
// fault, teaches the tuner nothing; an accepted one is learned from and
// improved reports whether it set a new best.
func (s *Stepper) Record(action []float64, o Outcome, fault error) (rejected error, improved bool) {
	s.Step++
	if fault == nil {
		rejected = s.check(o)
	}
	if fault != nil || rejected != nil {
		s.LastFailed = true
		return rejected, false
	}
	s.tuner.Learn(Observation{
		State:    s.State,
		Action:   action,
		Outcome:  o,
		PrevTime: s.PrevTime,
		DefTime:  s.defTime,
		Done:     s.Step == s.Horizon,
	})
	if !o.Failed {
		if s.San != nil {
			s.San.Admit(o.ExecTime)
		}
		if improved = s.BestAction == nil || o.ExecTime < s.BestTime; improved {
			s.BestTime = o.ExecTime
			s.BestAction = mat.CloneSlice(action)
		}
	}
	s.LastFailed = o.Failed
	s.PrevTime = o.ExecTime
	s.State = o.State
	return nil, improved
}

// check is the sanitizer verdict on o without admitting it.
func (s *Stepper) check(o Outcome) error {
	err := CheckFinite(o)
	if err == nil && s.San != nil && !o.Failed {
		err = s.San.CheckTime(o.ExecTime)
	}
	return err
}
