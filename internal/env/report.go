package env

import (
	"fmt"
	"strings"
)

// TuningStep records one online tuning step: what was recommended, what it
// cost to evaluate, and how long the recommender itself took.
type TuningStep struct {
	// Action is the normalized configuration that was evaluated.
	Action []float64
	// ExecTime is the configuration's measured execution time in seconds
	// (this is also the evaluation cost of the step).
	ExecTime float64
	// RecommendSeconds is the wall-clock time the tuner spent producing
	// the recommendation (model inference, GP retraining, Twin-Q search).
	RecommendSeconds float64
	// Failed reports a failed evaluation (OOM / unschedulable).
	Failed bool
	// Optimized reports that the Twin-Q Optimizer replaced the raw actor
	// output before evaluation (DeepCAT only).
	Optimized bool

	// Fault names the environment fault that ended the step when every
	// retry was exhausted ("crash", "timeout", "unavailable", ...); empty
	// for a measured step. Faulted steps have ExecTime 0 and never update
	// the best configuration.
	Fault string
	// Retries counts evaluation attempts beyond the first (hardened loop
	// only).
	Retries int
	// Rejected reports that the measurement came back but the sanitizer
	// refused it (non-finite or outlier) before it could reach the reward.
	Rejected bool
	// Fallback reports that the step's measurement came from re-running
	// the last known good configuration after the suggested one kept
	// failing.
	Fallback bool
}

// Report summarizes an online tuning session.
type Report struct {
	// Tuner names the approach ("DeepCAT", "CDBTune", "OtterTune").
	Tuner string
	// EnvLabel names the tuned environment.
	EnvLabel string
	Steps    []TuningStep
	// BestTime is the lowest successful execution time observed; BestAction
	// the corresponding configuration. BestTime is +Inf when every step
	// failed.
	BestTime   float64
	BestAction []float64

	// Fault accounting: environment faults that survived retrying, total
	// retry attempts, sanitizer rejections, and last-known-good fallback
	// evaluations. Retries and Fallbacks stay zero without Hardening.
	Faults    int
	Retries   int
	Rejected  int
	Fallbacks int
}

// EvaluationCost returns the summed execution time of all steps (the
// configuration-evaluation component of the paper's "total online tuning
// time").
func (r *Report) EvaluationCost() float64 {
	var s float64
	for _, st := range r.Steps {
		s += st.ExecTime
	}
	return s
}

// RecommendationCost returns the summed recommendation wall-clock time.
func (r *Report) RecommendationCost() float64 {
	var s float64
	for _, st := range r.Steps {
		s += st.RecommendSeconds
	}
	return s
}

// TotalCost is evaluation plus recommendation cost, the paper's total online
// tuning time (§5.2.2).
func (r *Report) TotalCost() float64 {
	return r.EvaluationCost() + r.RecommendationCost()
}

// BestSoFar returns, for each step i, the best successful execution time
// observed in steps 0..i (+Inf until the first success) — the Fig. 8 trace.
func (r *Report) BestSoFar() []float64 {
	out := make([]float64, len(r.Steps))
	best := inf()
	for i, st := range r.Steps {
		if !st.Failed && st.ExecTime < best {
			best = st.ExecTime
		}
		out[i] = best
	}
	return out
}

// AccumulatedCost returns, for each step i, the total tuning cost through
// step i — the Fig. 8 x-axis.
func (r *Report) AccumulatedCost() []float64 {
	out := make([]float64, len(r.Steps))
	var acc float64
	for i, st := range r.Steps {
		acc += st.ExecTime + st.RecommendSeconds
		out[i] = acc
	}
	return out
}

// Speedup returns defaultTime / BestTime (the Fig. 6 metric); 0 when no
// step succeeded.
func (r *Report) Speedup(defaultTime float64) float64 {
	if len(r.Steps) == 0 || r.BestTime <= 0 || r.BestTime > 1e17 {
		return 0
	}
	return defaultTime / r.BestTime
}

// String renders a compact multi-line summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: best %.1fs, eval cost %.1fs, recommend %.2fs\n",
		r.Tuner, r.EnvLabel, r.BestTime, r.EvaluationCost(), r.RecommendationCost())
	for i, st := range r.Steps {
		status := ""
		if st.Failed {
			status = " FAILED"
		}
		if st.Fault != "" {
			status += " FAULT(" + st.Fault + ")"
		}
		if st.Rejected {
			status += " REJECTED"
		}
		if st.Fallback {
			status += " (fallback)"
		}
		if st.Optimized {
			status += " (twin-q optimized)"
		}
		fmt.Fprintf(&b, "  step %d: %.1fs%s\n", i+1, st.ExecTime, status)
	}
	return b.String()
}

func inf() float64 { return 1e18 }
