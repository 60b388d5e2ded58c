package env

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"deepcat/internal/mat"
)

// Sanitizer rejection sentinels; callers branch with errors.Is.
var (
	// ErrNonFinite marks a measurement carrying NaN or ±Inf (or a
	// non-positive execution time) — a corrupted metrics pipeline, not a
	// slow run.
	ErrNonFinite = errors.New("non-finite measurement")
	// ErrOutlier marks an execution time implausibly far above the recent
	// history — a straggler or a mis-scaled measurement that would poison
	// the reward if learned from.
	ErrOutlier = errors.New("outlier measurement")
)

// CheckFinite rejects an outcome whose execution time is non-positive or
// non-finite, or whose state/metrics vectors carry NaN or ±Inf. It is the
// first gate every measured outcome passes before reaching the reward,
// the replay buffer, the flight recorder or the warehouse.
func CheckFinite(o Outcome) error {
	switch {
	case !(o.ExecTime > 0) || !mat.Finite(o.ExecTime):
		return fmt.Errorf("exec time %g: %w", o.ExecTime, ErrNonFinite)
	case !mat.AllFinite(o.State):
		return fmt.Errorf("state: %w", ErrNonFinite)
	case !mat.AllFinite(o.Metrics):
		return fmt.Errorf("metrics: %w", ErrNonFinite)
	}
	return nil
}

// Sanitizer is the robust upper-tail outlier test a Stepper applies to
// successful measurements before they are learned from, over the recent
// history of accepted execution times (median absolute deviation, the
// standard robust scale estimate). Only the upper tail is rejected — a
// suspiciously slow measurement is a straggler, while a suspiciously fast
// one may be exactly the improvement the tuner is searching for and must
// never be discarded.
//
// The zero value is unusable; construct with NewSanitizer. Fields are
// exported so session checkpoints can persist the history; the sanitizer
// itself consumes no randomness.
type Sanitizer struct {
	// Window bounds the accepted-measurement history (default 20).
	Window int
	// MADK is the rejection threshold in MAD units above the median
	// (default 8).
	MADK float64
	// MinSamples is the history size below which the outlier test is
	// skipped — with too little history "normal" is unknowable (default 5).
	MinSamples int
	// Recent holds the accepted execution times, oldest first.
	Recent []float64
}

// DefaultMADK is the default rejection threshold: 8 MADs above the median,
// far outside measurement noise but well inside an injected 10x outlier.
const DefaultMADK = 8

// NewSanitizer builds a sanitizer; window <= 0 selects 20 and k <= 0
// selects DefaultMADK.
func NewSanitizer(window int, k float64) *Sanitizer {
	if window <= 0 {
		window = 20
	}
	if k <= 0 {
		k = DefaultMADK
	}
	return &Sanitizer{Window: window, MADK: k, MinSamples: 5}
}

// CheckTime applies the upper-tail MAD test to an execution time without
// admitting it to the history; call Admit once the time has actually been
// used.
func (s *Sanitizer) CheckTime(execTime float64) error {
	if len(s.Recent) < s.MinSamples {
		return nil
	}
	med, mad := MedianMAD(s.Recent)
	// Floor the scale at 5% of the median: a run of near-identical
	// measurements must not make every future measurement an "outlier".
	scale := math.Max(mad, 0.05*med)
	if execTime > med+s.MADK*scale {
		return fmt.Errorf("exec time %.4g > median %.4g + %g*MAD %.4g: %w",
			execTime, med, s.MADK, scale, ErrOutlier)
	}
	return nil
}

// Admit records an accepted execution time, aging out the oldest entry
// beyond the window.
func (s *Sanitizer) Admit(execTime float64) {
	s.Recent = append(s.Recent, execTime)
	if len(s.Recent) > s.Window {
		s.Recent = s.Recent[len(s.Recent)-s.Window:]
	}
}

// MedianMAD returns the median and the median absolute deviation of xs.
// Both are 0 for an empty slice.
func MedianMAD(xs []float64) (median, mad float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	median = quantileSorted(sorted)
	devs := sorted // reuse: the absolute deviations overwrite the copy
	for i, v := range sorted {
		devs[i] = math.Abs(v - median)
	}
	sort.Float64s(devs)
	return median, quantileSorted(devs)
}

// quantileSorted returns the median of an already-sorted slice.
func quantileSorted(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return 0.5 * (sorted[n/2-1] + sorted[n/2])
}
