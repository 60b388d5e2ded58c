package main

import (
	"fmt"
	"io"
)

// compareFiles prints, per workload and end-to-end metric, how far B is from
// A against the metric's bound, and returns how many pairings breach it. B
// worse than A by more than the bound is a breach; so is a failed operation
// in B, and so are two decision digests of one seed that differ (the
// bit-identical decision contract).
func compareFiles(pathA, pathB string, w io.Writer) (breaches int, err error) {
	var a, b suiteResults
	if err := readJSON(pathA, &a); err != nil {
		return 0, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return 0, err
	}
	return compareSuites(a, b, w), nil
}

// worsening returns by what share of a the value b is worse (negative when
// it is better).
func worsening(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareSuites(a, b suiteResults, w io.Writer) (breaches int) {
	sameSeed := a.Seed == b.Seed && a.Seconds == b.Seconds
	fmt.Fprintf(w, "A: seed %d, %d s   B: seed %d, %d s\n", a.Seed, a.Seconds, b.Seed, b.Seconds)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B worse", "bound")
	for _, ra := range a.Runs {
		if ra.Traced {
			continue
		}
		rb, ok := findRun(b, ra.Workload)
		if !ok {
			fmt.Fprintf(w, "%-14s missing from B  BREACH\n", ra.Workload)
			breaches++
			continue
		}
		for _, spec := range endToEnd {
			ma, mb := ra.Metrics[spec.Name], rb.Metrics[spec.Name]
			d := worsening(spec, ma.Value, mb.Value)
			verdict := ""
			// tune_speedup is a property of the seed, not of the machine:
			// across seeds it is printed, not judged.
			if d > spec.Bound && (sameSeed || spec.Name != "tune_speedup") {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				ra.Workload, spec.Name, ma.Value, mb.Value, 100*d, 100*spec.Bound, verdict)
		}
		if rb.Failed > 0 {
			fmt.Fprintf(w, "%-14s %d of %d operations failed in B  BREACH\n", ra.Workload, rb.Failed, rb.Attempted)
			breaches++
		}
		if sameSeed {
			for phase, da := range ra.DecisionDigest {
				if db := rb.DecisionDigest[phase]; db != da {
					fmt.Fprintf(w, "%-14s decision_digest[%s] differs: %.12s vs %.12s  BREACH\n", ra.Workload, phase, da, db)
					breaches++
				}
			}
		}
	}
	fmt.Fprintf(w, "%d breach(es)\n", breaches)
	return breaches
}

func findRun(s suiteResults, workload string) (runRecord, bool) {
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Traced {
			return r, true
		}
	}
	return runRecord{}, false
}
