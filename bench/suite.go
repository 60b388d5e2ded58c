package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteResults is results.json: every run of one suite, the file -compare
// reads.
type suiteResults struct {
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// suiteRuns is how many times the suite repeats each untraced workload; a
// suite's end-to-end value is the median of the repeats, which is what lets
// two suites of one commit agree within the bounds on a host whose speed
// drifts by more than a bound between single runs.
const suiteRuns = 3

// runSuite runs every workload suiteRuns times untraced and once traced,
// each run in a process of its own so that peak RSS, heap and GC state never
// leak from one into the next, and gathers the records into
// <out>/results.json: per workload one untraced record holding the medians
// and one traced record.
func runSuite(cfg runConfig, stdout, stderr io.Writer) error {
	if cfg.Out == "" {
		return fmt.Errorf("running every workload needs -out DIR for results.json")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(wl string, traced bool) (runRecord, error) {
		args := []string{
			"-workload", wl, "-seed", strconv.FormatInt(cfg.Seed, 10),
			"-seconds", strconv.Itoa(cfg.Seconds), "-trace", strconv.Itoa(btoi(traced)), "-out", cfg.Out,
		}
		if cfg.Smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			return runRecord{}, fmt.Errorf("workload %s (trace %v): %w", wl, traced, err)
		}
		name := "run_" + wl
		if traced {
			name += "_traced"
		}
		var rec runRecord
		err := readJSON(filepath.Join(cfg.Out, name+".json"), &rec)
		return rec, err
	}
	res := suiteResults{Seed: cfg.Seed, Seconds: cfg.Seconds}
	for _, wl := range workloads {
		var repeats []runRecord
		for i := 0; i < suiteRuns; i++ {
			rec, err := child(wl, false)
			if err != nil {
				return err
			}
			repeats = append(repeats, rec)
		}
		traced, err := child(wl, true)
		if err != nil {
			return err
		}
		res.Runs = append(res.Runs, medianRecord(repeats), traced)
	}
	failed := 0
	for _, r := range res.Runs {
		failed += r.Failed
	}
	fmt.Fprintf(stdout, "suite: %d workloads x (%d untraced + 1 traced) runs, %d failed operations, results in %s\n",
		len(workloads), suiteRuns, failed, filepath.Join(cfg.Out, "results.json"))
	if err := writeJSON(filepath.Join(cfg.Out, "results.json"), res); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// medianRecord folds repeats of one workload and seed into one record: each
// metric the median of the repeats, operations summed. Repeats that disagree
// on a decision digest count as one failed operation each: a run is a pure
// function of its seed.
func medianRecord(repeats []runRecord) runRecord {
	out := repeats[0]
	out.Metrics = map[string]metric{}
	out.Attempted, out.Failed = 0, 0
	for name, m := range repeats[0].Metrics {
		var vals sample
		for _, r := range repeats {
			vals = append(vals, r.Metrics[name].Value)
		}
		out.Metrics[name] = metric{Value: vals.median(), Unit: m.Unit}
	}
	for _, r := range repeats {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for phase, d := range r.DecisionDigest {
			if d != repeats[0].DecisionDigest[phase] {
				out.Failed++
				out.Notes = append(out.Notes, fmt.Sprintf("decision_digest[%s] differs between repeats of seed %d", phase, r.Seed))
			}
		}
	}
	out.Correct = out.Failed == 0
	return out
}
