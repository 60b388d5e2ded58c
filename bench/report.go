package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricSpec names one metric; BENCHMARK.json carries the same table and a
// unit test keeps the two equal. Bound is the share of the parent's median
// an end-to-end metric may lose before -compare (and the driver) call it a
// regression; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists what a user of the tuner sees. Every run reports all of
// them; README.md says which workload is each metric's home. ISSUE 12 asked
// for 10% on medians and rates and 1% on tune_speedup; the measured A/A
// spread of the 2-core sandbox (README.md, "Spread") is 5-10% even on
// thousand-sample medians, and tune_speedup moves 7-17% between seeds, so
// every bound but peak_rss_mb's is the contract's maximum.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"suggest_p50_ms", "ms", "lower", 0.25},
	{"suggest_p99_ms", "ms", "lower", 0.25},
	{"observe_p50_ms", "ms", "lower", 0.25},
	{"observe_p99_ms", "ms", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"train_iters_per_s", "1/s", "higher", 0.25},
	{"recommend_p50_ms", "ms", "lower", 0.25},
	{"tune_speedup", "x", "higher", 0.25},
	{"resume_p50_ms", "ms", "lower", 0.25},
	{"resume_p99_ms", "ms", "lower", 0.25},
	{"restart_s", "s", "lower", 0.25},
	{"handoff_p50_ms", "ms", "lower", 0.25},
	{"create_p50_ms", "ms", "lower", 0.25},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the benchmark contract asks for on the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is everything one run learned; -out writes it, -compare and the
// suite read it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Smoke    bool   `json:"smoke,omitempty"`
	result
	// Samples is how many timings stand behind a metric; Tail is the
	// percentile a *_p99_ms metric really is (99 unless the phase was a
	// probe too short for it).
	Samples map[string]int     `json:"samples"`
	Tail    map[string]float64 `json:"tail_percentile,omitempty"`
	// Quarantined counts observations the daemon's sanitizer refused: valid
	// answers, not failures.
	Quarantined int `json:"quarantined"`
	// DecisionDigest is the SHA-256 over every action of the inline serve
	// sessions and of the tune pipeline ("" when the serve phase ran in
	// spine mode, where adoption timing decides the actions).
	DecisionDigest map[string]string `json:"decision_digest,omitempty"`
	Notes          []string          `json:"notes,omitempty"`
}

func (r *runRecord) set(name, unit string, v float64, samples int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.Samples[name] = samples
}

func (r *runRecord) setTail(name string, s sample) {
	v, pct := s.tail()
	r.set(name, "ms", v, len(s))
	r.Tail[name] = pct
}

// printResult writes the contract's last line.
func (r *runRecord) printResult(w io.Writer) error {
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload runs one workload in this process and prints its report,
// everything except the contract's last line.
func runWorkload(cfg runConfig, w io.Writer) (runRecord, error) {
	rec := runRecord{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Traced, Smoke: cfg.Smoke,
		result:         result{Metrics: map[string]metric{}},
		Samples:        map[string]int{},
		Tail:           map[string]float64{},
		DecisionDigest: map[string]string{},
	}
	sz, err := sizesFor(cfg.Workload, cfg.Seconds, cfg.Smoke)
	if err != nil {
		return rec, err
	}
	root, err := os.MkdirTemp("", "deepcat-bench-")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(root)

	var t tally
	var serveRec, lifeRec *recorder
	if cfg.Traced {
		serveRec, lifeRec = newRecorder(), newRecorder()
	}
	var (
		sv   serveOut
		tn   tuneOut
		lf   lifeOut
		peak float64
	)
	spineMode := cfg.Workload != "serve_inline"
	phases := map[string]func() error{
		"serve": func() (err error) {
			sv, err = runServe(root, cfg.Seed, spineMode, sz.serve, serveRec, &t)
			return err
		},
		"tune": func() (err error) {
			tn, err = runTune(cfg.Seed, sz.tune, &t)
			return err
		},
		"life": func() (err error) {
			lf, err = runLifecycle(filepath.Join(root, "life"), cfg.Seed, sz.life, lifeRec, &t)
			return err
		},
	}
	// The home phase runs first, in a fresh process, and peak RSS is read
	// right after it, so the probes cannot raise it.
	home := map[string]string{"serve_inline": "serve", "serve_spine": "serve", "tune_pipeline": "tune", "lifecycle": "life"}[cfg.Workload]
	order := []string{home}
	for _, name := range []string{"serve", "tune", "life"} {
		if name != home {
			order = append(order, name)
		}
	}
	for i, name := range order {
		if err := phases[name](); err != nil {
			return rec, fmt.Errorf("%s phase: %w", name, err)
		}
		if i == 0 {
			if peak, err = peakRSSMB(); err != nil {
				return rec, err
			}
		}
		// Collect the finished phase's garbage so the next does not pay for
		// it. The pages stay with the process: first touch of fresh memory is
		// slow in a small VM, and returning them would bill the next phase.
		runtime.GC()
	}

	rec.Quarantined = sv.quarantined + lf.quarantine
	if !spineMode {
		rec.DecisionDigest["serve"] = sv.digest
	}
	rec.DecisionDigest["tune"] = tn.digest

	if cfg.Traced {
		// The session replica gets the history a served session has half
		// way through its timed rounds.
		lad, err := runLadder(root, cfg.Seed, spineMode, sz.serve.Warm+sz.serve.Rounds/2, sz.ladder)
		if err != nil {
			return rec, fmt.Errorf("ladder: %w", err)
		}
		ledger := perLayer(&rec, home, sv, tn, lf, lad, serveRec, lifeRec)
		ledger.print(w, 0)
		if cfg.Out != "" {
			if err := writeJSON(filepath.Join(cfg.Out, "ledger_"+cfg.Workload+".json"), ledger); err != nil {
				return rec, err
			}
		}
	} else {
		setup := map[string]sample{"serve": sv.setupS, "tune": tn.setupS, "life": lf.setupS}[home]
		rec.set("setup_s", "s", setup.median(), len(setup))
		rec.set("suggest_p50_ms", "ms", sv.suggestMs.median(), len(sv.suggestMs))
		rec.setTail("suggest_p99_ms", sv.suggestMs)
		rec.set("observe_p50_ms", "ms", sv.observeMs.median(), len(sv.observeMs))
		rec.setTail("observe_p99_ms", sv.observeMs)
		rec.set("rounds_per_s", "1/s", sv.rate, sv.rounds)
		rec.set("peak_rss_mb", "MB", peak, 1)
		rec.set("train_iters_per_s", "1/s", tn.itersPerS.median(), tn.offlineIters)
		rec.set("recommend_p50_ms", "ms", tn.recommendMs.median(), len(tn.recommendMs))
		rec.set("tune_speedup", "x", tn.speedups.mean(), len(tn.speedups))
		rec.set("resume_p50_ms", "ms", lf.resumeMs.median(), len(lf.resumeMs))
		rec.setTail("resume_p99_ms", lf.resumeMs)
		rec.set("restart_s", "s", lf.restartS.median(), len(lf.restartS))
		rec.set("handoff_p50_ms", "ms", lf.handoffMs.median(), len(lf.handoffMs))
		rec.set("create_p50_ms", "ms", lf.createMs.median(), len(lf.createMs))
		// A metric of 0 means its sample is empty: the operations behind it
		// failed, which the tally has already counted.
	}

	rec.Attempted, rec.Failed, rec.Notes = t.attempted, t.failed, t.notes
	rec.Correct = t.failed == 0
	rec.printReport(w, home)
	if cfg.Out != "" {
		name := "run_" + cfg.Workload
		if cfg.Traced {
			name += "_traced"
		}
		if err := writeJSON(filepath.Join(cfg.Out, name+".json"), rec); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

// printReport prints every metric by name with its unit and sample count.
func (r *runRecord) printReport(w io.Writer, home string) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  %s  home phase %s\n", r.Workload, r.Seed, r.Seconds, mode, home)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-34s %14.6g %-6s n=%d", name, m.Value, m.Unit, r.Samples[name])
		if pct, ok := r.Tail[name]; ok && pct != 99 {
			line += fmt.Sprintf("  (probe: p%.1f, too few samples for p99)", pct)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d; observations quarantined %d (valid answers)\n",
		r.Attempted, r.Failed, r.Quarantined)
	for phase, d := range r.DecisionDigest {
		fmt.Fprintf(w, "  decision_digest[%s] %s\n", phase, d)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  FAILED %s\n", n)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, from /proc.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
