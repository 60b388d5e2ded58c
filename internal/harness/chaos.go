package harness

import (
	"context"
	"fmt"
	"io"
	"math"

	"deepcat/internal/chaos"
	"deepcat/internal/core"
	"deepcat/internal/env"
	"deepcat/internal/sparksim"
)

// ChaosOptions configures one chaos-versus-baseline experiment.
type ChaosOptions struct {
	// Workload and InputIdx pick the Cluster-A pair to tune.
	Workload sparksim.Workload
	InputIdx int
	// Chaos is the fault profile injected into the faulted run.
	Chaos chaos.Config
	// Hardening is the fault policy of the faulted run's online loop; the
	// zero value selects env.DefaultHardening().
	Hardening env.Hardening
	// Steps overrides the online tuning budget for both runs (0 keeps the
	// harness default).
	Steps int
}

// ChaosResult compares one fault-free online tuning run against a
// fault-injected run of the same offline-trained agent: both start from the
// same snapshot, tune identically-seeded simulators, and differ only in the
// chaos wrapper and the hardened loop absorbing it.
type ChaosResult struct {
	EnvLabel string
	Chaos    chaos.Config
	// Stats counts the faults the chaos wrapper actually injected.
	Stats chaos.Stats
	// Baseline is the fault-free run; Faulted the run under injection.
	Baseline *env.Report
	Faulted  *env.Report
	// Gap is the relative best-time regression of the faulted run,
	// (faulted - baseline) / baseline; negative when the faulted run found
	// a better configuration despite the faults. +Inf when every faulted
	// step failed.
	Gap float64
}

// RunChaos trains (or reuses) the pair's offline model, snapshots it, and
// restores two identical tuners: one runs the classic loop against a clean
// simulator, the other runs the hardened loop against a chaos-wrapped clone
// of the same simulator. Fresh simulators seeded alike keep the two
// trajectories comparable; the snapshot keeps the agents bit-identical at
// the start of online tuning.
func (h *Harness) RunChaos(ctx context.Context, opts ChaosOptions) (*ChaosResult, error) {
	steps := opts.Steps
	if steps <= 0 {
		steps = h.Opts.OnlineSteps
	}
	hard := opts.Hardening
	if hard == (env.Hardening{}) {
		hard = env.DefaultHardening()
	}

	model := h.DeepCATModel(h.EnvA(opts.Workload, opts.InputIdx), 0)
	snap, err := model.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("harness: chaos snapshot: %w", err)
	}

	newEnv := func() *env.SparkEnv {
		sim := sparksim.NewSimulator(sparksim.ClusterA(), h.Opts.Seed)
		return env.NewSparkEnv(sim, opts.Workload, opts.InputIdx)
	}

	base, err := core.Restore(snap)
	if err != nil {
		return nil, err
	}
	baseRep, err := env.RunOnline(ctx, base, newEnv(), env.Loop{Steps: steps})
	if err != nil {
		return nil, fmt.Errorf("harness: baseline run: %w", err)
	}

	faulted, err := core.Restore(snap)
	if err != nil {
		return nil, err
	}
	chaosEnv := chaos.Wrap(newEnv(), opts.Chaos)
	faultRep, err := env.RunOnline(ctx, faulted, chaosEnv, env.Loop{Steps: steps, Hardening: hard})
	if err != nil {
		return nil, fmt.Errorf("harness: faulted run: %w", err)
	}
	baseRep.Tuner, faultRep.Tuner = "DeepCAT", "DeepCAT"

	res := &ChaosResult{
		EnvLabel: chaosEnv.Label(),
		Chaos:    opts.Chaos,
		Stats:    chaosEnv.Stats(),
		Baseline: baseRep,
		Faulted:  faultRep,
		Gap:      math.Inf(1),
	}
	if baseRep.BestTime > 0 && !math.IsInf(faultRep.BestTime, 0) {
		res.Gap = (faultRep.BestTime - baseRep.BestTime) / baseRep.BestTime
	}
	return res, nil
}

// Fprint renders the comparison as an aligned text table.
func (r *ChaosResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Chaos comparison — %s\n", r.EnvLabel)
	writeRow(w, "  faults injected: %d/%d evals (crash %d, hang %d, outlier %d, corrupt %d, unavailable %d)",
		r.Stats.Faults(), r.Stats.Evals, r.Stats.Crashes, r.Stats.Hangs,
		r.Stats.Outliers, r.Stats.Corruptions, r.Stats.Unavailable)
	writeRow(w, "  %-10s %12s %8s %8s %8s %8s", "run", "best time", "faults", "retries", "rejects", "fallbacks")
	writeRow(w, "  %-10s %12.2f %8d %8d %8d %8d", "baseline",
		r.Baseline.BestTime, r.Baseline.Faults, r.Baseline.Retries, r.Baseline.Rejected, r.Baseline.Fallbacks)
	writeRow(w, "  %-10s %12.2f %8d %8d %8d %8d", "faulted",
		r.Faulted.BestTime, r.Faulted.Faults, r.Faulted.Retries, r.Faulted.Rejected, r.Faulted.Fallbacks)
	writeRow(w, "  best-time gap: %+.2f%%", r.Gap*100)
}
