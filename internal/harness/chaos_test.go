package harness

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"deepcat/internal/chaos"
	"deepcat/internal/env"
	"deepcat/internal/sparksim"
)

// chaosProfile is the acceptance fault mix: well above a 10% injected fault
// rate across four classes.
func chaosProfile(seed int64) chaos.Config {
	return chaos.Config{
		Seed:          seed,
		CrashRate:     0.10,
		HangRate:      0.05,
		HangDuration:  5 * time.Millisecond,
		OutlierRate:   0.10,
		OutlierFactor: 25,
		CorruptRate:   0.10,
	}
}

func chaosWorkload(t *testing.T, short string) sparksim.Workload {
	t.Helper()
	w, err := sparksim.WorkloadByShort(short)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRunChaosConvergence is the chaos acceptance test: a hardened run under
// a >=10% fault rate must converge within 15% of the fault-free run of the
// same snapshot, and the report must show faults were actually absorbed
// (retried, rejected or fallen back on) rather than never injected. It runs
// in -short mode on purpose — CI's short pass is the chaos gate.
func TestRunChaosConvergence(t *testing.T) {
	h := New(tinyOptions())
	res, err := h.RunChaos(context.Background(), ChaosOptions{
		Workload: chaosWorkload(t, "TS"),
		InputIdx: 1,
		Chaos:    chaosProfile(7),
		Steps:    12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Faults() == 0 {
		t.Fatal("chaos profile injected no faults; the run proves nothing")
	}
	if rate := float64(res.Stats.Faults()) / float64(res.Stats.Evals); rate < 0.10 {
		t.Fatalf("injected fault rate %.2f, want >= 0.10", rate)
	}
	if math.IsInf(res.Faulted.BestTime, 0) {
		t.Fatal("faulted run never measured a successful step")
	}
	if res.Gap > 0.15 {
		var buf bytes.Buffer
		res.Fprint(&buf)
		t.Fatalf("faulted run converged %.1f%% worse than baseline, want <= 15%%\n%s",
			res.Gap*100, buf.String())
	}
	if res.Faulted.Faults+res.Faulted.Rejected+res.Faulted.Fallbacks+res.Faulted.Retries == 0 {
		t.Fatal("hardened loop reports no fault handling despite injected faults")
	}
	if res.Baseline.Faults+res.Baseline.Rejected+res.Baseline.Fallbacks != 0 {
		t.Fatalf("baseline run reports fault handling: %+v", res.Baseline)
	}

	var buf bytes.Buffer
	res.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"Chaos comparison", "baseline", "faulted", "best-time gap"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fprint output missing %q:\n%s", want, out)
		}
	}
}

// TestRunChaosDeterministic verifies the whole experiment — fault schedule,
// retries, fallbacks and final best — is a pure function of its seeds.
func TestRunChaosDeterministic(t *testing.T) {
	run := func() *ChaosResult {
		h := New(tinyOptions())
		res, err := h.RunChaos(context.Background(), ChaosOptions{
			Workload: chaosWorkload(t, "WC"),
			InputIdx: 1,
			Chaos:    chaosProfile(3),
			Steps:    8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats != b.Stats {
		t.Fatalf("fault schedules diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Faulted.BestTime != b.Faulted.BestTime || a.Baseline.BestTime != b.Baseline.BestTime {
		t.Fatalf("best times diverged: faulted %g/%g baseline %g/%g",
			a.Faulted.BestTime, b.Faulted.BestTime, a.Baseline.BestTime, b.Baseline.BestTime)
	}
	for i := range a.Faulted.Steps {
		sa, sb := a.Faulted.Steps[i], b.Faulted.Steps[i]
		if sa.ExecTime != sb.ExecTime || sa.Fault != sb.Fault || sa.Rejected != sb.Rejected {
			t.Fatalf("faulted step %d diverged: %+v vs %+v", i, sa, sb)
		}
	}
}

// TestRunChaosZeroProfile checks the degenerate case: with no faults
// configured, the faulted run is the baseline run.
func TestRunChaosZeroProfile(t *testing.T) {
	h := New(tinyOptions())
	res, err := h.RunChaos(context.Background(), ChaosOptions{
		Workload:  chaosWorkload(t, "TS"),
		InputIdx:  1,
		Chaos:     chaos.Config{Seed: 1},
		Hardening: env.DefaultHardening(),
		Steps:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Faults() != 0 {
		t.Fatalf("zero profile injected %d faults", res.Stats.Faults())
	}
	if res.Gap != 0 {
		t.Fatalf("gap = %+.4f, want exactly 0 for identical runs", res.Gap)
	}
	for i := range res.Baseline.Steps {
		if res.Baseline.Steps[i].ExecTime != res.Faulted.Steps[i].ExecTime {
			t.Fatalf("step %d diverged without faults", i)
		}
	}
}
