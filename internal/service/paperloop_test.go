package service_test

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"deepcat/internal/cli"
	"deepcat/internal/core"
	"deepcat/internal/env"
	"deepcat/internal/service"
	"deepcat/internal/service/client"
)

// checkpointingTuner is the paper loop's DeepCAT with the two habits of a
// served session: the daemon's write-through checkpoint re-seeds the
// tuner's RNG (core.(*DeepCAT).Snapshot) after Create and after every
// Observe, i.e. right before every Suggest; and a session never marks a
// transition terminal. Once checkpoints are pure reads, the Snapshot call
// goes and only the Done override stays.
type checkpointingTuner struct {
	t *testing.T
	d *core.DeepCAT
}

func (c checkpointingTuner) Suggest(state []float64, lastFailed bool) ([]float64, bool) {
	if _, err := c.d.Snapshot(); err != nil {
		c.t.Fatal(err)
	}
	return c.d.Suggest(state, lastFailed)
}

func (c checkpointingTuner) Learn(o env.Observation) {
	o.Done = false
	c.d.Learn(o)
}

// paperStep is what both loops report per step.
type paperStep struct {
	action      []float64
	quarantined bool
	best        float64 // +Inf until the first successful measurement
}

// TestServedSessionIsPaperLoop pins that a session served over HTTP makes
// exactly the decisions of the paper's online loop (env.RunOnline) run
// with the same seed, offline training and sanitizer: per step the same
// action bits, the same quarantine verdict and the same best time. The
// caller plays the external scheduler, measuring every suggestion on its
// own identically seeded simulator. The breaker is disabled because it is
// service-only policy with no counterpart in the paper loop.
func TestServedSessionIsPaperLoop(t *testing.T) {
	const seed, offlineIters = 1, 60
	cases := []struct {
		workload     string
		input, steps int
	}{
		{"PR", 1, 12},
		{"WC", 2, 5},
		{"TS", 3, 5},
		{"KM", 1, 5},
	}
	m := service.NewManager(service.NewMemStore(), 0)
	m.SetResilience(service.Resilience{BreakerThreshold: -1})
	srv := httptest.NewServer(service.NewServer(m))
	defer srv.Close()
	c := client.New(srv.URL)

	total, quarantined := 0, 0
	for _, tc := range cases {
		served := servedSteps(t, c, tc.workload, tc.input, tc.steps, seed, offlineIters)
		paper := paperLoopSteps(t, tc.workload, tc.input, tc.steps, seed, offlineIters)
		if len(served) != len(paper) {
			t.Fatalf("%s-D%d: served %d steps, paper loop %d", tc.workload, tc.input, len(served), len(paper))
		}
		for i := range paper {
			s, p := served[i], paper[i]
			if len(s.action) != len(p.action) {
				t.Fatalf("%s-D%d step %d: action dims %d vs %d", tc.workload, tc.input, i+1, len(s.action), len(p.action))
			}
			for j := range p.action {
				if math.Float64bits(s.action[j]) != math.Float64bits(p.action[j]) {
					t.Fatalf("%s-D%d step %d: action[%d] served %v, paper loop %v",
						tc.workload, tc.input, i+1, j, s.action[j], p.action[j])
				}
			}
			if s.quarantined != p.quarantined {
				t.Fatalf("%s-D%d step %d: quarantined served %v, paper loop %v",
					tc.workload, tc.input, i+1, s.quarantined, p.quarantined)
			}
			if s.best != p.best {
				t.Fatalf("%s-D%d step %d: best time served %v, paper loop %v",
					tc.workload, tc.input, i+1, s.best, p.best)
			}
			if p.quarantined {
				quarantined++
			}
		}
		total += len(paper)
	}
	t.Logf("%d steps bit-identical, %d quarantined", total, quarantined)
	if quarantined == 0 {
		t.Fatal("no step was quarantined; the sanitizer path went untested")
	}
}

// servedSteps drives one cold inline session through the typed client,
// measuring each suggestion on a freshly built simulator.
func servedSteps(t *testing.T, c *client.Client, workload string, input, steps int, seed int64, offlineIters int) []paperStep {
	t.Helper()
	e, err := cli.BuildEnv("a", workload, input, seed)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.CreateSession(service.CreateSessionRequest{
		Workload: workload, Input: input, Seed: seed,
		OfflineIters: offlineIters, NoWarmStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.DeleteSession(info.ID)
	out := make([]paperStep, 0, steps)
	for i := 0; i < steps; i++ {
		sug, err := c.Suggest(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		o := e.Evaluate(sug.Action)
		resp, err := c.Observe(info.ID, service.ObserveRequest{
			Step: sug.Step, ExecTime: o.ExecTime, Failed: o.Failed, State: o.State,
		})
		if err != nil {
			t.Fatal(err)
		}
		best := resp.BestTime
		if best == 0 {
			best = math.Inf(1)
		}
		out = append(out, paperStep{action: sug.Action, quarantined: resp.Quarantined, best: best})
	}
	return out
}

// paperLoopSteps runs the paper's offline stage and then env.RunOnline
// with the daemon's default sanitizer, each on its own fresh simulator.
func paperLoopSteps(t *testing.T, workload string, input, steps int, seed int64, offlineIters int) []paperStep {
	t.Helper()
	trainEnv, err := cli.BuildEnv("a", workload, input, seed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.New(rand.New(rand.NewSource(seed)), core.DefaultConfig(trainEnv.StateDim(), trainEnv.Space().Dim()))
	if err != nil {
		t.Fatal(err)
	}
	d.OfflineTrain(trainEnv, offlineIters, nil)
	e, err := cli.BuildEnv("a", workload, input, seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := env.RunOnline(context.Background(), checkpointingTuner{t, d}, e, env.Loop{
		Steps:     steps,
		Hardening: env.Hardening{SanitizeWindow: 20, SanitizeMADK: env.DefaultMADK},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]paperStep, 0, len(rep.Steps))
	best := math.Inf(1)
	for _, st := range rep.Steps {
		if !st.Rejected && st.Fault == "" && !st.Failed && st.ExecTime < best {
			best = st.ExecTime
		}
		out = append(out, paperStep{action: st.Action, quarantined: st.Rejected, best: best})
	}
	return out
}
