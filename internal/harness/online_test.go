package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"deepcat/internal/baselines/bestconfig"
	"deepcat/internal/baselines/cdbtune"
	"deepcat/internal/baselines/ottertune"
	"deepcat/internal/core"
	"deepcat/internal/env"
	"deepcat/internal/sparksim"
)

var update = flag.Bool("update", false, "rewrite testdata/online_digests.json from the current tuners")

const digestFile = "testdata/online_digests.json"

// reportDigest hashes what an online session decided and measured: every
// step's action bits, execution-time bits, failure and Twin-Q flags, and the
// report's best time. Recommendation seconds are wall-clock and left out.
func reportDigest(rep *env.Report) string {
	h := sha256.New()
	put := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
	bit := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, st := range rep.Steps {
		for _, a := range st.Action {
			put(a)
		}
		put(st.ExecTime)
		bit(st.Failed)
		bit(st.Optimized)
	}
	put(rep.BestTime)
	return hex.EncodeToString(h.Sum(nil))
}

// onlineDigests runs every tuner's online loop on the four D1 pairs under
// two seeds at the tiny harness profile and returns one digest per run.
// Offline training stops 16 iterations past the 64-step warmup: the digests
// pin the online loop, and the shorter training keeps the test fast.
func onlineDigests(t *testing.T) map[string]string {
	t.Helper()
	opts := tinyOptions()
	opts.OfflineIters = 80
	h := New(opts)
	out := make(map[string]string)
	for _, short := range []string{"WC", "TS", "PR", "KM"} {
		w, err := sparksim.WorkloadByShort(short)
		if err != nil {
			t.Fatal(err)
		}
		e := h.EnvA(w, 0)
		for s := int64(0); s < 2; s++ {
			key := func(tuner string) string { return fmt.Sprintf("%s/%s/seed%d", tuner, e.Label(), s) }
			out[key("DeepCAT")] = reportDigest(h.DeepCATModel(e, s).Clone().OnlineTune(e))
			out[key("CDBTune")] = reportDigest(h.CDBTuneModel(e, s).Clone().OnlineTune(e))
			out[key("OtterTune")] = reportDigest(h.OtterTuner(s).OnlineTune(e, e.Label()))
			bc, err := bestconfig.New(rand.New(rand.NewSource(h.Opts.Seed*15000+s)), bestconfig.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			// 12 steps: two full rounds of 5 and a short final round of 2.
			out[key("BestConfig")] = reportDigest(bc.OnlineTune(e, 12))
		}
	}
	return out
}

// TestOnlineDigests pins the decisions of all four online tuners against
// committed digests, so a refactor of the online loop that moves any action,
// measurement or best time fails here. Run with -update to accept a
// deliberate change in what the tuners decide.
func TestOnlineDigests(t *testing.T) {
	got := onlineDigests(t)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d digests, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %s, want %s", k, got[k], w)
		}
	}
}

// slowEnv is a simulator environment whose every evaluation also takes
// evalSleep of wall time, as a real cluster run would.
type slowEnv struct{ *env.SparkEnv }

const evalSleep = 20 * time.Millisecond

func (s slowEnv) Evaluate(u []float64) env.Outcome {
	time.Sleep(evalSleep)
	return s.SparkEnv.Evaluate(u)
}

// TestRecommendSecondsExcludesEvaluation pins the one definition of
// recommendation time shared by every tuner: the wall time inside Suggest
// and Learn, never the evaluation itself. With an environment that sleeps
// 20ms per evaluation, every step of every tuner must stay well under that.
func TestRecommendSecondsExcludesEvaluation(t *testing.T) {
	w, err := sparksim.WorkloadByShort("TS")
	if err != nil {
		t.Fatal(err)
	}
	sim := sparksim.NewSimulator(sparksim.ClusterA(), 1)
	fast := env.NewSparkEnv(sim, w, 0)
	e := slowEnv{fast}
	const steps = 3
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }

	dcCfg := core.DefaultConfig(e.StateDim(), e.Space().Dim())
	dcCfg.TD3.Hidden = []int{16, 16}
	dcCfg.FineTuneIters = 2
	dcCfg.OnlineSteps = steps
	dc, err := core.New(rng(), dcCfg)
	if err != nil {
		t.Fatal(err)
	}
	cbCfg := cdbtune.DefaultConfig(e.StateDim(), e.Space().Dim())
	cbCfg.DDPG.Hidden = []int{16, 16}
	cbCfg.FineTuneIters = 2
	cbCfg.OnlineSteps = steps
	cb, err := cdbtune.New(rng(), cbCfg)
	if err != nil {
		t.Fatal(err)
	}
	otCfg := ottertune.DefaultConfig()
	otCfg.Candidates = 20
	otCfg.OnlineSteps = steps
	repo := ottertune.BuildRepository(rng(), []env.Environment{fast}, 10)
	ot, err := ottertune.New(rng(), repo, otCfg)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bestconfig.New(rng(), bestconfig.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	for _, rep := range []*env.Report{
		dc.OnlineTune(e),
		cb.OnlineTune(e),
		ot.OnlineTune(e, ""),
		bc.OnlineTune(e, steps),
	} {
		if len(rep.Steps) != steps {
			t.Fatalf("%s: %d steps, want %d", rep.Tuner, len(rep.Steps), steps)
		}
		for i, st := range rep.Steps {
			if st.RecommendSeconds >= (evalSleep / 2).Seconds() {
				t.Errorf("%s step %d: RecommendSeconds %.4fs, want under %v", rep.Tuner, i, st.RecommendSeconds, evalSleep/2)
			}
		}
		t.Logf("%s: recommendation %.2fms over %d steps", rep.Tuner, 1e3*rep.RecommendationCost(), steps)
	}
}
