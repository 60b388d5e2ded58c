package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"deepcat/internal/env"
	"deepcat/internal/sparksim"
)

// snapEnv builds a deterministic TS-D1 environment for snapshot tests.
func snapEnv(t *testing.T, seed int64) *env.SparkEnv {
	t.Helper()
	w, err := sparksim.WorkloadByShort("TS")
	if err != nil {
		t.Fatal(err)
	}
	return env.NewSparkEnv(sparksim.NewSimulator(sparksim.ClusterA(), seed), w, 0)
}

func snapConfig(e *env.SparkEnv) Config {
	cfg := DefaultConfig(e.StateDim(), e.Space().Dim())
	cfg.TD3.Hidden = []int{16, 16}
	cfg.WarmupSteps = 8
	cfg.BatchSize = 8
	return cfg
}

// TestSnapshotRoundTripDeterminism trains a tuner partway, snapshots it
// through a gob encode/decode cycle, and verifies that the restored tuner
// and the live original produce identical action sequences (and identical
// fine-tuned behavior) on identical environments.
func TestSnapshotRoundTripDeterminism(t *testing.T) {
	e := snapEnv(t, 7)
	cfg := snapConfig(e)
	d, err := New(rand.New(rand.NewSource(3)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.OfflineTrain(e, 60, nil)

	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(decoded)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := r.Buffer.Len(), d.Buffer.Len(); got != want {
		t.Fatalf("restored replay holds %d transitions, want %d", got, want)
	}

	// Identical fresh environments so simulator noise matches step for step.
	e1 := snapEnv(t, 99)
	e2 := snapEnv(t, 99)
	rep1 := d.OnlineTune(e1)
	rep2 := r.OnlineTune(e2)
	if len(rep1.Steps) != len(rep2.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(rep1.Steps), len(rep2.Steps))
	}
	for i := range rep1.Steps {
		s1, s2 := rep1.Steps[i], rep2.Steps[i]
		if len(s1.Action) != len(s2.Action) {
			t.Fatalf("step %d action dims differ", i)
		}
		for j := range s1.Action {
			if s1.Action[j] != s2.Action[j] {
				t.Fatalf("step %d action[%d]: %v vs %v", i, j, s1.Action[j], s2.Action[j])
			}
		}
		if s1.ExecTime != s2.ExecTime {
			t.Fatalf("step %d exec time: %v vs %v", i, s1.ExecTime, s2.ExecTime)
		}
	}
	if rep1.BestTime != rep2.BestTime {
		t.Fatalf("best time: %v vs %v", rep1.BestTime, rep2.BestTime)
	}
}

// TestSnapshotPreservesOptimizerMoments checks the round trip carries the
// Adam step counts and the TD3 update counter, which gate the delayed
// policy updates; losing either silently desynchronizes fine-tuning.
func TestSnapshotPreservesOptimizerMoments(t *testing.T) {
	e := snapEnv(t, 11)
	cfg := snapConfig(e)
	d, err := New(rand.New(rand.NewSource(5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.OfflineTrain(e, 40, nil)
	wantUpdates := d.Agent.Updates()
	if wantUpdates == 0 {
		t.Fatal("training performed no updates; test is vacuous")
	}

	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Agent.Updates(); got != wantUpdates {
		t.Fatalf("restored update counter = %d, want %d", got, wantUpdates)
	}
}

// TestRestoreRejectsMismatchedState verifies Restore fails loudly when the
// snapshot's replay mode cannot be loaded into the configured buffer.
func TestRestoreRejectsMismatchedState(t *testing.T) {
	e := snapEnv(t, 13)
	cfg := snapConfig(e)
	d, err := New(rand.New(rand.NewSource(5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Cfg.ReplayMode = "uniform" // buffer rebuilt as uniform; state is rdper
	if _, err := Restore(snap); err == nil {
		t.Fatal("Restore accepted a replay-state/mode mismatch")
	}
}

// TestFailedAdoptWeightsKeepsTuner hands AdoptWeights a state whose actor
// optimizer has taken 7 steps but whose second critic optimizer is one
// layer short. The state must be refused before anything is copied: the
// warm-start and spine adoption paths assume a refused tuner kept its own
// weights and moments.
func TestFailedAdoptWeightsKeepsTuner(t *testing.T) {
	cfg := snapConfig(snapEnv(t, 13))
	d, err := New(rand.New(rand.NewSource(5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	donor, err := New(rand.New(rand.NewSource(6)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := donor.Agent.CaptureState()
	st.ActorOpt.T = 7
	o := &st.Critic2Opt
	o.MW, o.VW, o.MB, o.VB = o.MW[1:], o.VW[1:], o.MB[1:], o.VB[1:]

	encode := func() []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(d.Agent.CaptureState()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := encode()
	if err := d.AdoptWeights(st); err == nil {
		t.Fatal("state with a short optimizer adopted")
	}
	if !bytes.Equal(encode(), before) {
		t.Fatal("refused adoption changed the tuner's agent state")
	}
}

// TestLoadRefusesNonFiniteModel checks that a saved model carrying a NaN
// weight is refused at Load instead of being copied into a tuner.
func TestLoadRefusesNonFiniteModel(t *testing.T) {
	d, err := New(rand.New(rand.NewSource(5)), snapConfig(snapEnv(t, 13)))
	if err != nil {
		t.Fatal(err)
	}
	var good, bad bytes.Buffer
	if err := d.Save(&good); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&good, 1); err != nil {
		t.Fatalf("clean model refused: %v", err)
	}
	d.Agent.Critic1.Layers[0].W.Data[0] = math.NaN()
	if err := d.Save(&bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&bad, 1); err == nil {
		t.Fatal("model with a NaN critic weight loaded")
	}
}
