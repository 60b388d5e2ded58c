package service

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"deepcat/internal/spine"
	"deepcat/internal/warehouse"
)

// The two weight-adoption inputs a session can start from, frozen once and
// never regenerated: a warehouse donor file (warm-start at create) and the
// checkpoint of a spine-mode session that has adopted published policies
// (resume). Each test starts a session from its input, plays fixtureRounds
// rounds against toyExec and checks every suggested action bit for bit
// against the recorded JSON. The rounds call the session directly, so no
// checkpoint (which re-seeds the tuner) is taken between suggestions.
const (
	donorFixture      = "../warehouse/testdata/donor-a.TS.1-g1.snap"
	spineFixture      = "testdata/session_spine.gob"
	fixtureRounds     = 8
	spineFixtureAdopt = 2
)

// adoptionFixture is the recorded answer of one input: the suggested
// actions, in order.
type adoptionFixture struct {
	Actions [][]float64 `json:"actions"`
}

// playRounds drives n suggest/observe rounds on s at a pinned clock and
// returns the suggested actions.
func playRounds(t *testing.T, s *Session, n int) [][]float64 {
	t.Helper()
	ctx, now := context.Background(), time.Unix(1_700_000_000, 0).UTC()
	var actions [][]float64
	for i := 0; i < n; i++ {
		sug, err := s.Suggest(ctx, now, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Observe(ctx, ObserveRequest{Step: sug.Step, ExecTime: toyExec(sug.Action)}, now, ""); err != nil {
			t.Fatal(err)
		}
		actions = append(actions, sug.Action)
	}
	return actions
}

// openDonorWarehouse opens a warehouse over a fresh directory holding the
// given donor files, keyed by their file names.
func openDonorWarehouse(t *testing.T, files map[string][]byte) *warehouse.Warehouse {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wh, err := warehouse.Open(warehouse.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wh.Close() })
	return wh
}

// warmSession builds session "warm" (TS, input 1, seed 7) against wh
// without the manager, so its creation takes no checkpoint.
func warmSession(t *testing.T, wh *warehouse.Warehouse) *Session {
	t.Helper()
	req := CreateSessionRequest{ID: "warm", Workload: "TS", Input: 1, Cluster: "a", Seed: 7}
	s, err := newSession(req.ID, req, time.Unix(1_700_000_000, 0).UTC(), wh, newMetrics(nil), nil, DefaultResilience(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// donorFixtureActions warm-starts a session from the frozen donor and plays
// the fixture rounds.
func donorFixtureActions(t *testing.T) [][]float64 {
	t.Helper()
	data, err := os.ReadFile(donorFixture)
	if err != nil {
		t.Fatal(err)
	}
	s := warmSession(t, openDonorWarehouse(t, map[string][]byte{filepath.Base(donorFixture): data}))
	if info := s.Info(); !info.WarmStarted || info.Donor != "a.TS.1-g1" {
		t.Fatalf("session did not warm-start from the fixture donor: %+v", info)
	}
	return playRounds(t, s, fixtureRounds)
}

// spineFixtureActions resumes the frozen spine-mode checkpoint into a
// manager with a fresh spine and plays the fixture rounds.
func spineFixtureActions(t *testing.T) [][]float64 {
	t.Helper()
	data, err := os.ReadFile(spineFixture)
	if err != nil {
		t.Fatal(err)
	}
	var ck sessionCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	if ck.Meta.SpineVersion == 0 || ck.Meta.SpineAdoptions == 0 {
		t.Fatalf("fixture lost the adoption it exists to cover: version %d, adoptions %d",
			ck.Meta.SpineVersion, ck.Meta.SpineAdoptions)
	}
	sp := spine.New(spine.Options{Seed: 42})
	t.Cleanup(func() { sp.Close() })
	m := NewManager(NewMemStore(), 0)
	m.AttachSpine(SpineConfig{Spine: sp, AdoptEvery: spineFixtureAdopt})
	s, err := resumeSession(data, nil, m.met, nil, DefaultResilience(), m.spn)
	if err != nil {
		t.Fatal(err)
	}
	info := s.Info()
	if !info.SpineMode || info.SpineVersion != ck.Meta.SpineVersion || info.SpineAdoptions != ck.Meta.SpineAdoptions {
		t.Fatalf("resumed spine info = %+v, checkpoint has version %d adoptions %d",
			info, ck.Meta.SpineVersion, ck.Meta.SpineAdoptions)
	}
	return playRounds(t, s, fixtureRounds)
}

func checkFixtureActions(t *testing.T, path string, got [][]float64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fx adoptionFixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fx.Actions) {
		t.Fatalf("%d rounds, fixture has %d", len(got), len(fx.Actions))
	}
	for i, want := range fx.Actions {
		if len(got[i]) != len(want) {
			t.Fatalf("round %d: %d action dims, want %d", i+1, len(got[i]), len(want))
		}
		for j := range want {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("round %d: action[%d] = %v, want %v", i+1, j, got[i][j], want[j])
			}
		}
	}
}

// TestDonorFixtureWarmStart pins the warm-start input: a session created
// next to the frozen donor file adopts it and suggests exactly the recorded
// actions.
func TestDonorFixtureWarmStart(t *testing.T) {
	checkFixtureActions(t, "testdata/donor_warmstart.json", donorFixtureActions(t))
}

// TestSpineCheckpointFixture pins the spine adoption input: the frozen
// checkpoint of a spine-mode session with adopted policies resumes with its
// adoption record intact and suggests exactly the recorded actions.
func TestSpineCheckpointFixture(t *testing.T) {
	checkFixtureActions(t, "testdata/session_spine.json", spineFixtureActions(t))
}
