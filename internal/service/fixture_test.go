package service

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// sessionFixture is testdata/session_degraded.json: the observations fed
// to the session resumed from testdata/session_degraded.gob and what it
// must answer.
type sessionFixture struct {
	Steps []fixtureStep `json:"steps"`
}

type fixtureStep struct {
	// Action and Degraded are the expected suggestion.
	Action   []float64 `json:"action"`
	Degraded bool      `json:"degraded"`
	// Observe is the measurement fed back; Health the expected breaker
	// state after it.
	Observe ObserveRequest `json:"observe"`
	Health  string         `json:"health"`
}

// TestSessionCheckpointFixture resumes a frozen checkpoint of a cold inline
// session caught with its breaker tripped, a known best configuration, a
// sanitizer history, a quarantined observation and a failed last step, and
// checks the next six suggestions bit for bit as the session crosses
// degraded, half-open and back to the model. The files were written once
// and are never regenerated: a change that moves these decisions or breaks
// the checkpoint's gob layout fails here.
func TestSessionCheckpointFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/session_degraded.gob")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/session_degraded.json")
	if err != nil {
		t.Fatal(err)
	}
	var fx sessionFixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}
	var ck sessionCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	meta := ck.Meta
	if meta.BestAction == nil || len(meta.SanRecent) == 0 || meta.Quarantined == 0 ||
		!meta.LastFailed || meta.Health != HealthDegraded {
		t.Fatalf("fixture lost the state it exists to cover: best %v, san %d, quarantined %d, last failed %v, health %q",
			meta.BestAction != nil, len(meta.SanRecent), meta.Quarantined, meta.LastFailed, meta.Health)
	}

	store := NewMemStore()
	if err := store.Save(meta.ID, data); err != nil {
		t.Fatal(err)
	}
	m := NewManager(store, 0)
	if n, err := m.Resume(); err != nil || n != 1 {
		t.Fatalf("resume = %d, %v", n, err)
	}
	info, err := m.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Info(); got.Step != meta.Step || got.BestTime != meta.BestTime || got.Quarantined != meta.Quarantined {
		t.Fatalf("resumed info = step %d best %g quarantined %d, checkpoint has %d %g %d",
			got.Step, got.BestTime, got.Quarantined, meta.Step, meta.BestTime, meta.Quarantined)
	}
	for i, want := range fx.Steps {
		sug, err := m.Suggest(meta.ID, "")
		if err != nil {
			t.Fatal(err)
		}
		if sug.Degraded != want.Degraded {
			t.Fatalf("step %d: degraded = %v, want %v", i+1, sug.Degraded, want.Degraded)
		}
		if len(sug.Action) != len(want.Action) {
			t.Fatalf("step %d: %d action dims, want %d", i+1, len(sug.Action), len(want.Action))
		}
		for j := range want.Action {
			if math.Float64bits(sug.Action[j]) != math.Float64bits(want.Action[j]) {
				t.Fatalf("step %d: action[%d] = %v, want %v", i+1, j, sug.Action[j], want.Action[j])
			}
		}
		req := want.Observe
		req.Step = sug.Step
		resp, err := m.Observe(meta.ID, req, "")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Health != want.Health {
			t.Fatalf("step %d: health = %q, want %q", i+1, resp.Health, want.Health)
		}
	}
}
