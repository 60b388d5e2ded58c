package core

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSnapshotFixtureResumes decodes a checkpoint written by an earlier
// build and resumes it. The fixture's Config carried two loop-policy fields
// (Hardening, TimeBudgetSeconds) that Config no longer has; gob must skip
// them, and the restored tuner must produce the same five online actions
// the writing build produced. The files are frozen: regenerating them with
// today's writer would no longer exercise the old format.
func TestSnapshotFixtureResumes(t *testing.T) {
	f, err := os.Open("testdata/snapshot.gob")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := DecodeSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("testdata/snapshot_actions.json")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]float64
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.OnlineTune(snapEnv(t, 99))
	if len(rep.Steps) != len(want) {
		t.Fatalf("%d steps, want %d", len(rep.Steps), len(want))
	}
	for i, st := range rep.Steps {
		if len(st.Action) != len(want[i]) {
			t.Fatalf("step %d: action dim %d, want %d", i, len(st.Action), len(want[i]))
		}
		for j, a := range st.Action {
			if a != want[i][j] {
				t.Fatalf("step %d action[%d] = %v, want %v", i, j, a, want[i][j])
			}
		}
	}
}
