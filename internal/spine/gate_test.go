package spine

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"deepcat/internal/rl"
)

// TestTrainFamilyRefusesNonFiniteState poisons a family's lane with
// NaN-reward transitions after a first clean publish. The pass that trains
// on them must not publish: the version stays at the incumbent, the
// learner is rolled back to the incumbent's weights, and the pass reports
// an error.
func TestTrainFamilyRefusesNonFiniteState(t *testing.T) {
	s := New(Options{Shards: 2, ShardCapacity: 256})
	defer s.Close()
	var clean []rl.Transition
	for i := 0; i < 32; i++ {
		clean = append(clean, testTransition(float64(i), float64(i%3)-1))
	}
	s.Ingest("TS", clean)
	v1, err := s.TrainFamily("TS", 4)
	if err != nil || v1.Version != 1 {
		t.Fatalf("clean pass = %+v, %v", v1, err)
	}

	var poison []rl.Transition
	for i := 0; i < 256; i++ {
		poison = append(poison, testTransition(float64(i), math.NaN()))
	}
	s.Ingest("TS", poison)
	pol, err := s.TrainFamily("TS", 8)
	if err == nil {
		t.Fatal("pass over NaN rewards published")
	}
	if pol != v1 {
		t.Fatalf("refused pass returned %+v, want the incumbent", pol)
	}
	if cur, ok := s.Policy("TS"); !ok || cur.Version != 1 {
		t.Fatalf("published version after refusal = %+v", cur)
	}
	encode := func(st rl.TD3State) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	s.lmu.Lock()
	ln := s.learners["TS"]
	s.lmu.Unlock()
	ln.tmu.Lock()
	got := encode(ln.agent.CaptureState())
	ln.tmu.Unlock()
	if !bytes.Equal(got, encode(v1.Agent)) {
		t.Fatal("learner not rolled back to the incumbent")
	}
}
