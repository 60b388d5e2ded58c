package spine

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"deepcat/internal/obs"
	"deepcat/internal/rl"
)

// TestTrainFamilyRefusesNonFiniteState poisons a family's lane with
// finite rewards of math.MaxFloat64 after a first clean publish; training
// on them overflows the critics. The pass must not publish: the version stays at the incumbent, the
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
		poison = append(poison, testTransition(float64(i), math.MaxFloat64))
	}
	s.Ingest("TS", poison)
	pol, err := s.TrainFamily("TS", 8)
	if err == nil {
		t.Fatal("pass over overflowing rewards published")
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

// TestIngestRefusesNonFinite offers a lane transitions with a NaN or Inf
// in each part, through Ingest and through an Actor. None is stored: the
// lane's Len and ingest count stay where the clean transition left them,
// and every refusal is counted.
func TestIngestRefusesNonFinite(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Shards: 2, ShardCapacity: 64, Registry: reg})
	defer s.Close()
	s.Ingest("TS", []rl.Transition{testTransition(0, 0.5)})
	ingested := func() uint64 { return s.Stats().Lanes[0].Ingested }
	if s.Len("TS") != 1 || ingested() != 1 {
		t.Fatalf("clean ingest: len %d ingested %d", s.Len("TS"), ingested())
	}

	var poison []rl.Transition
	for i := 0; i < 4; i++ {
		tr := testTransition(float64(i), 0.5)
		switch i {
		case 0:
			tr.Reward = math.NaN()
		case 1:
			tr.State[1] = math.Inf(1)
		case 2:
			tr.Action[0] = math.NaN()
		case 3:
			tr.NextState[2] = math.Inf(-1)
		}
		poison = append(poison, tr)
	}
	s.Ingest("TS", poison)
	a := s.Actor("TS")
	a.Enqueue(poison[0])
	a.Flush()
	if s.Len("TS") != 1 || ingested() != 1 {
		t.Fatalf("after non-finite ingest: len %d ingested %d, want 1 and 1", s.Len("TS"), ingested())
	}
	if got := reg.Counter("deepcat_spine_rejected_transitions_total").Value(); got != 5 {
		t.Fatalf("rejected %d transitions, want 5", got)
	}
}
