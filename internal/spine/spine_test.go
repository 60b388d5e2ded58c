package spine

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"deepcat/internal/rl"
)

// testTransition builds a transition whose reward decides its pool and whose
// state[0] carries an id so tests can tell samples apart.
func testTransition(id float64, reward float64) rl.Transition {
	return rl.Transition{
		State:     []float64{id, 0.5, 0.25},
		Action:    []float64{0.1, 0.2},
		Reward:    reward,
		NextState: []float64{id + 1, 0.5, 0.25},
	}
}

func TestSpineIngestAndSample(t *testing.T) {
	s := New(Options{Shards: 4, ShardCapacity: 64, FlushEvery: 8})
	defer s.Close()

	for i := 0; i < 40; i++ {
		r := 1.0 // high pool
		if i%2 == 1 {
			r = -1.0 // low pool
		}
		s.Ingest("fam", []rl.Transition{testTransition(float64(i), r)})
	}
	if got := s.Len("fam"); got != 40 {
		t.Fatalf("Len = %d, want 40", got)
	}

	rng := rand.New(rand.NewSource(1))
	var batch rl.Batch
	n := s.Sample("fam", rng, 30, &batch)
	if n != 30 || len(batch.Transitions) != 30 {
		t.Fatalf("Sample returned %d (batch %d), want 30", n, len(batch.Transitions))
	}
	if len(batch.Indices) != 30 || len(batch.Weights) != 30 {
		t.Fatalf("Indices/Weights = %d/%d, want 30/30", len(batch.Indices), len(batch.Weights))
	}
	// ceil(0.6*30) = 18 draws must come from the high-reward pool.
	high := 0
	for _, tr := range batch.Transitions {
		if tr.Reward >= 0 {
			high++
		}
	}
	if high != 18 {
		t.Fatalf("high-pool draws = %d, want 18", high)
	}

	// The batch's backing slices must be reused on the next call.
	p0 := &batch.Transitions[0]
	if got := s.Sample("fam", rng, 30, &batch); got != 30 {
		t.Fatalf("second Sample = %d, want 30", got)
	}
	if p0 != &batch.Transitions[0] {
		t.Fatal("Sample reallocated dst backing slices")
	}
}

func TestSpineSampleUnknownOrEmpty(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	batch := rl.Batch{Transitions: make([]rl.Transition, 5), Indices: make([]int, 5), Weights: make([]float64, 5)}
	if n := s.Sample("nope", rng, 8, &batch); n != 0 {
		t.Fatalf("Sample unknown family = %d, want 0", n)
	}
	if len(batch.Transitions) != 0 || len(batch.Indices) != 0 || len(batch.Weights) != 0 {
		t.Fatal("Sample must truncate dst even when empty")
	}
	if _, err := s.TrainFamily("nope", 1); err == nil {
		t.Fatal("TrainFamily on unknown family must error")
	}
}

func TestSpineOneSidedPools(t *testing.T) {
	s := New(Options{Shards: 2, ShardCapacity: 32})
	defer s.Close()
	// Only low-reward experience: the whole batch must come from the low pool.
	for i := 0; i < 10; i++ {
		s.Ingest("low-only", []rl.Transition{testTransition(float64(i), -1)})
	}
	rng := rand.New(rand.NewSource(2))
	var batch rl.Batch
	if n := s.Sample("low-only", rng, 12, &batch); n != 12 {
		t.Fatalf("Sample = %d, want 12", n)
	}
	for _, tr := range batch.Transitions {
		if tr.Reward >= 0 {
			t.Fatal("sampled a high-reward transition from a low-only lane")
		}
	}
}

func TestSpineCopyOnWriteIsolation(t *testing.T) {
	s := New(Options{Shards: 1, ShardCapacity: 8, FlushEvery: 1})
	defer s.Close()
	tr := testTransition(7, 1)
	a := s.Actor("fam")
	a.Enqueue(tr)
	// The caller may reuse its slices immediately; the spine's copy must not
	// see the mutation.
	tr.State[0] = math.NaN()
	rng := rand.New(rand.NewSource(3))
	var batch rl.Batch
	if n := s.Sample("fam", rng, 1, &batch); n != 1 {
		t.Fatalf("Sample = %d, want 1", n)
	}
	if got := batch.Transitions[0].State[0]; got != 7 {
		t.Fatalf("stored State[0] = %v, want 7 (copy-on-write broken)", got)
	}
}

func TestSpineEviction(t *testing.T) {
	s := New(Options{Shards: 2, ShardCapacity: 4, FlushEvery: 4})
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Ingest("fam", []rl.Transition{testTransition(float64(i), 1)})
	}
	// 2 shards x 4 capacity on the high side = at most 8 retained.
	if got := s.Len("fam"); got > 8 {
		t.Fatalf("Len = %d, want <= 8 after eviction", got)
	}
	st := s.Stats()
	if len(st.Lanes) != 1 || st.Lanes[0].Ingested != 100 {
		t.Fatalf("Stats = %+v, want one lane with Ingested=100", st)
	}
}

func TestActorBatchedFlush(t *testing.T) {
	s := New(Options{Shards: 1, ShardCapacity: 64, FlushEvery: 8})
	defer s.Close()
	a := s.Actor("fam")
	for i := 0; i < 7; i++ {
		a.Enqueue(testTransition(float64(i), 1))
	}
	if a.Pending() != 7 || s.Len("fam") != 0 {
		t.Fatalf("pending=%d len=%d, want 7/0 before flush", a.Pending(), s.Len("fam"))
	}
	a.Enqueue(testTransition(7, 1)) // hits FlushEvery, auto-flushes
	if a.Pending() != 0 || s.Len("fam") != 8 {
		t.Fatalf("pending=%d len=%d, want 0/8 after auto flush", a.Pending(), s.Len("fam"))
	}
}

func TestLearnerPublishesDeterministically(t *testing.T) {
	mk := func() *Spine {
		s := New(Options{Shards: 2, ShardCapacity: 256, Seed: 42, LearnBatch: 16})
		rng := rand.New(rand.NewSource(9))
		var trs []rl.Transition
		for i := 0; i < 64; i++ {
			trs = append(trs, rl.Transition{
				State:     []float64{rng.Float64(), rng.Float64(), rng.Float64()},
				Action:    []float64{rng.Float64(), rng.Float64()},
				Reward:    rng.NormFloat64(),
				NextState: []float64{rng.Float64(), rng.Float64(), rng.Float64()},
			})
		}
		s.Ingest("fam", trs)
		return s
	}
	s1, s2 := mk(), mk()
	defer s1.Close()
	defer s2.Close()

	p1, err := s1.TrainFamily("fam", 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s2.TrainFamily("fam", 2)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Version != 1 || p2.Version != 1 {
		t.Fatalf("versions = %d/%d, want 1/1", p1.Version, p2.Version)
	}
	w1 := p1.Agent.Actor.Layers[0].W.Data
	w2 := p2.Agent.Actor.Layers[0].W.Data
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("actor weights diverge at %d: %v vs %v (determinism broken)", i, w1[i], w2[i])
		}
	}

	// A second pass bumps the version and republishes.
	p3, err := s1.TrainFamily("fam", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Version != 2 {
		t.Fatalf("second pass version = %d, want 2", p3.Version)
	}
	got, ok := s1.Policy("fam")
	if !ok || got.Version != 2 {
		t.Fatalf("Policy = %+v ok=%v, want version 2", got, ok)
	}
}

func TestSpineBackgroundLoop(t *testing.T) {
	s := New(Options{
		Shards: 2, ShardCapacity: 256,
		LearnInterval: 5 * time.Millisecond,
		LearnIters:    1, LearnBatch: 8,
		LearnMinNew: 8, MinTransitions: 8,
	})
	defer s.Close()
	rng := rand.New(rand.NewSource(11))
	var trs []rl.Transition
	for i := 0; i < 32; i++ {
		trs = append(trs, rl.Transition{
			State:     []float64{rng.Float64(), rng.Float64()},
			Action:    []float64{rng.Float64()},
			Reward:    rng.NormFloat64(),
			NextState: []float64{rng.Float64(), rng.Float64()},
		})
	}
	s.Ingest("fam", trs)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := s.Policy("fam"); ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background loop never published a policy")
}

func TestSpineClosedTrainFails(t *testing.T) {
	s := New(Options{})
	s.Ingest("fam", []rl.Transition{testTransition(1, 1)})
	s.Close()
	if _, err := s.TrainFamily("fam", 1); err == nil {
		t.Fatal("TrainFamily after Close must fail")
	}
	s.Close() // idempotent
}
