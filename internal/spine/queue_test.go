package spine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"deepcat/internal/rl"
)

func batchWith(high bool, n int) ingestBatch {
	trs := make([]*rl.Transition, n)
	for i := range trs {
		trs[i] = &rl.Transition{Reward: -1}
	}
	return ingestBatch{trs: trs, high: high}
}

// The overflow policy in isolation: oldest low-priority victim first,
// then the incoming low batch, then the oldest high batch — exercised
// directly against the queue so the ordering is deterministic (no racing
// drainer).
func TestIngestQueueDropPolicyOrdering(t *testing.T) {
	q := newIngestQueue(2)

	// Case 1: full of [low, high]; pushing high evicts the queued low,
	// not the head position per se.
	lowA, highB, highC := batchWith(false, 1), batchWith(true, 2), batchWith(true, 3)
	if _, d := q.push(lowA); d {
		t.Fatal("push into empty queue dropped")
	}
	if _, d := q.push(highB); d {
		t.Fatal("push into non-full queue dropped")
	}
	victim, dropped := q.push(highC)
	if !dropped || len(victim.trs) != len(lowA.trs) {
		t.Fatalf("expected queued low batch evicted, got dropped=%v victim=%d trs", dropped, len(victim.trs))
	}

	// Case 2: queue now [highB, highC]; pushing low is refused (the
	// incoming batch itself is the victim).
	lowD := batchWith(false, 4)
	victim, dropped = q.push(lowD)
	if !dropped || len(victim.trs) != 4 {
		t.Fatalf("expected incoming low batch refused, got dropped=%v victim=%d trs", dropped, len(victim.trs))
	}

	// Case 3: all high and incoming high — drop the oldest so fresher
	// experience wins among equals.
	highE := batchWith(true, 5)
	victim, dropped = q.push(highE)
	if !dropped || len(victim.trs) != 2 {
		t.Fatalf("expected oldest high batch evicted, got dropped=%v victim=%d trs", dropped, len(victim.trs))
	}

	// FIFO order of the survivors: highC then highE.
	b, ok := q.pop()
	if !ok || len(b.trs) != 3 {
		t.Fatalf("pop 1 = %d trs, want 3", len(b.trs))
	}
	q.done()
	b, ok = q.pop()
	if !ok || len(b.trs) != 5 {
		t.Fatalf("pop 2 = %d trs, want 5", len(b.trs))
	}
	q.done()
}

func TestIngestQueueCloseDrains(t *testing.T) {
	q := newIngestQueue(4)
	q.push(batchWith(true, 1))
	q.push(batchWith(false, 2))
	q.close()
	// Closed but non-empty: pop still returns the queued batches in order.
	if b, ok := q.pop(); !ok || len(b.trs) != 1 {
		t.Fatalf("pop after close: ok=%v n=%d", ok, len(b.trs))
	}
	q.done()
	if b, ok := q.pop(); !ok || len(b.trs) != 2 {
		t.Fatalf("pop after close: ok=%v n=%d", ok, len(b.trs))
	}
	q.done()
	if _, ok := q.pop(); ok {
		t.Fatal("pop on closed empty queue returned a batch")
	}
	// Pushes after close are refused.
	if _, dropped := q.push(batchWith(true, 3)); !dropped {
		t.Fatal("push after close not dropped")
	}
}

func TestWaitIdleContext(t *testing.T) {
	q := newIngestQueue(4)
	q.push(batchWith(true, 1))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.waitIdle(ctx); err == nil {
		t.Fatal("waitIdle on a stuck queue did not honor ctx")
	}
}

func tr(reward float64) rl.Transition {
	return rl.Transition{
		State:     []float64{1, 2},
		Action:    []float64{0.5},
		Reward:    reward,
		NextState: []float64{2, 3},
	}
}

// End-to-end through the spine: a queued spine ingests asynchronously,
// WaitIngestIdle lines the test up with the drainer, and the data is
// sampleable afterward.
func TestSpineQueuedIngest(t *testing.T) {
	s := New(Options{Shards: 2, ShardCapacity: 64, FlushEvery: 4, QueueCapacity: 16})
	defer s.Close()
	a := s.Actor("TS")
	for i := 0; i < 20; i++ {
		a.Enqueue(tr(float64(i)))
	}
	a.Flush()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitIngestIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.Len("TS"); got != 20 {
		t.Fatalf("Len = %d, want 20", got)
	}
	if a.Sheds() != 0 {
		t.Fatalf("unexpected sheds: %d", a.Sheds())
	}
	var dst rl.Batch
	if n := s.Sample("TS", rand.New(rand.NewSource(1)), 8, &dst); n != 8 {
		t.Fatalf("Sample = %d, want 8", n)
	}
}

// An ingest storm against a tiny queue with the drainer wedged behind a
// shard lock must shed — crediting the actor — and the learner must
// still be able to train and publish from what survived.
func TestSpineShedUnderStormLearnerPublishes(t *testing.T) {
	s := New(Options{
		Shards: 1, ShardCapacity: 256, FlushEvery: 2, QueueCapacity: 2, Seed: 7,
	})
	defer s.Close()

	// Seed enough experience for a learner before the storm.
	warm := make([]rl.Transition, 80)
	for i := range warm {
		warm[i] = tr(float64(i%2) - 0.5)
	}
	s.Ingest("TS", warm)

	// Wedge the drainer: hold the lane's only shard lock so applies stall
	// and the queue must overflow.
	l := s.lane("TS")
	l.shards[0].mu.Lock()
	a := s.Actor("TS")
	for i := 0; i < 100; i++ {
		a.Enqueue(tr(-1)) // low priority: below threshold
	}
	a.Flush()
	sheds := a.Sheds()
	l.shards[0].mu.Unlock()
	if sheds == 0 {
		t.Fatal("storm against a full queue shed nothing")
	}
	if s.ShedTransitions() < sheds {
		t.Fatalf("spine total %d < actor sheds %d", s.ShedTransitions(), sheds)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitIngestIdle(ctx); err != nil {
		t.Fatal(err)
	}
	// The learner publishes from the surviving experience.
	if _, err := s.TrainFamily("TS", 2); err != nil {
		t.Fatalf("TrainFamily after storm: %v", err)
	}
	if p, ok := s.Policy("TS"); !ok || p.Version == 0 {
		t.Fatal("no policy published after storm")
	}
	st := s.Stats()
	if st.ShedTransitions == 0 {
		t.Fatal("Stats does not surface sheds")
	}
}

// High-reward batches must displace queued low-reward batches end to end.
func TestSpineHighRewardDisplacesLow(t *testing.T) {
	s := New(Options{
		Shards: 1, ShardCapacity: 256, FlushEvery: 2, QueueCapacity: 1,
	})
	defer s.Close()
	l := s.lane("TS")
	l.shards[0].mu.Lock()
	low := s.Actor("TS")
	high := s.Actor("TS")
	// Give the drainer a moment to park on pop, then fill the queue with
	// a low batch and displace it with a high one.
	low.Enqueue(tr(-1))
	low.Enqueue(tr(-1))
	low.Flush()
	// One batch may be held mid-apply by the drainer (blocked on the shard
	// lock); keep pushing low batches until the queue itself is full.
	for low.Sheds() == 0 {
		low.Enqueue(tr(-1))
		low.Enqueue(tr(-1))
		low.Flush()
	}
	lowShedsBefore := low.Sheds()
	high.Enqueue(tr(1))
	high.Enqueue(tr(1))
	high.Flush()
	l.shards[0].mu.Unlock()
	if high.Sheds() != 0 {
		t.Fatalf("high-priority batch was shed (%d)", high.Sheds())
	}
	if low.Sheds() < lowShedsBefore {
		t.Fatal("low shed count went backward")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitIngestIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if s.Len("TS") == 0 {
		t.Fatal("nothing survived to the rings")
	}
}

// A synchronous spine (QueueCapacity 0) must behave exactly as before:
// no queue, no sheds, immediate visibility.
func TestSpineSynchronousUnchanged(t *testing.T) {
	s := New(Options{Shards: 2, ShardCapacity: 64, FlushEvery: 4})
	defer s.Close()
	a := s.Actor("TS")
	for i := 0; i < 8; i++ {
		a.Enqueue(tr(float64(i)))
	}
	a.Flush()
	if got := s.Len("TS"); got != 8 {
		t.Fatalf("Len = %d, want 8 immediately after Flush", got)
	}
	if s.QueueDepth() != 0 || s.ShedTransitions() != 0 {
		t.Fatal("synchronous spine reports queue state")
	}
	if err := s.WaitIngestIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
}
