package spine

import (
	"context"
	"sync"
	"sync/atomic"

	"deepcat/internal/core"
	"deepcat/internal/rl"
)

// ingestBatch is one actor flush in transit through the bounded queue:
// the destination lane, the copy-on-write transitions, a priority bit
// (whether any transition clears the reward threshold — high-reward
// experience is RDPER's scarce resource and sheds last), and the owner
// actor's shed counter so dropped work is attributed to the session that
// produced it.
type ingestBatch struct {
	lane *lane
	trs  []*rl.Transition
	high bool
	shed *atomic.Uint64 // nil for ownerless bulk loads
}

// ingestQueue is the spine's backpressure boundary: a bounded FIFO of
// flush batches between actors and the shard rings. When it is full the
// overflow policy drops in strict priority order:
//
//  1. the oldest low-priority batch already queued (stale, expendable
//     experience makes room for anything newer);
//  2. failing that, the incoming batch if it is itself low-priority;
//  3. failing that — everything queued and incoming is high — the oldest,
//     so fresher experience wins among equals.
//
// Every dropped batch is counted against its owning actor and the
// spine-wide shed counter; nothing ever blocks the actor's serving
// thread.
type ingestQueue struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	idle     *sync.Cond
	batches  []ingestBatch
	capb     int
	applying bool
	closed   bool
}

func newIngestQueue(capBatches int) *ingestQueue {
	q := &ingestQueue{capb: capBatches}
	q.nonEmpty = sync.NewCond(&q.mu)
	q.idle = sync.NewCond(&q.mu)
	return q
}

// push enqueues b, evicting per the overflow policy when full. It returns
// the dropped batch, if any, so the caller can credit shed counters and
// recycle buffers. Never blocks.
func (q *ingestQueue) push(b ingestBatch) (dropped ingestBatch, didDrop bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return b, true
	}
	if len(q.batches) >= q.capb {
		victim := -1
		for i, qb := range q.batches {
			if !qb.high {
				victim = i
				break
			}
		}
		switch {
		case victim >= 0:
			dropped = q.batches[victim]
			q.batches = append(q.batches[:victim], q.batches[victim+1:]...)
		case !b.high:
			return b, true // everything queued outranks the newcomer
		default:
			dropped = q.batches[0]
			q.batches = q.batches[1:]
		}
		didDrop = true
	}
	q.batches = append(q.batches, b)
	q.nonEmpty.Signal()
	return dropped, didDrop
}

// pop blocks until a batch is available or the queue is closed; ok=false
// means closed-and-empty (time for the drainer to exit).
func (q *ingestQueue) pop() (ingestBatch, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.batches) == 0 {
		if q.closed {
			return ingestBatch{}, false
		}
		q.nonEmpty.Wait()
	}
	b := q.batches[0]
	q.batches = q.batches[1:]
	q.applying = true
	return b, true
}

// done marks the popped batch applied and wakes idle waiters when the
// queue has fully drained.
func (q *ingestQueue) done() {
	q.mu.Lock()
	q.applying = false
	if len(q.batches) == 0 {
		q.idle.Broadcast()
	}
	q.mu.Unlock()
}

// depth returns the number of queued (not yet applied) batches.
func (q *ingestQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.batches)
}

// close wakes the drainer; queued batches are still drained before the
// drainer exits, so a graceful shutdown loses nothing.
func (q *ingestQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.nonEmpty.Broadcast()
	q.idle.Broadcast()
	q.mu.Unlock()
}

// waitIdle blocks until the queue is empty with no batch mid-apply, the
// queue closes, or the context expires. Bulk loads use it to keep their
// synchronous contract; tests use it to line up assertions.
func (q *ingestQueue) waitIdle(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		// A waker so ctx expiry can interrupt the cond wait. Taking the
		// mutex serializes the broadcast against the waiter's park, so the
		// wakeup can't slip between its ctx check and its Wait.
		select {
		case <-ctx.Done():
			q.mu.Lock()
			q.idle.Broadcast()
			q.mu.Unlock()
		case <-done:
		}
	}()
	defer close(done)
	q.mu.Lock()
	defer q.mu.Unlock()
	for (len(q.batches) > 0 || q.applying) && !q.closed {
		if err := ctx.Err(); err != nil {
			return err
		}
		q.idle.Wait()
	}
	return ctx.Err()
}

// drainLoop is the spine's single queue consumer: it applies batches to
// their lanes' shard rings under the normal shard locks, recycles flush
// buffers, and exits once the queue is closed and empty.
func (s *Spine) drainLoop() {
	defer s.loopWG.Done()
	for {
		b, ok := s.queue.pop()
		if !ok {
			return
		}
		s.applyBatch(b.lane, b.trs)
		s.recycle(b.trs)
		s.queue.done()
	}
}

// applyBatch routes one flush's transitions into the next shard
// round-robin under a single lock acquisition — the same hot loop a
// synchronous Flush runs inline. Ingest accounting happens here, at
// apply time, so lane.ingested (and the learner backlog derived from it)
// only ever counts experience that actually reached a ring.
func (s *Spine) applyBatch(l *lane, trs []*rl.Transition) {
	if len(trs) == 0 {
		return
	}
	sh := l.shards[l.rr.Add(1)%uint64(len(l.shards))]
	sh.mu.Lock()
	for _, tr := range trs {
		if tr.Reward >= core.DefaultRewardThreshold {
			sh.high.append(tr)
		} else {
			sh.low.append(tr)
		}
	}
	sh.mu.Unlock()
	l.ingested.Add(uint64(len(trs)))
	s.met.ingested.Add(uint64(len(trs)))
	s.met.flushes.Inc()
}

// shedBatch credits a dropped batch to its owner and the spine totals,
// then recycles the buffer.
func (s *Spine) shedBatch(b ingestBatch) {
	n := uint64(len(b.trs))
	if b.shed != nil {
		b.shed.Add(n)
	}
	s.shedTotal.Add(n)
	s.met.shed.Add(n)
	s.recycle(b.trs)
}

// getBuf hands an actor a recycled flush buffer (or a fresh one).
func (s *Spine) getBuf() []*rl.Transition {
	if v := s.bufPool.Get(); v != nil {
		return v.([]*rl.Transition)[:0]
	}
	return make([]*rl.Transition, 0, s.opts.FlushEvery)
}

// recycle returns a flush buffer to the pool. Slot pointers are cleared
// so the pool doesn't pin evicted transitions.
func (s *Spine) recycle(trs []*rl.Transition) {
	for i := range trs {
		trs[i] = nil
	}
	s.bufPool.Put(trs[:0])
}

// WaitIngestIdle blocks until the ingest queue (if any) has fully
// drained or the context expires. A synchronous spine returns
// immediately.
func (s *Spine) WaitIngestIdle(ctx context.Context) error {
	if s.queue == nil {
		return nil
	}
	return s.queue.waitIdle(ctx)
}

// QueueDepth returns the number of flush batches waiting in the ingest
// queue (0 for a synchronous spine).
func (s *Spine) QueueDepth() int {
	if s.queue == nil {
		return 0
	}
	return s.queue.depth()
}

// ShedTransitions returns the total transitions dropped by the ingest
// queue's overflow policy since the spine started.
func (s *Spine) ShedTransitions() uint64 { return s.shedTotal.Load() }
