package spine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepcat/internal/core"
	"deepcat/internal/rl"
)

// Policy is one published weight snapshot of a family's learner. It is
// immutable after publication: many sessions may adopt the same Policy
// concurrently, each copying the state into its own agent. Versions are
// dense per family, starting at 1, so "adopt if newer than what I have" is
// a single integer comparison and a resumed session (whose checkpoint
// recorded its adopted version) never re-adopts an older snapshot.
type Policy struct {
	Family  string
	Version int
	// Agent carries every network and optimizer moment; treat as read-only.
	Agent rl.TD3State
}

// learner trains one workload family's TD3 agent off the lane and publishes
// Policy snapshots. tmu serializes training passes; pub is the lock-free
// read side sessions adopt from, so adoption never waits on a pass.
type learner struct {
	family string
	// tmu guards agent, rng and batch across passes.
	tmu   sync.Mutex
	agent *rl.TD3
	rng   *rand.Rand
	// batch is the reused sampling scratch; its backing grows once to the
	// batch size and is then recycled every iteration.
	batch rl.Batch
	// lastIngested is the lane's ingested count at the last pass; the
	// background loop retrains once LearnMinNew more arrive.
	lastIngested atomic.Uint64

	pub       atomic.Pointer[Policy]
	trainings atomic.Uint64
	// lastPublish is the unix-nano wall time of the latest published
	// Policy; the health gauges derive staleness from it.
	lastPublish atomic.Int64
}

// learnerSeed derives a deterministic per-family seed, mirroring the
// warehouse's donor seeding so a spine rebuilt from the same WAL trains the
// same trajectory given the same sampling stream.
func learnerSeed(base int64, family string) int64 {
	h := fnv.New64a()
	h.Write([]byte(family))
	return base ^ int64(h.Sum64()&0x7fffffffffff)
}

// ensureLearner returns the family's learner, creating it on first use. The
// family's state/action dimensions come from a stored transition, so a lane
// must hold experience before it can have a learner.
func (s *Spine) ensureLearner(l *lane) (*learner, error) {
	s.lmu.Lock()
	defer s.lmu.Unlock()
	if ln := s.learners[l.family]; ln != nil {
		return ln, nil
	}
	tr := l.peek()
	if tr == nil {
		return nil, fmt.Errorf("spine: %s: %w", l.family, ErrUnknownFamily)
	}
	// The agent architecture must match the sessions', or adoption would be
	// refused; both sides derive it from core.DefaultConfig.
	cfg := core.DefaultConfig(len(tr.State), len(tr.Action))
	rng := rand.New(rand.NewSource(learnerSeed(s.opts.Seed, l.family)))
	agent, err := rl.NewTD3(rng, cfg.TD3)
	if err != nil {
		return nil, fmt.Errorf("spine: learner %s: %w", l.family, err)
	}
	ln := &learner{family: l.family, agent: agent, rng: rng}
	s.learners[l.family] = ln
	s.met.learners.Inc()
	s.logg.Info("spine learner created", "family", l.family,
		"state_dim", len(tr.State), "action_dim", len(tr.Action))
	return ln, nil
}

// Policy returns the latest published weight snapshot for a family; ok is
// false while the family has no learner or the learner has not published
// yet. The read side is lock-free beyond the learner-map lookup.
func (s *Spine) Policy(family string) (*Policy, bool) {
	s.lmu.Lock()
	ln := s.learners[family]
	s.lmu.Unlock()
	if ln == nil {
		return nil, false
	}
	p := ln.pub.Load()
	if p == nil {
		return nil, false
	}
	return p, true
}

// TrainFamily synchronously runs one learner pass for a family: iters
// gradient updates (<= 0 selects Options.LearnIters) sampled from the lane,
// then a new Policy version published. Tests and the e2e gate call it
// directly; production runs it from the background loop.
func (s *Spine) TrainFamily(family string, iters int) (*Policy, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	s.mu.RLock()
	l := s.lanes[family]
	s.mu.RUnlock()
	if l == nil || l.len() == 0 {
		return nil, fmt.Errorf("spine: %s: %w", family, ErrUnknownFamily)
	}
	ln, err := s.ensureLearner(l)
	if err != nil {
		return nil, err
	}
	if iters <= 0 {
		iters = s.opts.LearnIters
	}
	return s.trainPass(l, ln, iters)
}

// trainPass performs one training pass, serialized per learner, and
// publishes the result as the family's next Policy version. A trained state
// that fails rl.TD3State.Check is never published: the family keeps its
// incumbent version, the learner is rolled back to it (when there is one),
// and the pass returns the incumbent with an error.
func (s *Spine) trainPass(l *lane, ln *learner, iters int) (*Policy, error) {
	ln.tmu.Lock()
	defer ln.tmu.Unlock()
	start := time.Now()
	done := 0
	for i := 0; i < iters; i++ {
		n := s.opts.LearnBatch
		if avail := l.len(); avail < n {
			n = avail
		}
		if n < 2 {
			break
		}
		if got := s.Sample(l.family, ln.rng, n, &ln.batch); got == 0 {
			break
		}
		ln.agent.Train(ln.rng, ln.batch)
		done++
	}
	ln.lastIngested.Store(l.ingested.Load())
	ln.trainings.Add(1)
	s.met.trainings.Inc()
	inc, ver := ln.pub.Load(), 0
	if inc != nil {
		ver = inc.Version
	}
	st := ln.agent.CaptureState()
	if err := st.Check(); err != nil {
		if inc != nil {
			err = errors.Join(err, ln.agent.RestoreState(inc.Agent))
		}
		return inc, fmt.Errorf("spine: %s: trained state refused, kept version %d: %w", l.family, ver, err)
	}
	pol := &Policy{Family: l.family, Version: ver + 1, Agent: st}
	ln.pub.Store(pol)
	ln.lastPublish.Store(time.Now().UnixNano())
	s.trainNS.Add(time.Since(start).Nanoseconds())
	s.met.publishes.Inc()
	s.logg.Debug("spine policy published", "family", l.family,
		"version", pol.Version, "iters", done, "dur", time.Since(start))
	return pol, nil
}

// loop is the background learner scheduler: every LearnInterval it finds
// lanes with enough new experience and dispatches a pass for each, bounded
// by the worker pool. Saturated dispatches are skipped — the lane stays due
// and the next tick retries, so nothing queues without bound.
func (s *Spine) loop() {
	defer s.loopWG.Done()
	ticker := time.NewTicker(s.opts.LearnInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-ticker.C:
		}
		s.RefreshHealthMetrics()
		for _, fam := range s.dueFamilies() {
			select {
			case s.trainSlots <- struct{}{}:
			default:
				continue
			}
			s.trainWG.Add(1)
			go func(fam string) {
				defer s.trainWG.Done()
				defer func() { <-s.trainSlots }()
				if _, err := s.TrainFamily(fam, 0); err != nil {
					s.logg.Warn("spine learner pass failed", "family", fam, "err", err)
				}
			}(fam)
		}
	}
}

// dueFamilies lists lanes big enough for a learner that have ingested at
// least LearnMinNew transitions since their last pass, sorted for
// determinism.
func (s *Spine) dueFamilies() []string {
	s.mu.RLock()
	lanes := make([]*lane, 0, len(s.lanes))
	for _, l := range s.lanes {
		lanes = append(lanes, l)
	}
	s.mu.RUnlock()
	var due []string
	for _, l := range lanes {
		if l.len() < s.opts.MinTransitions {
			continue
		}
		s.lmu.Lock()
		ln := s.learners[l.family]
		s.lmu.Unlock()
		var last uint64
		if ln != nil {
			last = ln.lastIngested.Load()
		}
		if l.ingested.Load()-last < uint64(s.opts.LearnMinNew) {
			continue
		}
		due = append(due, l.family)
	}
	sort.Strings(due)
	return due
}
