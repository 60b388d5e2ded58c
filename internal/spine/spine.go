// Package spine is the high-throughput replay backbone of the actor/learner
// split (Ape-X style, Horgan et al.): tuning sessions become lightweight
// actors that enqueue their observed transitions into a sharded, lock-minimal
// reward-driven replay (RDPER's high/low pools, per shard), and a pool of
// background learners — one TD3 agent per workload family — trains off the
// shared experience and publishes versioned, immutable weight snapshots that
// sessions adopt at their own cadence.
//
// The replay path is built to never be the bottleneck:
//
//   - Batched ingest: each actor accumulates transitions in a private append
//     buffer and flushes the whole batch under one shard-lock acquisition.
//   - Sharding: every workload family's lane is split across N shards, each
//     with its own writer lock, so concurrent actors rarely contend.
//   - Copy-on-write slots: a transition is deep-copied once at enqueue into a
//     flat backing array and published into its ring slot with an atomic
//     pointer swap; from then on it is immutable. Samplers read slots with
//     atomic loads only — they never take a lock and never block ingest.
//
// Nothing here touches disk: durability stays with the warehouse WAL, which
// also warm-starts the spine after a restart (see the service wiring).
package spine

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepcat/internal/core"
	"deepcat/internal/obs"
	"deepcat/internal/rl"
)

// Sentinel errors.
var (
	// ErrClosed marks calls against a closed spine.
	ErrClosed = errors.New("spine closed")
	// ErrUnknownFamily marks a family with no ingested experience.
	ErrUnknownFamily = errors.New("unknown workload family")
)

// Options configures a Spine. The zero value of every field selects a
// sensible default.
type Options struct {
	// Shards is the number of writer-locked shards per workload-family lane
	// (default 8).
	Shards int
	// ShardCapacity bounds each shard's high and low ring pool (default
	// 2048 transitions per pool, so a lane retains up to
	// Shards*ShardCapacity*2 transitions).
	ShardCapacity int
	// FlushEvery is the actor append-buffer size: enqueues are local until
	// this many accumulate, then the batch is flushed under one lock
	// acquisition (default 32). Actors may also Flush explicitly.
	FlushEvery int
	// QueueCapacity, when positive, puts a bounded ingest queue (measured
	// in flush batches) between actors and the shard rings: Flush becomes
	// a non-blocking enqueue and a single drainer goroutine applies
	// batches, shedding by the drop-oldest-low-priority policy when the
	// queue overflows (see ingestQueue). Zero keeps the original
	// synchronous Flush — no queue, no shedding, deterministic ingest.
	QueueCapacity int

	// LearnInterval is the period of the background learner loop; zero or
	// negative disables it, leaving TrainFamily to explicit calls.
	LearnInterval time.Duration
	// LearnIters is the number of gradient updates per learner pass
	// (default 4).
	LearnIters int
	// LearnBatch is the training mini-batch size (default 32).
	LearnBatch int
	// LearnMinNew is how many transitions a lane must ingest since its last
	// training before the background loop retrains it (default 32).
	LearnMinNew int
	// MinTransitions is the smallest lane that gets a learner at all
	// (default 64).
	MinTransitions int
	// Workers bounds concurrent background learner passes (default 2).
	Workers int
	// Seed drives learner randomness; each family derives a deterministic
	// sub-seed from it (default 1).
	Seed int64

	// Registry, when non-nil, receives the spine's metrics; nil keeps the
	// layer a no-op. Logger, when non-nil, receives learner events.
	Registry *obs.Registry
	Logger   *obs.Logger
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.ShardCapacity <= 0 {
		o.ShardCapacity = 2048
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 32
	}
	if o.LearnIters <= 0 {
		o.LearnIters = 4
	}
	if o.LearnBatch <= 0 {
		o.LearnBatch = 32
	}
	if o.LearnMinNew <= 0 {
		o.LearnMinNew = 32
	}
	if o.MinTransitions <= 0 {
		o.MinTransitions = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// shard is one writer-locked slice of a lane: an RDPER high/low pool pair.
// The mutex guards only the writer cursors; samplers never take it.
type shard struct {
	mu        sync.Mutex
	high, low *ring
}

// lane is one workload family's experience: Shards shards plus ingest
// accounting. Lanes are created on first ingest and never removed.
type lane struct {
	family string
	shards []*shard
	// rr distributes flushes across shards round-robin.
	rr atomic.Uint64
	// ingested counts transitions ever flushed into the lane.
	ingested atomic.Uint64
}

func (l *lane) highLen() int {
	n := 0
	for _, sh := range l.shards {
		n += sh.high.len()
	}
	return n
}

func (l *lane) lowLen() int {
	n := 0
	for _, sh := range l.shards {
		n += sh.low.len()
	}
	return n
}

func (l *lane) len() int { return l.highLen() + l.lowLen() }

// spineMetrics bundles the spine's instruments; nil-instrument no-ops when
// the spine runs without a registry. reg is kept for the per-family health
// gauges, whose label sets only exist once a lane does.
type spineMetrics struct {
	reg       *obs.Registry
	ingested  *obs.Counter
	flushes   *obs.Counter
	sampled   *obs.Counter
	sampleDur *obs.Histogram
	trainings *obs.Counter
	publishes *obs.Counter
	learners  *obs.Gauge
	dutyCycle *obs.Gauge
	shed      *obs.Counter
	rejected  *obs.Counter
}

func newSpineMetrics(reg *obs.Registry) spineMetrics {
	return spineMetrics{
		reg:       reg,
		ingested:  reg.Counter("deepcat_spine_ingest_transitions_total"),
		flushes:   reg.Counter("deepcat_spine_ingest_flushes_total"),
		sampled:   reg.Counter("deepcat_spine_sampled_transitions_total"),
		sampleDur: reg.Histogram("deepcat_spine_sample_duration_seconds", nil),
		trainings: reg.Counter("deepcat_spine_learner_trainings_total"),
		publishes: reg.Counter("deepcat_spine_policy_publishes_total"),
		learners:  reg.Gauge("deepcat_spine_learners"),
		dutyCycle: reg.Gauge("deepcat_spine_learner_duty_permille"),
		shed:      reg.Counter("deepcat_spine_shed_transitions_total"),
		rejected:  reg.Counter("deepcat_spine_rejected_transitions_total"),
	}
}

// Spine is the shared replay backbone plus its learner pool. All methods
// are safe for concurrent use; Actor handles are not (one per session).
type Spine struct {
	opts Options
	met  spineMetrics
	logg *obs.Logger

	mu     sync.RWMutex
	lanes  map[string]*lane
	closed bool

	lmu      sync.Mutex
	learners map[string]*learner

	stopc      chan struct{}
	loopWG     sync.WaitGroup
	trainWG    sync.WaitGroup
	trainSlots chan struct{}

	// born anchors the learner duty-cycle ratio; trainNS accumulates wall
	// time spent inside training passes across all learners.
	born    time.Time
	trainNS atomic.Int64

	// queue is the bounded ingest queue (nil when QueueCapacity is 0 and
	// Flush applies synchronously); bufPool recycles flush buffers across
	// the actor→drainer handoff; shedTotal counts transitions dropped by
	// the overflow policy.
	queue     *ingestQueue
	bufPool   sync.Pool
	shedTotal atomic.Uint64
}

// New creates a spine. When opts.LearnInterval is positive a background
// goroutine periodically retrains due families' learners.
func New(opts Options) *Spine {
	opts = opts.withDefaults()
	s := &Spine{
		opts:       opts,
		met:        newSpineMetrics(opts.Registry),
		logg:       opts.Logger,
		lanes:      make(map[string]*lane),
		learners:   make(map[string]*learner),
		stopc:      make(chan struct{}),
		trainSlots: make(chan struct{}, opts.Workers),
		born:       time.Now(),
	}
	if opts.QueueCapacity > 0 {
		s.queue = newIngestQueue(opts.QueueCapacity)
		s.loopWG.Add(1)
		go s.drainLoop()
	}
	if opts.LearnInterval > 0 {
		s.loopWG.Add(1)
		go s.loop()
	}
	return s
}

// Close stops the background learner loop and waits for in-flight passes.
// Ingest and sampling against a closed spine stay safe (the rings are plain
// memory); TrainFamily fails with ErrClosed.
func (s *Spine) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopc)
	if s.queue != nil {
		// Wake the drainer; it applies everything still queued before
		// exiting, so a graceful shutdown loses no experience.
		s.queue.close()
	}
	s.loopWG.Wait()
	s.trainWG.Wait()
}

// lane returns the family's lane, creating it on first use.
func (s *Spine) lane(family string) *lane {
	s.mu.RLock()
	l := s.lanes[family]
	s.mu.RUnlock()
	if l != nil {
		return l
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if l = s.lanes[family]; l != nil {
		return l
	}
	l = &lane{family: family, shards: make([]*shard, s.opts.Shards)}
	for i := range l.shards {
		l.shards[i] = &shard{
			high: newRing(s.opts.ShardCapacity),
			low:  newRing(s.opts.ShardCapacity),
		}
	}
	s.lanes[family] = l
	return l
}

// peek returns any stored transition of the lane (nil when empty); learners
// use it to discover the family's state/action dimensions.
func (l *lane) peek() *rl.Transition {
	for _, sh := range l.shards {
		for _, r := range []*ring{sh.high, sh.low} {
			if n := int(r.n.Load()); n > 0 {
				return r.slots[0].Load()
			}
		}
	}
	return nil
}

// Actor is one producer's handle into the spine: a private append buffer
// bound to a workload family, flushed in batches. Not safe for concurrent
// use — each session (or benchmark goroutine) owns its own.
type Actor struct {
	sp   *Spine
	lane *lane
	buf  []*rl.Transition
	// shed counts this actor's transitions dropped by the ingest queue's
	// overflow policy — including batches it enqueued long ago that were
	// evicted as someone else's flush arrived. Atomic because the drainer
	// and overflow path credit it from other goroutines.
	shed atomic.Uint64
}

// Actor returns a new producer handle for the family.
func (s *Spine) Actor(family string) *Actor {
	return &Actor{
		sp:   s,
		lane: s.lane(family),
		buf:  s.getBuf(),
	}
}

// Sheds returns the number of this actor's transitions dropped by spine
// backpressure (always 0 on a synchronous spine).
func (a *Actor) Sheds() uint64 { return a.shed.Load() }

// Enqueue deep-copies the transition into the actor's append buffer,
// flushing the batch into the lane once FlushEvery accumulate. The caller
// may reuse tr's slices immediately. A transition that fails
// rl.Transition.Check is skipped and counted in
// deepcat_spine_rejected_transitions_total, so nothing non-finite reaches
// the shared rings.
func (a *Actor) Enqueue(tr rl.Transition) {
	if tr.Check() != nil {
		a.sp.met.rejected.Inc()
		return
	}
	a.buf = append(a.buf, compactClone(tr))
	if len(a.buf) >= cap(a.buf) {
		a.Flush()
	}
}

// Pending returns the number of buffered, not-yet-flushed transitions.
func (a *Actor) Pending() int { return len(a.buf) }

// Flush publishes the buffered transitions. On a synchronous spine
// (QueueCapacity 0) they go straight into the next shard (round-robin)
// under a single lock acquisition. With a bounded ingest queue, Flush is
// a non-blocking handoff: the buffer is enqueued for the drainer, the
// actor takes a recycled buffer from the pool, and if the queue was full
// the overflow policy's victim is shed with its transitions credited to
// the owning actor — the serving thread never waits on replay ingest.
func (a *Actor) Flush() {
	if len(a.buf) == 0 {
		return
	}
	sp := a.sp
	if sp.queue == nil {
		sp.applyBatch(a.lane, a.buf)
		a.buf = a.buf[:0]
		return
	}
	high := false
	for _, tr := range a.buf {
		if tr.Reward >= core.DefaultRewardThreshold {
			high = true
			break
		}
	}
	b := ingestBatch{lane: a.lane, trs: a.buf, high: high, shed: &a.shed}
	a.buf = sp.getBuf()
	if victim, dropped := sp.queue.push(b); dropped {
		sp.shedBatch(victim)
	}
}

// Ingest bulk-loads transitions into a family's lane, spreading them across
// shards in FlushEvery-sized batches, skipping what Enqueue refuses. The
// service uses it to warm-start the
// spine from the warehouse WAL after a restart. On a queued spine it waits
// for the queue to drain so the bulk load keeps its synchronous contract
// (callers train immediately after warm-starting).
func (s *Spine) Ingest(family string, trs []rl.Transition) {
	a := s.Actor(family)
	for _, tr := range trs {
		a.Enqueue(tr)
	}
	a.Flush()
	s.WaitIngestIdle(context.Background())
}

// Sample fills dst with up to n transitions of the family, ceil(Beta*n)
// from the high-reward pools and the rest from the low (while one side is
// empty the whole batch comes from the other, mirroring RDPER). dst's
// backing slices are reused across calls; the sampled transitions reference
// the spine's immutable copy-on-write slots and must not be mutated. It
// returns the number sampled — 0 for an unknown or empty family — and never
// blocks ingest.
func (s *Spine) Sample(family string, rng *rand.Rand, n int, dst *rl.Batch) int {
	start := time.Now()
	s.mu.RLock()
	l := s.lanes[family]
	s.mu.RUnlock()
	dst.Transitions = dst.Transitions[:0]
	dst.Indices = dst.Indices[:0]
	dst.Weights = dst.Weights[:0]
	if l == nil {
		return 0
	}
	highN, lowN := l.highLen(), l.lowLen()
	if highN+lowN == 0 {
		return 0
	}
	nHigh := int(core.DefaultBeta*float64(n) + 0.999999)
	if nHigh > n {
		nHigh = n
	}
	switch {
	case highN == 0:
		nHigh = 0
	case lowN == 0:
		nHigh = n
	}
	l.samplePool(rng, nHigh, true, dst)
	l.samplePool(rng, n-nHigh, false, dst)
	for i := range dst.Transitions {
		dst.Indices = append(dst.Indices, i)
		dst.Weights = append(dst.Weights, 1)
	}
	s.met.sampled.Add(uint64(len(dst.Transitions)))
	s.met.sampleDur.ObserveSince(start)
	return len(dst.Transitions)
}

// samplePool appends n draws (with replacement) from the lane's high or low
// pools: a random shard, probed forward past empty ones, then a random slot.
// Lock-free — only atomic loads.
func (l *lane) samplePool(rng *rand.Rand, n int, high bool, dst *rl.Batch) {
	ns := len(l.shards)
	for i := 0; i < n; i++ {
		start := rng.Intn(ns)
		for probe := 0; probe < ns; probe++ {
			sh := l.shards[(start+probe)%ns]
			r := sh.low
			if high {
				r = sh.high
			}
			if tr := r.sample(rng); tr != nil {
				dst.Transitions = append(dst.Transitions, *tr)
				break
			}
		}
	}
}

// LaneStats summarizes one workload family's lane and learner.
type LaneStats struct {
	Family string `json:"family"`
	// High and Low are the retained pool sizes; Ingested counts every
	// transition ever flushed (including evicted ones).
	High     int    `json:"high"`
	Low      int    `json:"low"`
	Ingested uint64 `json:"ingested"`
	// Version is the latest published policy version (0 = none yet);
	// Trainings counts learner passes.
	Version   int `json:"version,omitempty"`
	Trainings int `json:"trainings,omitempty"`
	// Backlog is how many transitions have been ingested since the last
	// learner pass — the replay-path lag between actors producing
	// experience and the learner consuming it.
	Backlog uint64 `json:"backlog,omitempty"`
	// StalenessSeconds is how long ago the family's policy was last
	// published (0 while nothing has been published yet).
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
}

// Stats is a point-in-time snapshot of the spine.
type Stats struct {
	Shards        int         `json:"shards"`
	ShardCapacity int         `json:"shard_capacity"`
	Lanes         []LaneStats `json:"lanes,omitempty"`
	// LearnerDuty is the fraction of wall time the learner pool has spent
	// inside training passes since the spine started (summed over workers,
	// so >1 means more than one concurrent pass on average).
	LearnerDuty float64 `json:"learner_duty,omitempty"`
	// QueueDepth is the number of flush batches waiting in the bounded
	// ingest queue (0 on a synchronous spine); ShedTransitions counts
	// transitions its overflow policy has dropped.
	QueueDepth      int    `json:"queue_depth,omitempty"`
	ShedTransitions uint64 `json:"shed_transitions,omitempty"`
}

// Stats reports per-family lane sizes and learner progress, sorted by
// family.
func (s *Spine) Stats() Stats {
	s.mu.RLock()
	lanes := make([]*lane, 0, len(s.lanes))
	for _, l := range s.lanes {
		lanes = append(lanes, l)
	}
	s.mu.RUnlock()
	st := Stats{Shards: s.opts.Shards, ShardCapacity: s.opts.ShardCapacity}
	now := time.Now()
	for _, l := range lanes {
		ls := LaneStats{
			Family:   l.family,
			High:     l.highLen(),
			Low:      l.lowLen(),
			Ingested: l.ingested.Load(),
		}
		ls.Backlog = ls.Ingested
		s.lmu.Lock()
		if ln := s.learners[l.family]; ln != nil {
			if p := ln.pub.Load(); p != nil {
				ls.Version = p.Version
			}
			ls.Trainings = int(ln.trainings.Load())
			ls.Backlog = ls.Ingested - ln.lastIngested.Load()
			if at := ln.lastPublish.Load(); at > 0 {
				ls.StalenessSeconds = now.Sub(time.Unix(0, at)).Seconds()
			}
		}
		s.lmu.Unlock()
		st.Lanes = append(st.Lanes, ls)
	}
	if elapsed := now.Sub(s.born).Seconds(); elapsed > 0 {
		st.LearnerDuty = float64(s.trainNS.Load()) / 1e9 / elapsed
	}
	st.QueueDepth = s.QueueDepth()
	st.ShedTransitions = s.shedTotal.Load()
	sort.Slice(st.Lanes, func(i, j int) bool { return st.Lanes[i].Family < st.Lanes[j].Family })
	return st
}

// RefreshHealthMetrics publishes the spine's derived health view into its
// registry gauges: per-family queue depth, ingest backlog, published policy
// version and staleness, plus the pool-wide learner duty cycle. Gauges are
// resolved by name each call (families appear dynamically); the background
// loop refreshes them every tick and the service's metrics-snapshot path
// refreshes them on demand, so scrapes are never staler than one request.
// A spine without a registry no-ops.
func (s *Spine) RefreshHealthMetrics() {
	if s.met.reg == nil {
		return
	}
	st := s.Stats()
	for _, ls := range st.Lanes {
		s.met.reg.Gauge("deepcat_spine_queue_depth", "family", ls.Family).Set(int64(ls.High + ls.Low))
		s.met.reg.Gauge("deepcat_spine_ingest_backlog", "family", ls.Family).Set(int64(ls.Backlog))
		s.met.reg.Gauge("deepcat_spine_policy_version", "family", ls.Family).Set(int64(ls.Version))
		s.met.reg.Gauge("deepcat_spine_policy_staleness_seconds", "family", ls.Family).
			Set(int64(ls.StalenessSeconds + 0.5))
	}
	s.met.dutyCycle.Set(int64(st.LearnerDuty * 1000))
	s.met.reg.Gauge("deepcat_spine_ingest_queue_depth").Set(int64(st.QueueDepth))
}

// Len returns the number of retained transitions for a family (0 when
// unknown).
func (s *Spine) Len(family string) int {
	s.mu.RLock()
	l := s.lanes[family]
	s.mu.RUnlock()
	if l == nil {
		return 0
	}
	return l.len()
}

func (s *Spine) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}
