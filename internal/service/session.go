package service

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"deepcat/internal/cli"
	"deepcat/internal/core"
	"deepcat/internal/env"
	"deepcat/internal/mat"
	"deepcat/internal/rl"
	"deepcat/internal/spine"
	"deepcat/internal/trace"
	"deepcat/internal/warehouse"
)

// warmSeedMax caps how many high-reward transitions a warm-started session
// pre-fills its replay pools with; enough to dominate early mini-batches
// without letting a huge family swamp session creation.
const warmSeedMax = 256

// Sentinel errors; the HTTP layer maps them to status codes.
var (
	// ErrNotFound marks a missing session or checkpoint (404).
	ErrNotFound = errors.New("not found")
	// ErrInvalid marks a malformed request (400).
	ErrInvalid = errors.New("invalid request")
	// ErrConflict marks a request that contradicts session state, e.g. an
	// observation with no pending suggestion (409).
	ErrConflict = errors.New("conflict")
	// ErrClosed marks calls against a deleted session (410).
	ErrClosed = errors.New("session closed")
	// ErrFull marks session creation beyond the daemon's capacity (503).
	ErrFull = errors.New("session limit reached")
	// ErrDraining marks calls against a session frozen for checkpoint
	// handoff to another fleet shard (503; retry after the migration
	// lands and the router points at the new owner).
	ErrDraining = errors.New("session draining for migration")
)

// sessionMeta is the persisted bookkeeping of one session; everything the
// agent itself does not carry. Step through State and SanRecent persist the
// session's env.Stepper; they are current only in a checkpoint.
type sessionMeta struct {
	ID       string
	Workload string
	Input    int
	Cluster  string
	Seed     int64

	Step       int
	PrevTime   float64
	LastFailed bool
	BestTime   float64
	BestAction []float64
	State      []float64

	// Circuit-breaker state ("" in pre-breaker checkpoints normalizes to
	// healthy) and accounting; see breaker.go for the state machine.
	Health       string
	ConsecFails  int
	DegradedObs  int
	BreakerTrips int
	// Quarantined counts observations the sanitizer refused (non-finite
	// or outlier); SanRecent is the sanitizer's accepted history so a
	// resumed session keeps its outlier baseline.
	Quarantined int
	SanRecent   []float64

	// WarmStarted records that the session was seeded from the named
	// warehouse donor (e.g. "a.TS.1-g3") instead of starting cold.
	WarmStarted bool
	Donor       string

	// SpineVersion is the version of the last spine policy this session
	// adopted (0 = never adopted); persisting it makes adoption
	// checkpoint-compatible — a resumed session knows exactly which
	// published weights it runs and never re-adopts an older version.
	// SpineAdoptions counts adoptions over the session's lifetime. Both
	// stay zero when the daemon runs without a spine (gob also leaves them
	// zero when resuming a pre-spine checkpoint).
	SpineVersion   int
	SpineAdoptions int

	CreatedAt, UpdatedAt time.Time
}

// sessionCheckpoint is the on-disk format: metadata plus the tuner's full
// snapshot. A pending (unobserved) suggestion is deliberately not
// persisted: suggestions are free to recompute, so after a restart the
// session simply suggests again.
type sessionCheckpoint struct {
	Meta sessionMeta
	Snap *core.Snapshot
}

// pendingSuggest is an outstanding suggestion awaiting its observation.
type pendingSuggest struct {
	step      int
	action    []float64
	optimized bool
	// degraded marks a last-known-good fallback served while the breaker
	// is open; the model was not consulted.
	degraded bool
}

// Session is one tuning session: a DeepCAT agent bound to a workload,
// advancing through a suggest/observe loop under a mutex. The loop is an
// env.Stepper pushed by the caller: Suggest calls Next, Observe calls
// Record, and the session adds only service work around them. All methods are safe for
// concurrent use.
type Session struct {
	mu      sync.Mutex
	meta    sessionMeta
	tuner   *core.DeepCAT
	tn      *sessionTuner
	step    *env.Stepper
	env     *env.SparkEnv
	pending *pendingSuggest
	closed  bool
	// draining freezes the session during checkpoint handoff: suggest and
	// observe fail with ErrDraining so the transferred snapshot cannot go
	// stale between its capture and the handover completing.
	draining bool

	// wh, when set, receives every observed transition under the session's
	// workload signature sig; nil when the daemon runs without a warehouse.
	wh  *warehouse.Warehouse
	sig string

	// met is the daemon's shared instrument bundle (never nil; no-op
	// without a registry).
	met *metrics

	// rec is the session's flight recorder; nil when the daemon runs with
	// tracing disabled. It is threaded into the tuner at construction so
	// core and rl decision events land in the same per-session stream.
	rec *trace.Session

	// res is the daemon's fault-handling policy (normalized).
	res Resilience

	// spn, when set, switches the session to actor/learner mode: observe
	// skips inline fine-tuning, actor enqueues the transition into the
	// shared spine, and every spn.adoptEvery observations the session
	// adopts the family learner's latest published weights. Nil keeps
	// inline training.
	spn   *spineBinding
	actor *spine.Actor

	// ckpt serializes this session's store writes against its deletion;
	// see Manager.checkpoint and Manager.Delete.
	ckpt sync.Mutex
}

// TraceConfig configures per-session flight recording; see
// Manager.AttachTrace.
type TraceConfig struct {
	// RingSize bounds each session's in-memory event ring (<= 0 selects
	// trace.DefaultRingSize).
	RingSize int
	// Dir, when non-empty, additionally spools every session's events to
	// <Dir>/<session-id>.jsonl for post-mortem inspection with
	// cmd/deepcat-trace; a resumed session reopens (and crash-recovers)
	// its existing spool.
	Dir string
	// SpoolMaxBytes is the per-spool rotation threshold (<= 0 selects
	// trace.DefaultSpoolMaxBytes).
	SpoolMaxBytes int64
}

// newRecorder builds a session's flight recorder per the daemon's trace
// configuration; nil config means tracing is off. A spool that cannot be
// opened degrades the session to ring-only tracing rather than failing
// creation — the recorder is an observer, never a gate.
func newRecorder(tc *TraceConfig, id string) *trace.Session {
	if tc == nil {
		return nil
	}
	var spool *trace.Spool
	if tc.Dir != "" {
		_ = os.MkdirAll(tc.Dir, 0o755)
		if sp, err := trace.OpenSpool(filepath.Join(tc.Dir, id+".jsonl"), tc.SpoolMaxBytes); err == nil {
			spool = sp
		}
	}
	return trace.NewSession(trace.Options{RingSize: tc.RingSize, Spool: spool})
}

// newSession builds (and optionally warm-starts) a session. The simulated
// environment provides the configuration space, state dimensionality and
// default runtime; measured outcomes come from the caller via Observe.
//
// When the daemon runs a warehouse and the workload signature has a donor,
// the session adopts the donor's networks and pre-fills its replay pools
// with the family's high-reward transitions before any optional offline
// training; a missing or mismatched donor falls back to a cold start.
func newSession(id string, req CreateSessionRequest, now time.Time, wh *warehouse.Warehouse, met *metrics, tc *TraceConfig, res Resilience, spn *spineBinding) (*Session, error) {
	e, err := cli.BuildEnv(req.Cluster, req.Workload, req.Input, req.Seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrInvalid, err)
	}
	if req.Cluster == "b" {
		e.Clamp = true
	}
	if req.OfflineIters < 0 {
		return nil, fmt.Errorf("%w: negative offline_iters %d", ErrInvalid, req.OfflineIters)
	}
	cfg := core.DefaultConfig(e.StateDim(), e.Space().Dim())
	tuner, err := core.New(rand.New(rand.NewSource(req.Seed)), cfg)
	if err != nil {
		return nil, err
	}
	s := bindSession(sessionMeta{
		ID:        id,
		Workload:  req.Workload,
		Input:     req.Input,
		Cluster:   req.Cluster,
		Seed:      req.Seed,
		Health:    HealthHealthy,
		CreatedAt: now,
		UpdatedAt: now,
	}, tuner, e, wh, met, tc, res, spn)
	if wh != nil && !req.NoWarmStart {
		if ws, ok := wh.WarmStart(s.sig, cfg.RewardThreshold, warmSeedMax); ok {
			sp := trace.Begin(s.rec, "donor_adopt")
			if err := tuner.AdoptWeights(ws.Snap.Agent); err == nil {
				tuner.SeedReplay(ws.Seeds)
				s.meta.WarmStarted = true
				s.meta.Donor = fmt.Sprintf("%s-g%d", ws.Donor.Signature, ws.Donor.Generation)
				sp.Attr("donor", s.meta.Donor).AttrInt("seeds", len(ws.Seeds))
			} else {
				sp.Attr("error", err.Error())
			}
			sp.End()
			// An adoption error (e.g. a donor from an incompatible build)
			// is not fatal: the session simply starts cold.
		}
	}
	if req.OfflineIters > 0 {
		sp := trace.Begin(s.rec, "offline_train").AttrInt("iters", req.OfflineIters)
		tuner.OfflineTrain(e, req.OfflineIters, nil)
		sp.End()
		if wh != nil && !s.meta.WarmStarted {
			// Contribute the offline experience to the fleet. Warm-started
			// sessions skip the bulk export: their buffer already holds
			// warehouse transitions and re-logging them would double-count.
			if trs, err := rl.ExportTransitions(tuner.Buffer); err == nil {
				recs := make([]warehouse.Record, len(trs))
				for i, tr := range trs {
					recs[i] = warehouse.Record{Signature: s.sig, Session: id, Transition: tr}
				}
				wsp := trace.Begin(s.rec, "warehouse_ingest").AttrInt("records", len(recs))
				_ = wh.AppendBatch(recs)
				wsp.End()
			}
		}
	}
	return s, nil
}

// ID returns the session id.
func (s *Session) ID() string {
	return s.meta.ID // immutable after construction
}

// Info returns a snapshot of the session's public state.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infoLocked()
}

func (s *Session) infoLocked() SessionInfo {
	state := StateReady
	switch {
	case s.closed:
		state = StateClosed
	case s.pending != nil:
		state = StateAwaitingObservation
	}
	info := SessionInfo{
		ID:             s.meta.ID,
		Workload:       s.meta.Workload,
		Input:          s.meta.Input,
		Cluster:        s.meta.Cluster,
		Seed:           s.meta.Seed,
		State:          state,
		Step:           s.step.Step,
		DefaultTime:    s.env.DefaultTime(),
		BestTime:       s.step.BestTime,
		BestAction:     mat.CloneSlice(s.step.BestAction),
		ReplayLen:      s.tuner.Buffer.Len(),
		WarmStarted:    s.meta.WarmStarted,
		Donor:          s.meta.Donor,
		SpineMode:      s.spn != nil,
		SpineVersion:   s.meta.SpineVersion,
		SpineAdoptions: s.meta.SpineAdoptions,
		Health:         s.meta.Health,
		Quarantined:    s.meta.Quarantined,
		Trips:          s.meta.BreakerTrips,
		CreatedAt:      s.meta.CreatedAt,
		UpdatedAt:      s.meta.UpdatedAt,
	}
	if rd, ok := s.tuner.Buffer.(*rl.RDPER); ok {
		info.HighReplayLen = rd.HighLen()
	}
	if s.actor != nil {
		info.SpineSheds = s.actor.Sheds()
	}
	return info
}

// Suggest returns the next configuration to evaluate. While an observation
// is outstanding it idempotently re-returns the same suggestion, so
// schedulers can safely retry. While the session is degraded it serves the
// last known good configuration without consulting the model; a half-open
// session issues a fresh model probe. ctx ends the call early when the
// originating request is gone; reqID, when non-empty, tags the recorded
// span so a trace line can be correlated with the daemon's request log.
func (s *Session) Suggest(ctx context.Context, now time.Time, reqID string) (SuggestResponse, error) {
	if err := s.lockLive(ctx, "suggest"); err != nil {
		return SuggestResponse{}, err
	}
	defer s.mu.Unlock()
	if s.pending == nil {
		step := s.step.Step + 1
		s.rec.SetStep(step)
		sp := trace.Begin(s.rec, "session.suggest").AttrInt("step", step)
		if reqID != "" {
			sp.Attr("request_id", reqID)
		}
		if sc, ok := trace.FromContext(ctx); ok {
			sp.AttrContext(sc)
		}
		p := &pendingSuggest{step: step}
		if s.meta.Health == HealthDegraded && s.step.BestAction != nil {
			// Open breaker: re-serve the last known good configuration.
			// The model is deliberately not consulted — a failing
			// environment must not drag the policy around.
			p.action, p.degraded = mat.CloneSlice(s.step.BestAction), true
			s.met.degradedSuggests.Inc()
			sp.AttrBool("degraded", true)
		} else {
			start := time.Now()
			p.action, p.optimized = s.step.Next()
			s.met.suggestDur.ObserveSince(start)
			st := s.tn.stats
			if st.Tries > 1 {
				s.met.twinqCandidates.Add(uint64(st.Tries - 1))
			}
			if st.Optimized {
				s.met.twinqRejections.Inc()
			}
			sp.AttrInt("tries", st.Tries).AttrBool("optimized", st.Optimized).
				AttrBool("probe", s.meta.Health == HealthHalfOpen)
		}
		sp.End()
		s.pending = p
		s.meta.UpdatedAt = now
	}
	return s.suggestResponseLocked(), nil
}

// lockLive takes s.mu for a call on a live session, failing with the lock
// released when ctx has ended or the session is closed or draining. ctx is
// checked again under the lock: a request whose deadline died while queued
// behind a slow holder must fail with its deadline error (504 at the HTTP
// layer), not burn model work producing an answer nobody is waiting for.
func (s *Session) lockLive(ctx context.Context, op string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("session %s: %s abandoned: %w", s.meta.ID, op, err)
	}
	s.mu.Lock()
	var err error
	switch {
	case ctx.Err() != nil:
		err = fmt.Errorf("session %s: %s abandoned: %w", s.meta.ID, op, ctx.Err())
	case s.closed:
		err = fmt.Errorf("session %s: %w", s.meta.ID, ErrClosed)
	case s.draining:
		err = fmt.Errorf("session %s: %w", s.meta.ID, ErrDraining)
	}
	if err != nil {
		s.mu.Unlock()
	}
	return err
}

func (s *Session) suggestResponseLocked() SuggestResponse {
	space := s.env.Space()
	values := space.Denormalize(s.pending.action)
	cfg := make(map[string]float64, space.Dim())
	for i, p := range space.Params() {
		cfg[p.Name] = values[i]
	}
	return SuggestResponse{
		Step:      s.pending.step,
		Action:    mat.CloneSlice(s.pending.action),
		Config:    cfg,
		Optimized: s.pending.optimized,
		Degraded:  s.pending.degraded,
	}
}

// Observe records the measured outcome of the pending suggestion and
// fine-tunes the agent on it. req.Step 0 targets the pending suggestion;
// any other value must match it. Non-finite or outlier measurements are
// quarantined: the step advances but nothing reaches the reward, the
// replay buffer, the checkpoint or the warehouse. Every outcome also
// drives the session's circuit breaker; while the breaker is open the
// session records outcomes without learning from them. ctx ends the call
// early when the originating request is gone; reqID, when non-empty, tags
// the recorded span (see Suggest).
func (s *Session) Observe(ctx context.Context, req ObserveRequest, now time.Time, reqID string) (ObserveResponse, error) {
	if err := s.lockLive(ctx, "observe"); err != nil {
		return ObserveResponse{}, err
	}
	defer s.mu.Unlock()
	if s.pending == nil {
		return ObserveResponse{}, fmt.Errorf("session %s has no pending suggestion: %w", s.meta.ID, ErrConflict)
	}
	if req.Step != 0 && req.Step != s.pending.step {
		return ObserveResponse{}, fmt.Errorf("session %s: observation for step %d, pending step is %d: %w",
			s.meta.ID, req.Step, s.pending.step, ErrConflict)
	}
	if req.ExecTime <= 0 {
		return ObserveResponse{}, fmt.Errorf("session %s: non-positive exec_time %g: %w",
			s.meta.ID, req.ExecTime, ErrInvalid)
	}
	if req.State != nil && len(req.State) != s.env.StateDim() {
		return ObserveResponse{}, fmt.Errorf("session %s: state has %d dims, want %d: %w",
			s.meta.ID, len(req.State), s.env.StateDim(), ErrInvalid)
	}

	nextState := s.step.State
	if req.State != nil {
		nextState = mat.CloneSlice(req.State)
	}
	p := s.pending
	s.rec.SetStep(p.step)
	sc, scOK := trace.FromContext(ctx)
	sp := trace.Begin(s.rec, "session.observe").AttrInt("step", p.step).
		AttrFloat("exec_time", req.ExecTime).AttrBool("failed", req.Failed)
	if reqID != "" {
		sp.Attr("request_id", reqID)
	}
	if scOK {
		sp.AttrContext(sc)
	}

	// The stepper sanitizes before anything downstream sees the
	// measurement. JSON cannot carry NaN/Inf, but direct Go callers can;
	// the outlier test is the HTTP-reachable half. Nothing measured in a
	// degraded period is learned from; the half-open probe is.
	s.tn.hold, s.tn.learned = s.meta.Health == HealthDegraded, nil
	start := time.Now()
	qerr, improved := s.step.Record(p.action, env.Outcome{ExecTime: req.ExecTime, Failed: req.Failed, State: nextState}, nil)
	_, health := s.breakerObserve(s.step.LastFailed, now)

	var reward float64
	switch tr := s.tn.learned; {
	case qerr != nil:
		s.meta.Quarantined++
		s.met.quarantined.Inc()
		sp.AttrBool("quarantined", true).Attr("quarantine_reason", qerr.Error())
	case tr != nil:
		reward = tr.Reward
		if s.actor != nil {
			// Actor/learner mode: the tuner recorded the transition without
			// fine-tuning; the gradient work happens in the spine's learner
			// pool. The transition is flushed eagerly — sessions are
			// low-rate actors, so the one-transition flush costs a single
			// shard-lock acquisition and keeps the learner current.
			esp := trace.Begin(s.rec, "spine.enqueue").AttrInt("step", p.step)
			if scOK {
				esp.AttrContext(sc)
			}
			s.actor.Enqueue(*tr)
			s.actor.Flush()
			esp.End()
		}
		s.met.observeDur.ObserveSince(start)
		// Adoption runs before the manager's write-through checkpoint, so
		// the persisted snapshot always carries the adopted weights
		// together with their version.
		s.maybeAdoptLocked(p.step)
		if s.wh != nil {
			// Stream the observed experience into the fleet warehouse. The
			// warehouse is advisory — a full disk there must not fail the
			// observation the tuner already learned from.
			wsp := trace.Begin(s.rec, "warehouse_ingest").AttrInt("records", 1)
			_ = s.wh.Append(warehouse.Record{Signature: s.sig, Session: s.meta.ID, Transition: *tr})
			wsp.End()
		}
	default:
		sp.AttrBool("degraded_skip", true)
	}
	sp.AttrFloat("reward", reward).Attr("health", health).End()
	s.meta.UpdatedAt = now
	s.pending = nil

	return ObserveResponse{
		Step:        s.step.Step,
		Reward:      reward,
		BestTime:    s.step.BestTime,
		Improved:    improved,
		Quarantined: qerr != nil,
		Health:      health,
	}, nil
}

// sessionTuner is the session's env.Tuner: DeepCAT plus what the service
// needs from each decision. Suggest keeps the Twin-Q statistics for the
// metrics. Learn fine-tunes inline (in spine mode, noTrain, it only
// records: the spine's learner pool trains) and keeps the transition with
// its reward for the spine, the warehouse and the response; while hold is
// set (the breaker is open) it learns nothing.
type sessionTuner struct {
	d             *core.DeepCAT
	noTrain, hold bool
	stats         core.SuggestStats
	learned       *rl.Transition
}

func (t *sessionTuner) Suggest(state []float64, lastFailed bool) ([]float64, bool) {
	action, st := t.d.SuggestWithStats(state, lastFailed)
	t.stats = st
	return action, st.Optimized
}

func (t *sessionTuner) Learn(o env.Observation) {
	if t.hold {
		return
	}
	observe := t.d.Observe
	if t.noTrain {
		observe = t.d.ObserveNoTrain
	}
	r := observe(o.State, o.Action, o.Outcome.ExecTime, o.PrevTime, o.DefTime, o.Outcome.State, o.Done)
	t.learned = &rl.Transition{State: o.State, Action: o.Action, Reward: r, NextState: o.Outcome.State, Done: o.Done}
}

// maybeAdoptLocked adopts the spine learner's latest published weights when
// the session step hits the adoption cadence and the published version is
// newer than the one the session runs. The cadence keys off the persisted
// step and the comparison off the persisted SpineVersion, so adoption is
// deterministic across checkpoint resume: a restored session re-checks the
// same steps and never adopts a version it already had. Callers hold s.mu.
func (s *Session) maybeAdoptLocked(step int) {
	if s.spn == nil || step%s.spn.adoptEvery != 0 {
		return
	}
	pol, ok := s.spn.sp.Policy(s.sig)
	if !ok || pol.Version <= s.meta.SpineVersion {
		return
	}
	sp := trace.Begin(s.rec, "spine_adopt").
		AttrInt("version", pol.Version).AttrInt("prev_version", s.meta.SpineVersion)
	if err := s.tuner.AdoptWeights(pol.Agent); err != nil {
		// An architecture mismatch (e.g. a lane polluted by an incompatible
		// family) must not fail the observation; the session keeps its own
		// weights and inline-accumulated replay.
		sp.Attr("error", err.Error()).End()
		return
	}
	s.meta.SpineVersion = pol.Version
	s.meta.SpineAdoptions++
	s.met.spineAdoptions.Inc()
	sp.End()
}

// Health returns the session's current breaker health.
func (s *Session) Health() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta.Health
}

// beginDrain freezes the session for checkpoint handoff, reporting false
// when it is already draining or closed. The pending suggestion, if any,
// stays unobserved — checkpoints never carry it, and the new owner simply
// re-suggests, which is why a migration loses at most the one in-flight
// observation.
func (s *Session) beginDrain() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return false
	}
	s.draining = true
	return true
}

// endDrain unfreezes the session after a failed handoff.
func (s *Session) endDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = false
}

// Close marks the session closed; subsequent calls fail with ErrClosed.
// The flight recorder's spool, if any, is flushed and closed.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	_ = s.rec.Close()
}

// TraceRecent returns up to n of the session's most recent flight-recorder
// events, oldest first (n <= 0 means all buffered). It fails with
// ErrNotFound when the daemon runs with tracing disabled, so the HTTP
// layer can answer 404 rather than an empty trace.
func (s *Session) TraceRecent(n int) ([]trace.Event, error) {
	if s.rec == nil {
		return nil, fmt.Errorf("session %s: tracing disabled: %w", s.meta.ID, ErrNotFound)
	}
	return s.rec.Recent(n), nil
}

// TraceDropped reports how many events the ring has evicted; 0 when
// tracing is off.
func (s *Session) TraceDropped() uint64 { return s.rec.Dropped() }

// Checkpoint serializes the session (metadata plus the tuner's full
// snapshot) for the Store. The pending suggestion, if any, is dropped: it
// is recomputed for free after a restart.
func (s *Session) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("session %s: %w", s.meta.ID, ErrClosed)
	}
	snap, err := s.tuner.Snapshot()
	if err != nil {
		return nil, err
	}
	// Only the encoded metadata carries the stepper's progress.
	m, st := s.meta, s.step
	m.Step, m.PrevTime, m.LastFailed, m.BestTime, m.BestAction, m.State =
		st.Step, st.PrevTime, st.LastFailed, st.BestTime, st.BestAction, st.State
	if st.San != nil {
		m.SanRecent = st.San.Recent
	}
	ck := sessionCheckpoint{Meta: m, Snap: snap}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return nil, fmt.Errorf("service: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// resumeSession rebuilds a session from a checkpoint written by Checkpoint.
// The environment binding is reconstructed from the persisted metadata; the
// agent, replay pool and tuning progress come from the snapshot. The
// warehouse binding, when the daemon runs one, is re-established from the
// same metadata.
func resumeSession(data []byte, wh *warehouse.Warehouse, met *metrics, tc *TraceConfig, res Resilience, spn *spineBinding) (*Session, error) {
	var ck sessionCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("service: decode checkpoint: %w", err)
	}
	if ck.Snap == nil {
		return nil, fmt.Errorf("service: checkpoint without snapshot: %w", ErrInvalid)
	}
	e, err := cli.BuildEnv(ck.Meta.Cluster, ck.Meta.Workload, ck.Meta.Input, ck.Meta.Seed)
	if err != nil {
		return nil, fmt.Errorf("service: checkpoint metadata: %w", err)
	}
	if ck.Meta.Cluster == "b" {
		e.Clamp = true
	}
	tuner, err := core.Restore(ck.Snap)
	if err != nil {
		return nil, err
	}
	if ck.Meta.Health == "" {
		ck.Meta.Health = HealthHealthy // pre-breaker checkpoint
	}
	// The stepper becomes the only live copy of the progress.
	p, m := ck.Meta, &ck.Meta
	m.Step, m.PrevTime, m.LastFailed, m.BestTime, m.BestAction, m.State, m.SanRecent =
		0, 0, false, 0, nil, nil, nil
	s := bindSession(ck.Meta, tuner, e, wh, met, tc, res, spn)
	st := s.step
	st.Step, st.PrevTime, st.LastFailed, st.BestTime, st.BestAction, st.State =
		p.Step, p.PrevTime, p.LastFailed, p.BestTime, p.BestAction, p.State
	if st.San != nil {
		st.San.Recent = p.SanRecent
	}
	// The recorder is deliberately not part of the checkpoint: a resumed
	// session reopens its spool (recovering any torn tail) and continues
	// the event stream with a fresh ring.
	s.rec.SetStep(st.Step)
	return s, nil
}

// bindSession wires a session around its tuner: the environment binding,
// the stepper at the environment's idle state, the daemon's warehouse,
// metrics, recorder, resilience policy and spine.
func bindSession(meta sessionMeta, tuner *core.DeepCAT, e *env.SparkEnv, wh *warehouse.Warehouse, met *metrics, tc *TraceConfig, res Resilience, spn *spineBinding) *Session {
	s := &Session{
		meta:  meta,
		tuner: tuner,
		tn:    &sessionTuner{d: tuner, noTrain: spn != nil},
		env:   e,
		wh:    wh,
		sig:   warehouse.Signature(meta.Cluster, meta.Workload, meta.Input),
		met:   met,
		rec:   newRecorder(tc, meta.ID),
		res:   res.normalize(),
		spn:   spn,
	}
	s.step = env.NewStepper(s.tn, e, s.res.SanitizeWindow, s.res.SanitizeMADK)
	if spn != nil {
		s.actor = spn.sp.Actor(s.sig)
	}
	tuner.SetRecorder(s.rec)
	return s
}
