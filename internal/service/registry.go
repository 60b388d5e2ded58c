package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"deepcat/internal/obs"
	"deepcat/internal/trace"
	"deepcat/internal/warehouse"
)

// Manager owns the daemon's sessions: creation against a capacity bound,
// lookup, listing, deletion, and write-through checkpointing to a Store.
// All methods are safe for concurrent use; per-session work happens under
// the session's own lock so slow fine-tuning in one session never blocks
// the others.
type Manager struct {
	store Store
	max   int
	// wh, when non-nil, is the fleet experience warehouse new sessions
	// warm-start from and all sessions stream transitions into.
	wh *warehouse.Warehouse
	// met is never nil; over a nil registry every instrument no-ops.
	met *metrics
	log *obs.Logger
	// tc, when non-nil, enables per-session flight recording.
	tc *TraceConfig
	// res is the fault-handling policy applied to every session (breaker
	// and sanitizer); defaults to DefaultResilience.
	res Resilience
	// spn, when non-nil, switches sessions to actor/learner mode against
	// the shared replay spine; see AttachSpine.
	spn *spineBinding
	// owned, when non-nil, filters Resume to sessions this fleet shard is
	// responsible for; other checkpoints in a shared store belong to peers.
	owned func(id string) bool

	mu sync.Mutex
	// sessions maps id -> session; a nil value reserves an id whose
	// (possibly slow, offline-training) construction is still in flight.
	sessions map[string]*Session
}

// NewManager creates a manager persisting to store and admitting at most
// maxSessions live sessions (<= 0 means unlimited).
func NewManager(store Store, maxSessions int) *Manager {
	return &Manager{
		store:    store,
		max:      maxSessions,
		met:      newMetrics(nil),
		res:      DefaultResilience(),
		sessions: make(map[string]*Session),
	}
}

// SetResilience replaces the fault-handling policy for sessions created or
// resumed afterwards; call it once at daemon startup, before Resume or any
// Create.
func (m *Manager) SetResilience(r Resilience) { m.res = r.normalize() }

// DegradedCount returns the number of live sessions whose circuit breaker
// is currently open (degraded or half-open).
func (m *Manager) DegradedCount() int {
	n := 0
	for _, s := range m.snapshotSessions() {
		if s.Health() != HealthHealthy {
			n++
		}
	}
	return n
}

// Count returns the number of sessions, including reservations in flight.
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// MaxSessions returns the admission bound (0 = unlimited).
func (m *Manager) MaxSessions() int { return m.max }

// AttachWarehouse wires the fleet experience warehouse into the manager.
// Call it once at daemon startup, before Resume or any Create; sessions
// created (or resumed) afterwards stream their transitions into it and new
// sessions warm-start from its donors.
func (m *Manager) AttachWarehouse(wh *warehouse.Warehouse) { m.wh = wh }

// AttachObs wires the observability layer into the manager: session and
// checkpoint metrics register on reg, lifecycle events log to logger.
// Call it once at daemon startup, before Resume or any Create. Either
// argument may be nil; the corresponding half stays a no-op.
func (m *Manager) AttachObs(reg *obs.Registry, logger *obs.Logger) {
	m.met = newMetrics(reg)
	m.log = logger
}

// Obs returns the manager's registry (possibly nil) and logger (possibly
// nil); the HTTP server instruments itself from the same pair.
func (m *Manager) Obs() (*obs.Registry, *obs.Logger) { return m.met.reg, m.log }

// Warehouse returns the attached warehouse, or nil when the daemon runs
// without one.
func (m *Manager) Warehouse() *warehouse.Warehouse { return m.wh }

// RefreshDerivedMetrics recomputes the gauges that are views over live
// state rather than event counters: the live-session count, the spine's
// per-family health gauges (queue depth, ingest backlog, policy version and
// staleness, learner duty cycle), and the per-family adoption lag — how
// many policy versions the furthest-behind live session of each family
// trails the learner's latest publish by. It runs on every metrics
// snapshot, so a scrape is never staler than the request that served it;
// without a registry it no-ops.
func (m *Manager) RefreshDerivedMetrics() {
	reg := m.met.reg
	if reg == nil {
		return
	}
	reg.Gauge("deepcat_sessions_live").Set(int64(m.Count()))
	if m.spn == nil {
		return
	}
	m.spn.sp.RefreshHealthMetrics()
	// Adoption lag: the learner may publish versions faster than sessions
	// adopt them (sessions adopt on a step cadence); the lag gauge is the
	// replay-path "versions behind" signal per family.
	minAdopted := make(map[string]int)
	for _, s := range m.snapshotSessions() {
		if s.spn == nil {
			continue
		}
		s.mu.Lock()
		fam, v := s.sig, s.meta.SpineVersion
		s.mu.Unlock()
		if cur, ok := minAdopted[fam]; !ok || v < cur {
			minAdopted[fam] = v
		}
	}
	for fam, adopted := range minAdopted {
		pol, ok := m.spn.sp.Policy(fam)
		if !ok {
			continue
		}
		lag := pol.Version - adopted
		if lag < 0 {
			lag = 0
		}
		reg.Gauge("deepcat_spine_adoption_lag_versions", "family", fam).Set(int64(lag))
	}
}

// MetricsSnapshot refreshes the derived gauges and captures the manager's
// registry as a mergeable snapshot; a manager without a registry yields an
// empty one.
func (m *Manager) MetricsSnapshot() obs.Snapshot {
	m.RefreshDerivedMetrics()
	return m.met.reg.Snapshot()
}

// AttachTrace enables flight recording for sessions created or resumed
// afterwards; call it once at daemon startup, before Resume or any Create.
func (m *Manager) AttachTrace(tc TraceConfig) { m.tc = &tc }

// TraceEnabled reports whether the manager records session traces.
func (m *Manager) TraceEnabled() bool { return m.tc != nil }

// Trace returns up to n recent flight-recorder events of the session,
// oldest first (n <= 0 means all buffered). ErrNotFound covers both an
// unknown session and a daemon without tracing.
func (m *Manager) Trace(id string, n int) ([]trace.Event, error) {
	s, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	return s.TraceRecent(n)
}

// labels returns the pprof label set identifying a session's work in CPU
// profiles: the session id and its workload family signature.
func (s *Session) labels() pprof.LabelSet {
	return pprof.Labels("deepcat_session", s.meta.ID, "workload", s.sig)
}

// newID generates a random session id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "s-" + hex.EncodeToString(b[:])
}

// Create opens a new session, warm-starting it per the request, and writes
// its initial checkpoint. The manager lock is only held to reserve the id,
// so concurrent creates and calls on other sessions proceed in parallel.
func (m *Manager) Create(req CreateSessionRequest) (SessionInfo, error) {
	if req.Cluster == "" {
		req.Cluster = "a"
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	id := req.ID
	if id == "" {
		id = newID()
	}
	if err := ValidateID(id); err != nil {
		return SessionInfo{}, err
	}

	if err := m.reserve(id); err != nil {
		return SessionInfo{}, err
	}

	var s *Session
	var err error
	// Label the (possibly long, offline-training) construction work so CPU
	// profiles attribute it to the session and workload family.
	pprof.Do(context.Background(),
		pprof.Labels("deepcat_session", id, "workload", warehouse.Signature(req.Cluster, req.Workload, req.Input)),
		func(context.Context) {
			s, err = newSession(id, req, time.Now(), m.wh, m.met, m.tc, m.res, m.spn)
			if err == nil {
				err = m.checkpoint(s)
			}
		})
	m.mu.Lock()
	if err != nil {
		delete(m.sessions, id)
		m.mu.Unlock()
		m.log.Warn("session create failed", "id", id, "workload", req.Workload, "err", err)
		return SessionInfo{}, err
	}
	m.sessions[id] = s
	m.mu.Unlock()
	m.met.sessionsCreated.Inc()
	info := s.Info()
	if info.WarmStarted {
		m.met.warmStarts.Inc()
	}
	m.log.Info("session created", "id", id, "workload", req.Workload, "input", req.Input,
		"cluster", info.Cluster, "warm_started", info.WarmStarted, "donor", info.Donor)
	return info, nil
}

// reserve claims id for a session under construction (a nil entry in
// m.sessions). It fails with ErrConflict when the id is live or in flight
// and with ErrFull at capacity.
func (m *Manager) reserve(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.sessions[id]; exists {
		return fmt.Errorf("session %s already exists: %w", id, ErrConflict)
	}
	if m.max > 0 && len(m.sessions) >= m.max {
		return fmt.Errorf("%d sessions live: %w", len(m.sessions), ErrFull)
	}
	m.sessions[id] = nil
	return nil
}

// Get returns the session with the given id.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("session %s: %w", id, ErrNotFound)
	}
	if s == nil {
		return nil, fmt.Errorf("session %s is still being created: %w", id, ErrConflict)
	}
	return s, nil
}

// List returns the info of every live session, sorted by id.
func (m *Manager) List() []SessionInfo {
	m.mu.Lock()
	live := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			live = append(live, s)
		}
	}
	m.mu.Unlock()
	infos := make([]SessionInfo, len(live))
	for i, s := range live {
		infos[i] = s.Info()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// Suggest forwards to the session with a background context; see
// SuggestCtx.
func (m *Manager) Suggest(id, reqID string) (SuggestResponse, error) {
	return m.SuggestCtx(context.Background(), id, reqID)
}

// SuggestCtx forwards to the session. ctx is the originating request's
// context: an abandoned request stops the work instead of computing a
// suggestion nobody will read. reqID, when non-empty, tags the recorded
// trace span with the originating HTTP request id.
func (m *Manager) SuggestCtx(ctx context.Context, id, reqID string) (SuggestResponse, error) {
	s, err := m.Get(id)
	if err != nil {
		return SuggestResponse{}, err
	}
	var resp SuggestResponse
	pprof.Do(ctx, s.labels(), func(ctx context.Context) {
		resp, err = s.Suggest(ctx, time.Now(), reqID)
	})
	return resp, err
}

// Observe forwards to the session with a background context; see
// ObserveCtx.
func (m *Manager) Observe(id string, req ObserveRequest, reqID string) (ObserveResponse, error) {
	return m.ObserveCtx(context.Background(), id, req, reqID)
}

// ObserveCtx forwards to the session and checkpoints the advanced state,
// so a daemon crash after the response never loses an acknowledged
// observation. ctx gates only the entry — once the session starts
// learning, the observation completes and checkpoints even if the caller
// goes away. reqID tags the recorded trace span (see SuggestCtx).
func (m *Manager) ObserveCtx(ctx context.Context, id string, req ObserveRequest, reqID string) (ObserveResponse, error) {
	s, err := m.Get(id)
	if err != nil {
		return ObserveResponse{}, err
	}
	var resp ObserveResponse
	pprof.Do(ctx, s.labels(), func(ctx context.Context) {
		resp, err = s.Observe(ctx, req, time.Now(), reqID)
		if err != nil {
			return
		}
		if cerr := m.checkpoint(s); cerr != nil {
			err = fmt.Errorf("observation recorded but checkpoint failed: %w", cerr)
		}
	})
	if err != nil {
		return ObserveResponse{}, err
	}
	return resp, nil
}

// Delete closes the session and removes it and its checkpoint.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok && s != nil {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("session %s: %w", id, ErrNotFound)
	}
	if s == nil {
		return fmt.Errorf("session %s is still being created: %w", id, ErrConflict)
	}
	if s.Health() != HealthHealthy {
		m.met.degradedSessions.Dec()
	}
	s.Close()
	// Taking the session's checkpoint lock after Close guarantees ordering
	// against an in-flight checkpoint: either it already passed the closed
	// check and its Save lands before this Delete, or it observes the
	// session closed and skips the Save. Without this, an observe racing
	// the delete could resurrect the checkpoint file after it was removed.
	s.ckpt.Lock()
	defer s.ckpt.Unlock()
	err := m.store.Delete(id)
	if err == nil {
		m.met.sessionsDeleted.Inc()
		m.log.Info("session deleted", "id", id)
	}
	return err
}

// checkpoint writes the session's current state through to the store. The
// session's checkpoint lock spans the closed check and the store write, so
// a concurrent Delete can never interleave between them (see Delete).
func (m *Manager) checkpoint(s *Session) error {
	start := time.Now()
	sp := trace.Begin(s.rec, "checkpoint")
	s.ckpt.Lock()
	defer s.ckpt.Unlock()
	data, err := s.Checkpoint()
	if err != nil {
		return err
	}
	err = m.store.Save(s.ID(), data)
	if err == nil {
		m.met.checkpointDur.ObserveSince(start)
		m.met.checkpointBytes.Add(uint64(len(data)))
		sp.AttrInt("bytes", len(data)).End()
	}
	return err
}

// CheckpointAll persists every live session; used at graceful shutdown.
func (m *Manager) CheckpointAll() error {
	var errs []error
	for _, s := range m.snapshotSessions() {
		if err := m.checkpoint(s); err != nil && !errors.Is(err, ErrClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Resume loads every checkpoint in the store into a live session. It
// returns the number resumed; unreadable checkpoints are skipped and
// reported in the joined error without aborting the rest.
func (m *Manager) Resume() (int, error) {
	ids, err := m.store.List()
	if err != nil {
		return 0, err
	}
	sort.Strings(ids)
	var (
		resumed int
		errs    []error
	)
	for _, id := range ids {
		if m.owned != nil && !m.owned(id) {
			continue // a fleet peer's checkpoint in a shared store
		}
		switch ok, err := m.ResumeOne(id); {
		case err != nil:
			errs = append(errs, fmt.Errorf("checkpoint %s not resumed: %w", id, err))
		case ok:
			resumed++
		default:
			errs = append(errs, fmt.Errorf("checkpoint %s collides with a live session: %w", id, ErrConflict))
		}
	}
	return resumed, errors.Join(errs...)
}

// SetOwned installs the fleet ownership predicate consulted by Resume;
// call it once at daemon startup, before Resume. A nil predicate (the
// default) resumes everything in the store.
func (m *Manager) SetOwned(fn func(id string) bool) { m.owned = fn }

// ResumeOne lazily resumes a single checkpoint from the store into a live
// session, returning whether it did. The fleet router calls it when a
// request for an unknown session maps to this shard: after a peer dies,
// its sessions' write-through checkpoints are still in the shared store,
// so the new owner picks each one up on first touch; Resume calls it for
// every owned checkpoint at startup. Concurrent calls for the same id are
// collapsed by the reservation; losers see ErrConflict exactly like a
// racing Create and simply retry.
func (m *Manager) ResumeOne(id string) (bool, error) {
	if err := ValidateID(id); err != nil {
		return false, err
	}
	if err := m.reserve(id); errors.Is(err, ErrConflict) {
		return false, nil // already live (or being created/resumed)
	} else if err != nil {
		return false, err
	}

	data, err := m.store.Load(id)
	if err == nil {
		var s *Session
		s, err = resumeSession(data, m.wh, m.met, m.tc, m.res, m.spn)
		if err == nil && s.ID() != id {
			s.Close()
			err = fmt.Errorf("checkpoint %s carries session id %s: %w", id, s.ID(), ErrInvalid)
		}
		if err == nil {
			if s.Health() != HealthHealthy {
				m.met.degradedSessions.Inc()
			}
			m.mu.Lock()
			m.sessions[id] = s
			m.mu.Unlock()
			m.met.sessionsResumed.Inc()
			m.log.Info("session resumed", "id", id, "step", s.Info().Step)
			return true, nil
		}
	}
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
	return false, err
}

// BeginDrain freezes the session for checkpoint handoff and returns its
// snapshot. Until CompleteDrain or AbortDrain, suggest/observe on it fail
// with ErrDraining. ErrConflict covers a drain already in flight.
func (m *Manager) BeginDrain(id string) ([]byte, error) {
	s, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	if !s.beginDrain() {
		return nil, fmt.Errorf("session %s is already draining: %w", id, ErrConflict)
	}
	data, err := s.Checkpoint()
	if err != nil {
		s.endDrain()
		return nil, err
	}
	return data, nil
}

// AbortDrain unfreezes a session after a failed handoff.
func (m *Manager) AbortDrain(id string) {
	if s, err := m.Get(id); err == nil {
		s.endDrain()
	}
}

// CompleteDrain finishes a handoff whose snapshot the new owner accepted:
// the session is closed and evicted from memory. Its store entry is left
// alone — with a shared store the adopter has already overwritten it, and
// with per-node stores the stale donor copy is harmless because the ring
// no longer routes the id here.
func (m *Manager) CompleteDrain(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok && s != nil {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if !ok || s == nil {
		return fmt.Errorf("session %s: %w", id, ErrNotFound)
	}
	if s.Health() != HealthHealthy {
		m.met.degradedSessions.Dec()
	}
	s.Close()
	m.log.Info("session migrated out", "id", id)
	return nil
}

// Adopt installs a checkpoint handed off by a fleet peer as a live session
// and persists it locally. The snapshot is verified before anything is
// registered, so a corrupt or non-finite handoff can never poison this
// shard.
func (m *Manager) Adopt(id string, data []byte) (SessionInfo, error) {
	if err := ValidateID(id); err != nil {
		return SessionInfo{}, err
	}
	if err := VerifyCheckpoint(data); err != nil {
		return SessionInfo{}, fmt.Errorf("adopt %s: %v: %w", id, err, ErrInvalid)
	}
	if err := m.reserve(id); err != nil {
		return SessionInfo{}, err
	}

	s, err := resumeSession(data, m.wh, m.met, m.tc, m.res, m.spn)
	if err == nil && s.ID() != id {
		s.Close()
		err = fmt.Errorf("adopt %s: checkpoint carries session id %s: %w", id, s.ID(), ErrInvalid)
	}
	if err == nil {
		err = m.checkpoint(s)
		if err != nil {
			s.Close()
		}
	}
	m.mu.Lock()
	if err != nil {
		delete(m.sessions, id)
		m.mu.Unlock()
		m.log.Warn("session adopt failed", "id", id, "err", err)
		return SessionInfo{}, err
	}
	m.sessions[id] = s
	m.mu.Unlock()
	if s.Health() != HealthHealthy {
		m.met.degradedSessions.Inc()
	}
	m.log.Info("session adopted", "id", id, "step", s.Info().Step)
	return s.Info(), nil
}

// snapshotSessions returns the live sessions without holding the lock
// while touching them.
func (m *Manager) snapshotSessions() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}
