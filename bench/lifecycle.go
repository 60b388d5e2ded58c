package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"deepcat/internal/cli"
	"deepcat/internal/obs"
	"deepcat/internal/service"
	"deepcat/internal/spine"
	"deepcat/internal/warehouse"
)

// lifeSizes sizes one lifecycle phase.
type lifeSizes struct {
	Groups      int // set-up populates the store group by group
	PerGroup    int // sessions = Groups * PerGroup
	SetupRounds int // Manager-level rounds per session before timing
	Cycles      int // timed boot -> rounds -> handoffs -> creates cycles
	Handoffs    int // per cycle
	Creates     int // per cycle
}

type lifeOut struct {
	setupS     sample // per group: create + SetupRounds rounds per session
	resumeMs   sample // one ResumeOne
	restartS   sample // boot until every session answered one round
	handoffMs  sample // BeginDrain -> Adopt -> CompleteDrain
	createMs   sample // cold Manager.Create
	openMs     sample // warehouse.Open alone, a per-layer number
	whRecords  int
	mem        memDelta
	cycles     int
	saves      int64
	saveBytes  int64
	quarantine int
}

// lifeBoot is one daemon boot in spine mode with a warehouse, without the
// listener: the Manager is driven directly.
type lifeBoot struct {
	wh    *warehouse.Warehouse
	sp    *spine.Spine
	reg   *obs.Registry
	store service.Store
	mgr   *service.Manager
}

// bootLife follows deepcat-serve's boot order: warehouse.Open, spine.New,
// WarmSpineFromWarehouse, NewManager. The spine runs without its background
// learner so that cycles do not differ by where a learner pass fell.
func bootLife(store service.Store, whDir string) (*lifeBoot, time.Duration, error) {
	b := &lifeBoot{reg: obs.NewRegistry(), store: store}
	start := time.Now()
	wh, err := warehouse.Open(warehouse.Options{
		Dir:           whDir,
		TrainInterval: time.Minute,
		TrainIters:    500,
		TrainWorkers:  2,
		Registry:      b.reg,
		Logger:        obs.NewLogger(io.Discard, obs.LevelInfo),
	})
	if err != nil {
		return nil, 0, err
	}
	open := time.Since(start)
	b.wh = wh
	b.sp = newSpine(b.reg, false)
	service.WarmSpineFromWarehouse(b.sp, wh)
	b.mgr = newManager(store, b.reg, b.sp)
	b.mgr.AttachWarehouse(wh)
	return b, open, nil
}

// peer builds a second Manager over the same store, spine and warehouse:
// the shard a session is handed to.
func (b *lifeBoot) peer() *service.Manager {
	m := newManager(b.store, b.reg, b.sp)
	m.AttachWarehouse(b.wh)
	return m
}

func (b *lifeBoot) shutdown() error {
	b.sp.Close()
	return b.wh.Close()
}

// managerRoundTrip is one suggest -> evaluate -> observe round through the
// Manager, with the same checks as the HTTP round.
func managerRoundTrip(m *service.Manager, s *tuned, t *tally) (quarantined bool) {
	sug, err := m.Suggest(s.spec.ID, "")
	if err == nil {
		err = checkStep(sug.Step, s.step)
	}
	if err == nil {
		err = checkAction(sug.Action, s.env.Space().Dim())
	}
	if !t.ok("suggest "+s.spec.ID, err) {
		return false
	}
	out := s.env.Evaluate(sug.Action)
	resp, err := m.Observe(s.spec.ID, service.ObserveRequest{
		Step: sug.Step, ExecTime: out.ExecTime, Failed: out.Failed, State: out.State,
	}, "")
	if err == nil && resp.Step != sug.Step {
		err = fmt.Errorf("observe acknowledged step %d, sent %d", resp.Step, sug.Step)
	}
	if !t.ok("observe "+s.spec.ID, err) {
		return false
	}
	s.step = sug.Step
	return resp.Quarantined
}

// runLifecycle populates a store, then repeatedly boots over it the way a
// restarted daemon does, touches every resumed session, hands some over to
// a peer Manager and creates and deletes cold sessions.
func runLifecycle(root string, seed int64, sz lifeSizes, rec *recorder, t *tally) (lifeOut, error) {
	var out lifeOut
	ckptDir, whDir := filepath.Join(root, "life-ckpt"), filepath.Join(root, "life-wh")
	fs, err := service.NewFSStore(ckptDir)
	if err != nil {
		return out, err
	}
	var store service.Store = fs
	var ss *spanStore
	if rec != nil {
		ss = &spanStore{Store: fs, rec: rec}
		store = ss
	}

	// Set-up: one boot, sessions created and exercised group by group.
	plan := sessionPlan("l", seed, sz.Groups*sz.PerGroup)
	sessions := make(map[string]*tuned, len(plan))
	b, _, err := bootLife(store, whDir)
	if err != nil {
		return out, err
	}
	for g := 0; g < sz.Groups; g++ {
		start := time.Now()
		for _, spec := range plan[g*sz.PerGroup : (g+1)*sz.PerGroup] {
			e, err := cli.BuildEnv("a", spec.Workload, spec.Input, spec.Seed)
			if err != nil {
				b.shutdown()
				return out, err
			}
			s := &tuned{spec: spec, env: e}
			sessions[spec.ID] = s
			_, err = b.mgr.Create(spec.createRequest())
			if !t.ok("create "+spec.ID, err) {
				continue
			}
			for i := 0; i < sz.SetupRounds; i++ {
				if managerRoundTrip(b.mgr, s, t) {
					out.quarantine++
				}
			}
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}
	if err := b.shutdown(); err != nil {
		return out, err
	}
	runtime.GC() // as between cycles: the set-up boot's heap is garbage now

	// A traced run records every other cycle.
	run := lifeRun{seed: seed, store: store, whDir: whDir, sessions: sessions, sz: sz, rec: rec, t: t, out: &out}
	before := readMem()
	for c := 0; c < sz.Cycles; c++ {
		if rec != nil {
			rec.on.Store(c%2 == 1)
		}
		if err := run.cycle(c); err != nil {
			return out, err
		}
		// A restarted daemon is a new process with an empty heap; collect
		// the previous boot's garbage so the next one does not pay for it.
		runtime.GC()
	}
	if rec != nil {
		rec.on.Store(false)
	}
	out.mem = memSince(before)
	out.cycles = sz.Cycles
	if ss != nil {
		out.saves, out.saveBytes = ss.saves.Load(), ss.saveBytes.Load()
	}
	verifyStore(fs, len(plan), t)
	return out, os.RemoveAll(root)
}

// lifeRun is what every timed cycle of one lifecycle phase shares.
type lifeRun struct {
	seed     int64
	store    service.Store
	whDir    string
	sessions map[string]*tuned
	sz       lifeSizes
	rec      *recorder
	t        *tally
	out      *lifeOut
}

// cycle is one restart: boot over the store, resume and touch every
// session, hand some over, create and delete cold ones, shut down.
func (r lifeRun) cycle(c int) error {
	rec, t, out := r.rec, r.t, r.out
	traced := rec.enabled()
	mark := func(name, session string, start time.Time) {
		if traced {
			rec.add(name, rec.requestID(session), start, time.Now())
		}
	}
	flight := func(session, op string) {
		if traced {
			rec.inFlight.Store(session, fmt.Sprintf("%s/%s/%d", session, op, c))
		}
	}

	bootStart := time.Now()
	b, open, err := bootLife(r.store, r.whDir)
	if err != nil {
		return err
	}
	out.openMs = append(out.openMs, ms(open))
	if traced {
		rec.add("warehouse.open", fmt.Sprintf("boot/%d", c), bootStart, bootStart.Add(open))
	}
	ids, err := r.store.List()
	if !t.ok("list store", err) {
		return b.shutdown()
	}
	sort.Strings(ids)
	for _, id := range ids {
		flight(id, "resume")
		start := time.Now()
		ok, err := b.mgr.ResumeOne(id)
		d := time.Since(start)
		mark("life.resume", id, start)
		if err == nil && !ok {
			err = fmt.Errorf("checkpoint %s not resumed", id)
		}
		if t.ok("resume "+id, err) {
			out.resumeMs = append(out.resumeMs, ms(d))
		}
	}
	// Every resumed session's next suggestion must be step+1: managerRoundTrip
	// checks it against the step the benchmark last saw acknowledged.
	for _, id := range ids {
		flight(id, "round")
		start := time.Now()
		if managerRoundTrip(b.mgr, r.sessions[id], t) {
			out.quarantine++
		}
		mark("life.round", id, start)
	}
	out.restartS = append(out.restartS, time.Since(bootStart).Seconds())

	// Handoffs: drain on this Manager, verified adopt on the peer, complete.
	peer := b.peer()
	for k := 0; k < r.sz.Handoffs; k++ {
		id := ids[(c*r.sz.Handoffs+k)%len(ids)]
		flight(id, "handoff")
		start := time.Now()
		data, err := b.mgr.BeginDrain(id)
		var info service.SessionInfo
		if err == nil {
			if info, err = peer.Adopt(id, data); err != nil {
				b.mgr.AbortDrain(id)
			} else {
				err = b.mgr.CompleteDrain(id)
			}
		}
		d := time.Since(start)
		mark("life.handoff", id, start)
		if !t.ok("handoff "+id, err) {
			continue
		}
		out.handoffMs = append(out.handoffMs, ms(d))
		sug, err := peer.Suggest(id, "")
		if err == nil {
			err = checkStep(sug.Step, info.Step)
		}
		t.ok("suggest after adopt "+id, err)
	}

	// Cold creates, each deleted again so the store keeps its size.
	for k := 0; k < r.sz.Creates; k++ {
		spec := sessionPlan(fmt.Sprintf("c%d-", c), r.seed+1000+int64(c*r.sz.Creates), r.sz.Creates)[k]
		flight(spec.ID, "create")
		start := time.Now()
		_, err := b.mgr.Create(spec.createRequest())
		d := time.Since(start)
		mark("life.create", spec.ID, start)
		if t.ok("create "+spec.ID, err) {
			out.createMs = append(out.createMs, ms(d))
			t.ok("delete "+spec.ID, b.mgr.Delete(spec.ID))
		}
	}
	out.whRecords = b.wh.Stats().Records
	return b.shutdown()
}
