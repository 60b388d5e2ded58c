package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"deepcat/internal/obs"
	"deepcat/internal/service"
	"deepcat/internal/spine"
)

// Values of deepcat-serve's flags at their defaults; the benchmark builds
// the daemon from these so it measures what an operator gets by default.
const (
	serveMaxSessions = 64
	serveTraceRing   = 512
	spineShards      = 8
	spineCapacity    = 2048
	spineLearnIters  = 4
	spineWorkers     = 2
)

const spineLearnInterval = 2 * time.Second

// daemon is deepcat-serve assembled in-process: the same Manager wiring,
// the same route table and http.Server deadlines, a real listener on the
// loopback interface.
type daemon struct {
	mgr   *service.Manager
	fs    *service.FSStore
	store service.Store // fs, or the span-recording decorator around it
	spine *spine.Spine
	reg   *obs.Registry
	srv   *http.Server
	url   string
	errc  chan error
}

// newManager wires a Manager the way cmd/deepcat-serve's main does with
// default flags, plus the registry a daemon gets from -metrics-addr (the
// per-layer counts are read from it).
func newManager(store service.Store, reg *obs.Registry, sp *spine.Spine) *service.Manager {
	m := service.NewManager(store, serveMaxSessions)
	m.AttachObs(reg, obs.NewLogger(io.Discard, obs.LevelInfo))
	m.SetResilience(service.DefaultResilience())
	m.AttachTrace(service.TraceConfig{RingSize: serveTraceRing})
	if sp != nil {
		m.AttachSpine(service.SpineConfig{Spine: sp, AdoptEvery: service.DefaultSpineAdoptEvery})
	}
	return m
}

// newSpine builds the replay spine at `deepcat-serve -spine` defaults.
// learn selects the background learner; lifecycle boots run without it.
func newSpine(reg *obs.Registry, learn bool) *spine.Spine {
	opts := spine.Options{
		Shards:        spineShards,
		ShardCapacity: spineCapacity,
		LearnIters:    spineLearnIters,
		Workers:       spineWorkers,
		Registry:      reg,
		Logger:        obs.NewLogger(io.Discard, obs.LevelInfo),
	}
	if learn {
		opts.LearnInterval = spineLearnInterval
	}
	return spine.New(opts)
}

// startDaemon boots a daemon over dir. rec, when non-nil, wraps the Store
// and the handler with span recorders.
func startDaemon(dir string, spineMode bool, rec *recorder) (*daemon, error) {
	fs, err := service.NewFSStore(dir)
	if err != nil {
		return nil, err
	}
	d := &daemon{fs: fs, store: fs, reg: obs.NewRegistry(), errc: make(chan error, 1)}
	if rec != nil {
		d.store = &spanStore{Store: fs, rec: rec}
	}
	if spineMode {
		d.spine = newSpine(d.reg, true)
	}
	d.mgr = newManager(d.store, d.reg, d.spine)
	var handler http.Handler = service.NewServer(d.mgr)
	if rec != nil {
		handler = &spanHandler{next: handler, rec: rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.closeSpine()
		return nil, err
	}
	d.srv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	d.url = "http://" + ln.Addr().String()
	go func() { d.errc <- d.srv.Serve(ln) }()
	return d, nil
}

func (d *daemon) closeSpine() {
	if d.spine != nil {
		d.spine.Close()
	}
}

// stop shuts the daemon down the way SIGTERM does: drain, final
// checkpoint, spine close. It returns once the serve goroutine has exited.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.errc; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, d.mgr.CheckpointAll())
	d.closeSpine()
	return err
}

// spanStore decorates a Store with store.save / store.load spans and byte
// counts. It forwards every call unchanged.
type spanStore struct {
	service.Store
	rec *recorder

	saves     atomic.Int64
	saveBytes atomic.Int64
}

func (s *spanStore) Save(id string, data []byte) error {
	if !s.rec.enabled() {
		return s.Store.Save(id, data)
	}
	start := time.Now()
	err := s.Store.Save(id, data)
	s.rec.add("store.save", s.rec.requestID(id), start, time.Now())
	s.saves.Add(1)
	s.saveBytes.Add(int64(len(data)))
	return err
}

func (s *spanStore) Load(id string) ([]byte, error) {
	if !s.rec.enabled() {
		return s.Store.Load(id)
	}
	start := time.Now()
	data, err := s.Store.Load(id)
	s.rec.add("store.load", s.rec.requestID(id), start, time.Now())
	return data, err
}

// spanHandler records one service.handler_<op> span per suggest/observe
// request; everything else passes through untimed.
type spanHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	session, op, ok := sessionOp(r.URL.Path)
	if !ok || !h.rec.enabled() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.add("service.handler_"+op, h.rec.requestID(session), start, time.Now())
}

// sessionOp splits /v1/sessions/{id}/{suggest|observe}.
func sessionOp(path string) (session, op string, ok bool) {
	rest, found := strings.CutPrefix(path, "/v1/sessions/")
	if !found {
		return "", "", false
	}
	session, op, found = strings.Cut(rest, "/")
	if !found || (op != "suggest" && op != "observe") {
		return "", "", false
	}
	return session, op, true
}

// sessionSpec is one generated tuning session: the inputs the program under
// test receives. evalSeed seeds the benchmark's own simulated cluster.
type sessionSpec struct {
	ID       string
	Workload string
	Input    int
	Seed     int64
}

var workloadShorts = [...]string{"WC", "TS", "PR", "KM"}

// sessionPlan generates n sessions as a pure function of seed: the four
// Table-1 workloads in rotation, inputs stepping through D1-D3, session
// seeds seed+i. prefix keeps ids of different phases apart.
func sessionPlan(prefix string, seed int64, n int) []sessionSpec {
	plan := make([]sessionSpec, n)
	for i := range plan {
		wl := workloadShorts[i%len(workloadShorts)]
		input := (i/len(workloadShorts)+i%len(workloadShorts))%3 + 1
		plan[i] = sessionSpec{
			ID:       fmt.Sprintf("%s%02d-%s-d%d", prefix, i, wl, input),
			Workload: wl,
			Input:    input,
			Seed:     seed + int64(i),
		}
	}
	return plan
}

func (s sessionSpec) createRequest() service.CreateSessionRequest {
	return service.CreateSessionRequest{
		ID: s.ID, Workload: s.Workload, Input: s.Input, Cluster: "a", Seed: s.Seed, NoWarmStart: true,
	}
}
