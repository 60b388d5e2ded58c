package service_test

import (
	"math"
	"net"
	"net/http"
	"testing"

	"deepcat/internal/cli"
	"deepcat/internal/service"
	"deepcat/internal/service/client"
)

// startDaemon serves a Manager over a real TCP listener on a random port
// and returns the manager, a client bound to it, and a shutdown function.
func startDaemon(t *testing.T, dir string, maxSessions int) (*service.Manager, *client.Client, func()) {
	t.Helper()
	store, err := service.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	manager := service.NewManager(store, maxSessions)
	if _, err := manager.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: service.NewServer(manager)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	stop := func() {
		srv.Close()
		<-done
	}
	return manager, client.New("http://" + ln.Addr().String()), stop
}

// TestEndToEndTuningWithRestart is the acceptance test for the tuning
// service: it starts the daemon on a random port, opens a session for a
// sparksim workload, plays the external-scheduler role for 20
// suggest/observe rounds (evaluating each suggested configuration on its
// own simulator), kills the daemon, restarts it from the checkpoint
// directory, verifies the session resumed with replay pool and best-found
// configuration intact, and keeps tuning through the restored session.
func TestEndToEndTuningWithRestart(t *testing.T) {
	dir := t.TempDir()
	_, c, stop := startDaemon(t, dir, 8)

	if h, err := c.Health(); err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, %v", h, err)
	}

	info, err := c.CreateSession(service.CreateSessionRequest{
		Workload:     "TS",
		Input:        1,
		Seed:         42,
		OfflineIters: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != service.StateReady || info.ReplayLen != 25 {
		t.Fatalf("created session = %+v", info)
	}
	id := info.ID

	// The test is the job scheduler: it owns the target system (here a
	// sparksim instance) and reports measured runtimes back.
	target, err := cli.BuildEnv("a", "TS", 1, 4242)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 20
	best := math.Inf(1)
	runRounds := func(c *client.Client, n int, from int) {
		t.Helper()
		for i := 0; i < n; i++ {
			sug, err := c.Suggest(id)
			if err != nil {
				t.Fatalf("suggest round %d: %v", from+i, err)
			}
			if sug.Step != from+i+1 {
				t.Fatalf("suggest step = %d, want %d", sug.Step, from+i+1)
			}
			if len(sug.Config) != target.Space().Dim() {
				t.Fatalf("config has %d entries, want %d", len(sug.Config), target.Space().Dim())
			}
			outcome := target.Evaluate(sug.Action)
			obs, err := c.Observe(id, service.ObserveRequest{
				Step:     sug.Step,
				ExecTime: outcome.ExecTime,
				Failed:   outcome.Failed,
				State:    outcome.State,
			})
			if err != nil {
				t.Fatalf("observe round %d: %v", from+i, err)
			}
			if !outcome.Failed && outcome.ExecTime < best {
				best = outcome.ExecTime
				if !obs.Improved {
					t.Fatalf("round %d: %.1fs should have improved the best", from+i, outcome.ExecTime)
				}
			}
			if obs.BestTime != best {
				t.Fatalf("round %d: server best %.3f, scheduler best %.3f", from+i, obs.BestTime, best)
			}
		}
	}
	runRounds(c, rounds, 0)

	pre, err := c.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Step != rounds || pre.ReplayLen != 25+rounds {
		t.Fatalf("pre-restart session = %+v", pre)
	}
	if pre.BestTime != best || len(pre.BestAction) != target.Space().Dim() {
		t.Fatalf("pre-restart best %.3f (want %.3f), action dims %d", pre.BestTime, best, len(pre.BestAction))
	}

	// Kill the daemon and restart from the checkpoint directory.
	stop()
	manager2, c2, stop2 := startDaemon(t, dir, 8)
	defer stop2()
	if manager2.Count() != 1 {
		t.Fatalf("restarted daemon resumed %d sessions, want 1", manager2.Count())
	}

	post, err := c2.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if post.Step != pre.Step || post.ReplayLen != pre.ReplayLen {
		t.Fatalf("resumed session = %+v, want step %d replay %d", post, pre.Step, pre.ReplayLen)
	}
	if post.BestTime != pre.BestTime {
		t.Fatalf("resumed best %.3f, want %.3f", post.BestTime, pre.BestTime)
	}
	for i := range pre.BestAction {
		if post.BestAction[i] != pre.BestAction[i] {
			t.Fatalf("best action dim %d changed across restart", i)
		}
	}

	// The resumed session keeps tuning.
	runRounds(c2, 5, rounds)
	final, err := c2.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if final.Step != rounds+5 || final.ReplayLen != 25+rounds+5 {
		t.Fatalf("final session = %+v", final)
	}

	// Deleting the session also drops its checkpoint, so a further
	// restart comes up empty.
	if err := c2.DeleteSession(id); err != nil {
		t.Fatal(err)
	}
	stop2()
	manager3, _, stop3 := startDaemon(t, dir, 8)
	defer stop3()
	if manager3.Count() != 0 {
		t.Fatalf("deleted session came back: %d sessions", manager3.Count())
	}
}

// TestServerErrorMapping checks the HTTP status codes the API contract
// promises for the common failure shapes.
func TestServerErrorMapping(t *testing.T) {
	_, c, stop := startDaemon(t, t.TempDir(), 1)
	defer stop()
	// Only statuses are under test: without retries the "over capacity"
	// 503 (Retry-After: 5) answers at once instead of after three waits.
	// TestRetryAfterHeaderHonored covers the retry path.
	c.Retry = client.RetryPolicy{}

	wantStatus := func(err error, want int, what string) {
		t.Helper()
		apiErr, ok := err.(*client.APIError)
		if !ok {
			t.Fatalf("%s: error %v is not an APIError", what, err)
		}
		if apiErr.Status != want {
			t.Fatalf("%s: status %d, want %d", what, apiErr.Status, want)
		}
	}

	_, err := c.Session("missing")
	wantStatus(err, http.StatusNotFound, "get missing")

	_, err = c.CreateSession(service.CreateSessionRequest{Workload: "nope", Input: 1})
	wantStatus(err, http.StatusBadRequest, "bad workload")

	info, err := c.CreateSession(service.CreateSessionRequest{Workload: "WC", Input: 2})
	if err != nil {
		t.Fatal(err)
	}

	_, err = c.Observe(info.ID, service.ObserveRequest{ExecTime: 10})
	wantStatus(err, http.StatusConflict, "observe without suggestion")

	_, err = c.CreateSession(service.CreateSessionRequest{Workload: "TS", Input: 1})
	wantStatus(err, http.StatusServiceUnavailable, "over capacity")

	sug, err := c.Suggest(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Observe(info.ID, service.ObserveRequest{Step: sug.Step, ExecTime: -1})
	wantStatus(err, http.StatusBadRequest, "negative exec time")

	if err := c.DeleteSession(info.ID); err != nil {
		t.Fatal(err)
	}
	err = c.DeleteSession(info.ID)
	wantStatus(err, http.StatusNotFound, "double delete")
}

// TestObserveSurvivesCrashAfterCheckpoint simulates the crash-recovery
// contract directly at the manager layer: every acknowledged observation
// is on disk, so a crash immediately after an observe loses nothing.
func TestObserveSurvivesCrashAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store, err := service.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := service.NewManager(store, 0)
	info, err := m.Create(service.CreateSessionRequest{ID: "crashy", Workload: "PR", Input: 1})
	if err != nil {
		t.Fatal(err)
	}
	sug, err := m.Suggest(info.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Observe(info.ID, service.ObserveRequest{Step: sug.Step, ExecTime: 321}, ""); err != nil {
		t.Fatal(err)
	}
	// "Crash": no shutdown hooks run; a new manager reads the same dir.
	store2, err := service.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := service.NewManager(store2, 0)
	if n, err := m2.Resume(); err != nil || n != 1 {
		t.Fatalf("Resume = %d, %v", n, err)
	}
	s, err := m2.Get("crashy")
	if err != nil {
		t.Fatal(err)
	}
	got := s.Info()
	if got.Step != 1 || got.ReplayLen != 1 || got.BestTime != 321 {
		t.Fatalf("recovered session = %+v", got)
	}
}
