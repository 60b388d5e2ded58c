package service

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"deepcat/internal/core"
	"deepcat/internal/fleet"
	"deepcat/internal/mat"
	"deepcat/internal/rl"
	"deepcat/internal/spine"
	"deepcat/internal/warehouse"
)

// postJSON posts body (nil for none) to url, decodes a 2xx answer into out
// when non-nil, and returns the status code.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	var rd bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&rd).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// serve runs h on a loopback listener until the test ends and returns its
// base URL.
func serve(t *testing.T, h func(url string) http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	srv := &http.Server{Handler: h(url)}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return url
}

// TestAdoptRefusesMisshapedCheckpoint hands a one-node fleet a checkpoint
// whose second target critic has a 3x3 layer where its online critic has
// 64x64. The adopt endpoint must answer 400 without panicking and leave the
// id free; the same file in the store must fail Resume, not crash it.
func TestAdoptRefusesMisshapedCheckpoint(t *testing.T) {
	src := testManager(t, 0)
	createTestSession(t, src, "bad")
	s, err := src.Get("bad")
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var ck sessionCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	ck.Snap.Agent.Critic2T.Layers[1].W = mat.New(3, 3)
	ck.Snap.Agent.Critic2T.Layers[1].B = make([]float64, 3)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()

	m := testManager(t, 0)
	if _, err := m.Adopt("bad", bad); !errors.Is(err, ErrInvalid) {
		t.Fatalf("adopt err = %v, want ErrInvalid", err)
	}
	url := serve(t, func(url string) http.Handler {
		router, err := fleet.NewRouter(fleet.Config{Self: url, Peers: []string{url}, ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return NewFleetServer(m, FleetOptions{Router: router})
	})
	resp, err := http.Post(url+"/v1/fleet/adopt/bad", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("adopt over HTTP = %d, want 400", resp.StatusCode)
	}
	if _, err := m.Create(CreateSessionRequest{ID: "bad", Workload: "TS", Input: 1, Seed: 7}); err != nil {
		t.Fatalf("id not free after a refused adopt: %v", err)
	}

	store := NewMemStore()
	if err := store.Save("bad", bad); err != nil {
		t.Fatal(err)
	}
	boot := NewManager(store, 0)
	if n, err := boot.Resume(); n != 0 || err == nil {
		t.Fatalf("resume of a mis-shaped checkpoint = %d, %v", n, err)
	}
	if _, err := boot.Create(CreateSessionRequest{ID: "bad", Workload: "TS", Input: 1, Seed: 7}); err != nil {
		t.Fatalf("id not free after a refused resume: %v", err)
	}
}

// TestSpineSessionSurvivesPoisonedLane drives a spine-mode session over
// HTTP, poisons its family's lane with rewards of math.MaxFloat64 (finite,
// so ingest takes them, but training on them overflows) after the first
// adopted version, and keeps driving past several adoption points: the refused
// learner pass publishes nothing, so every call still answers 200 with a
// finite action and the session stays on the clean version.
func TestSpineSessionSurvivesPoisonedLane(t *testing.T) {
	const adoptEvery = 2
	sp := spine.New(spine.Options{Seed: 42})
	defer sp.Close()
	m := testManager(t, 0)
	m.AttachSpine(SpineConfig{Spine: sp, AdoptEvery: adoptEvery})
	url := serve(t, func(string) http.Handler { return NewServer(m) })

	var info SessionInfo
	if code := postJSON(t, url+"/v1/sessions", CreateSessionRequest{ID: "sp", Workload: "TS", Input: 1, Seed: 7}, &info); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	s, err := m.Get("sp")
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		t.Helper()
		var sug SuggestResponse
		if code := postJSON(t, url+"/v1/sessions/sp/suggest", nil, &sug); code != http.StatusOK {
			t.Fatalf("suggest = %d", code)
		}
		if !mat.AllFinite(sug.Action) {
			t.Fatalf("suggest step %d returned a non-finite action", sug.Step)
		}
		if code := postJSON(t, url+"/v1/sessions/sp/observe", ObserveRequest{Step: sug.Step, ExecTime: toyExec(sug.Action)}, nil); code != http.StatusOK {
			t.Fatalf("observe = %d", code)
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if _, err := sp.TrainFamily(s.sig, 16); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < adoptEvery; i++ {
		round()
	}
	if v := s.Info().SpineVersion; v != 1 {
		t.Fatalf("session runs version %d, want 1", v)
	}

	var poison []rl.Transition
	for i := 0; i < 128; i++ {
		poison = append(poison, rl.Transition{
			State:     make([]float64, s.env.StateDim()),
			Action:    make([]float64, s.env.Space().Dim()),
			Reward:    math.MaxFloat64,
			NextState: make([]float64, s.env.StateDim()),
		})
	}
	sp.Ingest(s.sig, poison)
	_, perr := sp.TrainFamily(s.sig, 16)
	for i := 0; i < 3*adoptEvery; i++ {
		round()
	}
	if perr == nil {
		t.Fatal("learner pass over overflowing rewards published")
	}
	if v := s.Info().SpineVersion; v != 1 {
		t.Fatalf("session moved to version %d after a refused pass", v)
	}
}

// poisonedDonor rewrites the fixture donor as generation gen with a NaN in
// its first critic, returning the file name and contents.
func poisonedDonor(t *testing.T, gen int) (string, []byte) {
	t.Helper()
	data, err := os.ReadFile(donorFixture)
	if err != nil {
		t.Fatal(err)
	}
	var df struct {
		Meta warehouse.DonorMeta
		Snap *core.Snapshot
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&df); err != nil {
		t.Fatal(err)
	}
	df.Meta.Generation = gen
	df.Snap.Agent.Critic1.Layers[0].W.Data[0] = math.NaN()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(df); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("donor-a.TS.1-g%d.snap", gen), buf.Bytes()
}

// TestPoisonedDonorSkippedAtOpen puts a NaN-carrying donor generation next
// to the clean fixture: the warehouse skips it at Open, so a new session
// warm-starts from the previous generation, or starts cold when the
// poisoned file is the only donor.
func TestPoisonedDonorSkippedAtOpen(t *testing.T) {
	good, err := os.ReadFile(donorFixture)
	if err != nil {
		t.Fatal(err)
	}
	name, bad := poisonedDonor(t, 2)
	s := warmSession(t, openDonorWarehouse(t, map[string][]byte{filepath.Base(donorFixture): good, name: bad}))
	if info := s.Info(); !info.WarmStarted || info.Donor != "a.TS.1-g1" {
		t.Fatalf("session next to a poisoned g2 = warm %v donor %q, want a.TS.1-g1", info.WarmStarted, info.Donor)
	}
	s = warmSession(t, openDonorWarehouse(t, map[string][]byte{name: bad}))
	if info := s.Info(); info.WarmStarted {
		t.Fatalf("session warm-started from a poisoned donor %q", info.Donor)
	}
}
