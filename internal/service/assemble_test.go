package service

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

// TestAssembleRestartResumesAndWarmsSpine assembles a spine-mode daemon
// with a warehouse over temp dirs, tunes a session through the assembled
// handler, closes it, and assembles again on the same dirs: the session
// resumes at its step and the spine is warm-started from the WAL.
func TestAssembleRestartResumesAndWarmsSpine(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Data:      filepath.Join(dir, "data"),
		Warehouse: filepath.Join(dir, "wh"),
		Spine:     true,
		TraceRing: 64,
		LogLevel:  "error",
		Drain:     time.Second,
	}
	d, err := Assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Server.Handler)
	var info SessionInfo
	if code := postJSON(t, ts.URL+"/v1/sessions", CreateSessionRequest{ID: "as", Workload: "TS", Input: 1, Seed: 7}, &info); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	const rounds = 6
	for i := 0; i < rounds; i++ {
		var sug SuggestResponse
		if code := postJSON(t, ts.URL+"/v1/sessions/as/suggest", nil, &sug); code != http.StatusOK {
			t.Fatalf("suggest = %d", code)
		}
		if code := postJSON(t, ts.URL+"/v1/sessions/as/observe", ObserveRequest{Step: sug.Step, ExecTime: toyExec(sug.Action)}, nil); code != http.StatusOK {
			t.Fatalf("observe = %d", code)
		}
	}
	ts.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	store, err := NewFSStore(cfg.Data)
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := store.List(); err != nil || len(ids) != 1 || ids[0] != "as" {
		t.Fatalf("checkpoints after Close = %v, %v", ids, err)
	}

	d, err = Assemble(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, err := d.Manager.Get("as")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Info(); got.Step != rounds || !got.SpineMode {
		t.Fatalf("resumed session = step %d spine %v, want step %d in spine mode", got.Step, got.SpineMode, rounds)
	}
	var warmed uint64
	for _, ls := range d.Manager.Spine().Stats().Lanes {
		warmed += ls.Ingested
	}
	if warmed == 0 {
		t.Fatal("spine not warm-started from the warehouse")
	}
}

// TestAssembleRejectsPeersWithoutPublicURL: a configuration error comes
// back as an error, not a process exit.
func TestAssembleRejectsPeersWithoutPublicURL(t *testing.T) {
	_, err := Assemble(Config{
		Data:     t.TempDir(),
		LogLevel: "error",
		Peers:    "http://127.0.0.1:1,http://127.0.0.1:2",
	})
	if err == nil {
		t.Fatal("-peers without -public-url assembled")
	}
}
