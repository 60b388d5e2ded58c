package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"deepcat/internal/service"
)

func TestQuantileRefusesThinTail(t *testing.T) {
	s := make(sample, 1000)
	for i := range s {
		s[i] = float64(1000 - i) // unsorted on purpose: 1000, 999, ..., 1
	}
	if v, err := s.quantile(0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with ten samples beyond", v, err)
	}
	if _, err := s[:999].quantile(0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted with nine samples beyond it")
	}
	if _, err := s[:100].quantile(0.95); err == nil {
		t.Fatal("p95 of 100 samples accepted with five samples beyond it")
	}
	if v, err := s[:1].quantile(0.5); err != nil || v != 1000 {
		t.Fatalf("median of one sample = %v, %v", v, err)
	}
	if _, err := (sample{}).quantile(0.5); err == nil {
		t.Fatal("median of an empty sample accepted")
	}
	// A probe-sized sample falls back to the highest percentile it supports.
	if v, pct := s[:160].tail(); pct != 93.75 || v != s[:160].atRank(150) {
		t.Fatalf("tail of 160 samples = %v at p%v, want rank 150 at p93.75", v, pct)
	}
	if _, pct := s.tail(); pct != 99 {
		t.Fatalf("tail of 1000 samples at p%v, want p99", pct)
	}
}

func TestSpanSelfTimeAndUnexplained(t *testing.T) {
	parents := map[string][]string{"handler": {"client"}, "save": {"handler", "handoff"}}
	spans := []span{
		{name: "client", id: "a/observe/1", start: 0, end: 100},
		{name: "handler", id: "a/observe/1", start: 10, end: 90},
		// Two overlapping children cover [20,60): counted once.
		{name: "save", id: "a/observe/1", start: 20, end: 50},
		{name: "save", id: "a/observe/1", start: 40, end: 60},
		// Another request: its spans must not be charged to the first.
		{name: "client", id: "b/observe/1", start: 0, end: 30},
		{name: "handoff", id: "b/handoff/0", start: 200, end: 260},
		{name: "save", id: "b/handoff/0", start: 210, end: 220},
	}
	agg := aggregate(spans, parents)
	want := map[string]spanAgg{
		"client":       {Count: 2, BusyNs: 130, SelfNs: 20 + 30},
		"handler":      {Count: 1, BusyNs: 80, SelfNs: 40},
		"save":         {Count: 3, BusyNs: 60, SelfNs: 60},
		"handoff":      {Count: 1, BusyNs: 60, SelfNs: 50},
		"handler>save": {Count: 2, BusyNs: 50, SelfNs: 50},
		"handoff>save": {Count: 1, BusyNs: 10, SelfNs: 10},
	}
	for name, w := range want {
		if got := agg[name]; got == nil || *got != w {
			t.Errorf("aggregate[%s] = %+v, want %+v", name, got, w)
		}
	}
	if a := agg["client>handler"]; a == nil || a.Count != 1 {
		t.Errorf("client>handler = %+v, want one span", a)
	}

	root := &node{Name: "parent", Count: 1, BusyMs: 100, Children: []*node{
		{Name: "a", Count: 2, BusyMs: 60, Children: []*node{{Name: "a1", BusyMs: 45}}},
		{Name: "b", Count: 1, BusyMs: 30},
	}}
	root.finish()
	if root.SelfMs != 10 || root.unexplained("parent") != 10 || root.ShareOfParent != 1 {
		t.Errorf("parent: self %v, unexplained %v, share %v; want 10, 10, 1", root.SelfMs, root.unexplained("parent"), root.ShareOfParent)
	}
	a := root.find("a")
	if a.SelfMs != 15 || a.unexplained("a") != 25 || a.ShareOfParent != 0.6 {
		t.Errorf("a: self %v, unexplained %v, share %v; want 15, 25, 0.6", a.SelfMs, a.unexplained("a"), a.ShareOfParent)
	}
	if b := root.find("b"); b.UnexplainedPct != nil || b.SelfMs != 30 || b.ShareOfParent != 0.3 {
		t.Errorf("leaf b: %+v; a leaf has no unexplained share", b)
	}
	if s := sumNode("s", 1, &node{BusyMs: 2}, &node{BusyMs: 3}); s.BusyMs != 5 {
		t.Errorf("sumNode busy %v, want 5", s.BusyMs)
	}
	if l := ladderNode("l", 4, 0.5); l.BusyMs != 2 {
		t.Errorf("ladderNode busy %v, want 2", l.BusyMs)
	}
}

func TestGeneratorIsPureFunctionOfSeed(t *testing.T) {
	a, b := sessionPlan("s", 7, 8), sessionPlan("s", 7, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two plans of one seed differ")
	}
	if reflect.DeepEqual(a, sessionPlan("s", 8, 8)) {
		t.Fatal("plans of different seeds are equal")
	}
	seen := map[string]bool{}
	inputs := map[int]bool{}
	for i, s := range a {
		if seen[s.ID] {
			t.Errorf("duplicate id %s", s.ID)
		}
		seen[s.ID] = true
		inputs[s.Input] = true
		if err := service.ValidateID(s.ID); err != nil {
			t.Errorf("id %s: %v", s.ID, err)
		}
		if s.Seed != 7+int64(i) || s.Workload != workloadShorts[i%4] {
			t.Errorf("session %d = %+v", i, s)
		}
	}
	if len(inputs) != 3 {
		t.Errorf("eight sessions cover inputs %v, want D1-D3", inputs)
	}
	for _, wl := range workloads {
		x, err := sizesFor(wl, 15, false)
		y, _ := sizesFor(wl, 15, false)
		if err != nil || x != y {
			t.Errorf("sizesFor(%s): %v, stable %v", wl, err, x == y)
		}
		// Every phase at home keeps a p99 honest.
		if x.serve.Rounds*2*x.serve.Waves < 1000 {
			t.Errorf("%s: %d serve rounds, a p99 needs 1000", wl, x.serve.Rounds*2*x.serve.Waves)
		}
	}
	if x, _ := sizesFor("lifecycle", 15, false); x.life.Cycles*x.life.Groups*x.life.PerGroup < 1000 {
		t.Errorf("lifecycle at home resumes %d sessions, a p99 needs 1000", x.life.Cycles*x.life.Groups*x.life.PerGroup)
	}
	if _, err := sizesFor("nope", 15, false); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWrappersPassThrough(t *testing.T) {
	rec := newRecorder()
	for _, on := range []bool{false, true} {
		rec.on.Store(on)
		inner := service.NewMemStore()
		st := &spanStore{Store: inner, rec: rec}
		data := []byte("checkpoint bytes")
		if err := st.Save("s1", data); err != nil {
			t.Fatal(err)
		}
		direct, _ := inner.Load("s1")
		got, err := st.Load("s1")
		if err != nil || !bytes.Equal(got, data) || !bytes.Equal(direct, data) {
			t.Fatalf("on=%v: Load = %q, %v; inner holds %q", on, got, err, direct)
		}
		if _, err := st.Load("missing"); err == nil {
			t.Fatalf("on=%v: Load of a missing id succeeded", on)
		}
		if ids, _ := st.List(); !reflect.DeepEqual(ids, []string{"s1"}) {
			t.Fatalf("on=%v: List = %v", on, ids)
		}
		if err := st.Delete("s1"); err != nil {
			t.Fatal(err)
		}

		next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			w.Header().Set("X-Echo", r.URL.Path)
			w.WriteHeader(http.StatusConflict)
			w.Write(body)
		})
		for _, path := range []string{"/v1/sessions/s1/observe", "/v1/sessions/s1/suggest", "/v1/sessions", "/healthz"} {
			bare, wrapped := httptest.NewRecorder(), httptest.NewRecorder()
			next.ServeHTTP(bare, httptest.NewRequest("POST", path, strings.NewReader(`{"step":1}`)))
			(&spanHandler{next: next, rec: rec}).ServeHTTP(wrapped, httptest.NewRequest("POST", path, strings.NewReader(`{"step":1}`)))
			if wrapped.Code != bare.Code || wrapped.Body.String() != bare.Body.String() || !reflect.DeepEqual(wrapped.Header(), bare.Header()) {
				t.Errorf("on=%v %s: wrapped %d %q, bare %d %q", on, path, wrapped.Code, wrapped.Body, bare.Code, bare.Body)
			}
		}
	}
	names := map[string]int{}
	for _, sp := range rec.spans {
		names[sp.name]++
	}
	want := map[string]int{"store.save": 1, "store.load": 2, "service.handler_observe": 1, "service.handler_suggest": 1}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("recorded %v, want %v (and nothing while off)", names, want)
	}
	if s, op, ok := sessionOp("/v1/sessions/abc/suggest"); !ok || s != "abc" || op != "suggest" {
		t.Errorf("sessionOp = %q %q %v", s, op, ok)
	}
}

// smokeRun runs one workload at -smoke size in this process.
func smokeRun(t *testing.T, workload string, traced bool) runRecord {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	rec, err := runWorkload(runConfig{Workload: workload, Seed: 3, Seconds: 1, Traced: traced, Smoke: true, Out: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
		t.Fatalf("%s: correct %v, %d of %d operations failed: %v", workload, rec.Correct, rec.Failed, rec.Attempted, rec.Notes)
	}
	return rec
}

func TestSmokeReplayAgreesOnEveryDecision(t *testing.T) {
	a := smokeRun(t, "serve_inline", false)
	b := smokeRun(t, "serve_inline", false)
	for _, phase := range []string{"serve", "tune"} {
		if a.DecisionDigest[phase] == "" || a.DecisionDigest[phase] != b.DecisionDigest[phase] {
			t.Errorf("decision_digest[%s]: %q vs %q on a replay of one seed", phase, a.DecisionDigest[phase], b.DecisionDigest[phase])
		}
	}
	if len(a.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics reported, want %d", len(a.Metrics), len(endToEnd))
	}
	for _, spec := range endToEnd {
		m, ok := a.Metrics[spec.Name]
		if !ok || m.Unit != spec.Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %+v (reported %v), want a positive %s", spec.Name, m, ok, spec.Unit)
		}
	}
	if a.Metrics["tune_speedup"].Value <= 1 {
		t.Errorf("tune_speedup %v, want > 1", a.Metrics["tune_speedup"].Value)
	}
	var out bytes.Buffer
	if err := a.printResult(&out); err != nil {
		t.Fatal(err)
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &last); err != nil || len(last) != 4 {
		t.Errorf("last line %q: %v; want exactly correct, attempted, failed, metrics", out.String(), err)
	}
}

func TestSmokeTracedRunReportsEveryLayer(t *testing.T) {
	for _, wl := range []string{"serve_spine", "lifecycle"} {
		rec := smokeRun(t, wl, true)
		if len(rec.Metrics) != len(perLayerSpecs) {
			t.Errorf("%s: %d per-layer metrics, want %d", wl, len(rec.Metrics), len(perLayerSpecs))
		}
		for _, spec := range perLayerSpecs {
			if m, ok := rec.Metrics[spec.Name]; !ok || m.Unit != spec.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %+v (reported %v)", wl, spec.Name, m, ok)
			}
		}
		for _, must := range []string{"client.suggest_self_ms", "store.save_ms", "store.load_ms", "rl.train_step_ms", "mat.mul_lanes_ns", "warehouse.open_ms"} {
			if rec.Metrics[must].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wl, must, rec.Metrics[must].Value)
			}
		}
	}
}

func TestCompareJudgesAgainstBounds(t *testing.T) {
	mk := func(seed int64, scale float64, digest string) suiteResults {
		r := runRecord{Workload: "serve_inline", Seed: seed, result: result{Correct: true, Attempted: 10, Metrics: map[string]metric{}},
			DecisionDigest: map[string]string{"serve": digest}}
		for _, spec := range endToEnd {
			v := 100.0
			if spec.Better == "higher" {
				v /= scale
			} else {
				v *= scale
			}
			r.Metrics[spec.Name] = metric{Value: v, Unit: spec.Unit}
		}
		return suiteResults{Seed: seed, Seconds: 15, Runs: []runRecord{r, {Workload: "serve_inline", Traced: true}}}
	}
	base := mk(1, 1, "d1")
	if n := compareSuites(base, mk(1, 1.05, "d1"), io.Discard); n != 0 {
		t.Errorf("5%% worse everywhere: %d breaches, want 0", n)
	}
	if n := compareSuites(base, mk(1, 0.5, "d1"), io.Discard); n != 0 {
		t.Errorf("twice as good everywhere: %d breaches, want 0", n)
	}
	// 22% worse breaches exactly the metrics whose bound is tighter.
	tight := 0
	for _, spec := range endToEnd {
		if spec.Bound < 0.21 {
			tight++
		}
	}
	if n := compareSuites(base, mk(1, 1.22, "d1"), io.Discard); n != tight || tight == 0 {
		t.Errorf("22%% worse: %d breaches, want %d", n, tight)
	}
	if n := compareSuites(base, mk(1, 1.5, "d1"), io.Discard); n != len(endToEnd) {
		t.Errorf("50%% worse: %d breaches, want %d", n, len(endToEnd))
	}
	if n := compareSuites(base, mk(1, 1, "d2"), io.Discard); n != 1 {
		t.Errorf("differing digest on one seed: %d breaches, want 1", n)
	}
	if n := compareSuites(base, mk(2, 1, "d2"), io.Discard); n != 0 {
		t.Errorf("differing digest across seeds: %d breaches, want 0", n)
	}
	failed := mk(1, 1, "d1")
	failed.Runs[0].Failed = 1
	if n := compareSuites(base, failed, io.Discard); n != 1 {
		t.Errorf("a failed operation in B: %d breaches, want 1", n)
	}
	if n := compareSuites(base, suiteResults{Seed: 1, Seconds: 15}, io.Discard); n != 1 {
		t.Errorf("workload missing from B: %d breaches, want 1", n)
	}
	if code := run([]string{"-compare", "only-one.json"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("-compare with one file exits %d, want 2", code)
	}
}

func TestMedianRecordFoldsRepeats(t *testing.T) {
	mk := func(v float64, failed int, digest string) runRecord {
		return runRecord{Workload: "serve_inline", Seed: 1,
			result:         result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]metric{"observe_p50_ms": {v, "ms"}}},
			DecisionDigest: map[string]string{"serve": digest}}
	}
	got := medianRecord([]runRecord{mk(50, 0, "d"), mk(40, 0, "d"), mk(90, 0, "d")})
	if m := got.Metrics["observe_p50_ms"]; m.Value != 50 || m.Unit != "ms" {
		t.Errorf("median of 50, 40, 90 = %+v", m)
	}
	if got.Attempted != 30 || got.Failed != 0 || !got.Correct {
		t.Errorf("attempted %d failed %d correct %v, want 30, 0, true", got.Attempted, got.Failed, got.Correct)
	}
	got = medianRecord([]runRecord{mk(50, 0, "d"), mk(40, 2, "d"), mk(90, 0, "other")})
	if got.Failed != 3 || got.Correct || len(got.Notes) != 1 {
		t.Errorf("failed %d correct %v notes %v; want the two failures plus one for the differing digest", got.Failed, got.Correct, got.Notes)
	}
}

// TestBenchmarkJSONMatchesTables keeps ../BENCHMARK.json and the tables the
// runner and -compare use from drifting apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no ../BENCHMARK.json beside this checkout of bench/")
	}
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, runner default %d", doc.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, runner has %v", names, workloads)
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, runner has %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if got := (metricSpec{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, runner has %+v", i, got, endToEnd[i])
		}
	}
	if len(doc.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("%d per_layer metrics, runner has %d", len(doc.PerLayer), len(perLayerSpecs))
	}
	for i, m := range doc.PerLayer {
		if got := (metricSpec{m.Name, m.Unit, m.Better, 0}); got != perLayerSpecs[i] {
			t.Errorf("per_layer[%d] = %+v, runner has %+v", i, got, perLayerSpecs[i])
		}
	}
}

func TestRecorderIsSafeWhenAbsent(t *testing.T) {
	var rec *recorder
	if rec.enabled() {
		t.Fatal("a nil recorder reports enabled")
	}
	r := newRecorder()
	r.on.Store(true)
	r.inFlight.Store("s1", "s1/observe/4")
	if id := r.requestID("s1"); id != "s1/observe/4" {
		t.Errorf("requestID = %q", id)
	}
	if id := r.requestID("s2"); id != "s2" {
		t.Errorf("requestID without a call in flight = %q, want the session id", id)
	}
	now := time.Now()
	r.add("x", "id", now, now.Add(time.Millisecond))
	if len(r.spans) != 1 || r.spans[0].end-r.spans[0].start != int64(time.Millisecond) {
		t.Errorf("spans = %+v", r.spans)
	}
}
