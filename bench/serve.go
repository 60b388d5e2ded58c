package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"deepcat/internal/cli"
	"deepcat/internal/env"
	"deepcat/internal/obs"
	"deepcat/internal/service"
	"deepcat/internal/service/client"
	"deepcat/internal/spine"
)

// serveSizes sizes one serve phase. Sessions are created and warmed in
// waves of two (one per client), so a run sets up several times and
// setup_s can be a median.
type serveSizes struct {
	Waves  int // sessions = 2 * Waves
	Warm   int // untimed warm-up rounds per session
	Rounds int // timed rounds per session
}

// traceSegments is how many alternating untraced/traced segments a traced
// run cuts its timed rounds into.
const traceSegments = 6

// serveOut is what one serve phase measured.
type serveOut struct {
	setupS    sample // per wave: create + warm-up
	suggestMs sample
	observeMs sample
	// rate is completed rounds per second of timed wall time, as the median
	// over rateBlocks equal slices of the phase so that one transient stall
	// of a shared sandbox does not set it; rateTraced and rateUntraced are
	// plain rounds over wall time of a traced run's two kinds of segment.
	rate, rateTraced, rateUntraced float64
	rounds                         int
	quarantined                    int
	digest                         string
	mem                            memDelta
	metrics                        obs.Snapshot
	spineStats                     spine.Stats
	saves, saveBytes               int64
}

// tuned is one session as the benchmark's client sees it.
type tuned struct {
	spec sessionSpec
	env  *env.SparkEnv // the simulated cluster the "job" runs on
	step int
	dig  *digest
}

// serveClient is one scheduler connection: a typed client over its own
// transport, driving its sessions round-robin, one request at a time.
type serveClient struct {
	c        *client.Client
	sessions []*tuned
	rec      *recorder
	t        *tally

	suggestMs, observeMs sample
	done                 []time.Time // completion of each timed round
	quarantined          int
}

func newServeClient(url string, rec *recorder, t *tally) *serveClient {
	c := client.New(url)
	c.HTTPClient = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return &serveClient{c: c, rec: rec, t: t}
}

func (sc *serveClient) close() {
	sc.c.HTTPClient.Transport.(*http.Transport).CloseIdleConnections()
}

// round runs one suggest -> evaluate -> observe round on s. timed selects
// whether the latencies are kept.
func (sc *serveClient) round(s *tuned, timed bool) {
	traced := sc.rec.enabled()
	var reqID string
	if traced {
		reqID = fmt.Sprintf("%s/suggest/%d", s.spec.ID, s.step+1)
		sc.rec.inFlight.Store(s.spec.ID, reqID)
	}
	t0 := time.Now()
	sug, err := sc.c.Suggest(s.spec.ID)
	t1 := time.Now()
	if traced {
		sc.rec.add("client.suggest", reqID, t0, t1)
	}
	if err == nil {
		err = checkStep(sug.Step, s.step)
	}
	if err == nil {
		err = checkAction(sug.Action, s.env.Space().Dim())
	}
	if !sc.t.ok("suggest "+s.spec.ID, err) {
		return
	}
	s.dig.add(sug.Action)

	// The job itself: a simulated cluster run, outside the timed operations.
	out := s.env.Evaluate(sug.Action)
	req := service.ObserveRequest{Step: sug.Step, ExecTime: out.ExecTime, Failed: out.Failed, State: out.State}

	if traced {
		reqID = fmt.Sprintf("%s/observe/%d", s.spec.ID, sug.Step)
		sc.rec.inFlight.Store(s.spec.ID, reqID)
	}
	t2 := time.Now()
	obsResp, err := sc.c.Observe(s.spec.ID, req)
	t3 := time.Now()
	if traced {
		sc.rec.add("client.observe", reqID, t2, t3)
	}
	if err == nil && obsResp.Step != sug.Step {
		err = fmt.Errorf("observe acknowledged step %d, sent %d", obsResp.Step, sug.Step)
	}
	if !sc.t.ok("observe "+s.spec.ID, err) {
		return
	}
	s.step = sug.Step
	if obsResp.Quarantined {
		sc.quarantined++
	}
	if timed {
		sc.suggestMs = append(sc.suggestMs, ms(t1.Sub(t0)))
		sc.observeMs = append(sc.observeMs, ms(t3.Sub(t2)))
		sc.done = append(sc.done, t3)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runServe runs one serve phase: boot the daemon, create and warm the
// sessions wave by wave, run the timed rounds from two closed-loop clients,
// verify every checkpoint left in the store, shut down.
func runServe(root string, seed int64, spineMode bool, sz serveSizes, rec *recorder, t *tally) (serveOut, error) {
	var out serveOut
	d, err := startDaemon(filepath.Join(root, "serve"), spineMode, rec)
	if err != nil {
		return out, err
	}
	clients := []*serveClient{newServeClient(d.url, rec, t), newServeClient(d.url, rec, t)}
	defer func() {
		for _, sc := range clients {
			sc.close()
		}
	}()

	plan := sessionPlan("s", seed, 2*sz.Waves)
	var all []*tuned
	for w := 0; w < sz.Waves; w++ {
		start := time.Now()
		var wg sync.WaitGroup
		for c, sc := range clients {
			spec := plan[2*w+c]
			e, err := cli.BuildEnv("a", spec.Workload, spec.Input, spec.Seed)
			if err != nil {
				d.stop()
				return out, err
			}
			s := &tuned{spec: spec, env: e, dig: newDigest()}
			sc.sessions = append(sc.sessions, s)
			all = append(all, s)
			wg.Add(1)
			go func(sc *serveClient) {
				defer wg.Done()
				_, err := sc.c.CreateSession(spec.createRequest())
				if !t.ok("create "+spec.ID, err) {
					return
				}
				for i := 0; i < sz.Warm; i++ {
					sc.round(s, false)
				}
			}(sc)
		}
		wg.Wait()
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}

	// Timed rounds. An untraced run is one segment; a traced run alternates
	// untraced and traced segments so both rates come from the same session
	// states, and the clients meet at each boundary.
	segments := 1
	if rec != nil {
		segments = traceSegments
	}
	var tracedS, untracedS float64
	var tracedN, untracedN int
	before := readMem()
	for seg := 0; seg < segments; seg++ {
		n := sz.Rounds/segments + btoi(seg < sz.Rounds%segments)
		tracing := rec != nil && seg%2 == 1
		if rec != nil {
			rec.on.Store(tracing)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for _, sc := range clients {
			wg.Add(1)
			go func(sc *serveClient) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					for _, s := range sc.sessions {
						sc.round(s, true)
					}
				}
			}(sc)
		}
		wg.Wait()
		el := time.Since(start).Seconds()
		if tracing {
			tracedS, tracedN = tracedS+el, tracedN+n*len(all)
		} else {
			untracedS, untracedN = untracedS+el, untracedN+n*len(all)
		}
	}
	if rec != nil {
		rec.on.Store(false)
	}
	out.mem = memSince(before)
	out.rounds = tracedN + untracedN
	var done []time.Time
	for _, sc := range clients {
		done = append(done, sc.done...)
	}
	out.rate = blockRate(done, float64(out.rounds)/(tracedS+untracedS))
	if tracedS > 0 {
		out.rateTraced = float64(tracedN) / tracedS
	}
	if untracedS > 0 {
		out.rateUntraced = float64(untracedN) / untracedS
	}
	digs := make([]*digest, len(all))
	for i, s := range all {
		digs[i] = s.dig
	}
	out.digest = combine(digs)
	for _, sc := range clients {
		out.suggestMs = append(out.suggestMs, sc.suggestMs...)
		out.observeMs = append(out.observeMs, sc.observeMs...)
		out.quarantined += sc.quarantined
	}
	out.metrics = d.mgr.MetricsSnapshot()
	if d.spine != nil {
		out.spineStats = d.spine.Stats()
	}
	if ss, ok := d.store.(*spanStore); ok {
		out.saves, out.saveBytes = ss.saves.Load(), ss.saveBytes.Load()
	}
	if err := d.stop(); err != nil {
		return out, err
	}
	verifyStore(d.fs, len(all), t)
	return out, os.RemoveAll(d.fs.Dir())
}

// rateBlocks is how many equal-count slices rounds_per_s is the median of.
const rateBlocks = 10

// blockRate returns the median completion rate over rateBlocks consecutive
// slices of the completion times, or whole when there are too few to slice.
func blockRate(done []time.Time, whole float64) float64 {
	per := len(done) / rateBlocks
	if per < 2*minBeyond {
		return whole
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var rates sample
	for b := 0; b+1 < rateBlocks; b++ {
		// From the last completion of one slice to the last of the next.
		span := done[(b+2)*per-1].Sub(done[(b+1)*per-1]).Seconds()
		rates = append(rates, float64(per)/span)
	}
	return rates.median()
}

// verifyStore checks that the store holds exactly want checkpoints and that
// each passes service.VerifyCheckpoint.
func verifyStore(fs *service.FSStore, want int, t *tally) {
	ids, err := fs.List()
	if err == nil && len(ids) != want {
		err = fmt.Errorf("store holds %d checkpoints, want %d", len(ids), want)
	}
	if !t.ok("list checkpoints", err) {
		return
	}
	for _, id := range ids {
		data, err := fs.Load(id)
		if err == nil {
			err = service.VerifyCheckpoint(data)
		}
		t.ok("verify checkpoint "+id, err)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// memDelta is what the Go runtime allocated and paused over a timed phase.
type memDelta struct {
	allocBytes, mallocs, pauseNs uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// memSince returns what the runtime did since before was read.
func memSince(before runtime.MemStats) memDelta {
	now := readMem()
	return memDelta{
		allocBytes: now.TotalAlloc - before.TotalAlloc,
		mallocs:    now.Mallocs - before.Mallocs,
		pauseNs:    now.PauseTotalNs - before.PauseTotalNs,
	}
}
