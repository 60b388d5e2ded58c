package main

import (
	"fmt"
	"math/rand"
	"time"

	"deepcat/internal/cli"
	"deepcat/internal/core"
)

// tuneSizes sizes one tune phase: the paper's own pipeline, no service.
type tuneSizes struct {
	Models   int // workloads at D2, in WC/TS/PR/KM order
	Iters    int // offline training iterations per model
	Sessions int // online tuning sessions (Clone().OnlineTune) per model
}

type tuneOut struct {
	setupS       sample // per model: environment + core.New + offline training
	offlineIters int
	offlineS     float64
	// itersPerS is the offline training rate of each run of rateChunk
	// iterations; the reported rate is their median, so the 64 untrained
	// warm-up iterations and a transient stall weigh nothing.
	itersPerS   sample
	recommendMs sample // TuningStep.RecommendSeconds per online step
	speedups    sample // DefaultTime/BestTime per online session
	digest      string
	mem         memDelta
	ops         int // offline iterations + online steps
}

// rateChunk is how many offline iterations one training-rate sample spans.
const rateChunk = 50

// runTune trains one model per workload offline and then runs the online
// sessions from clones of it, single goroutine, as EXPERIMENTS.md does.
func runTune(seed int64, sz tuneSizes, t *tally) (tuneOut, error) {
	var out tuneOut
	var digs []*digest
	before := readMem()
	for m := 0; m < sz.Models; m++ {
		wl := workloadShorts[m%len(workloadShorts)]
		modelSeed := seed + int64(m)
		start := time.Now()
		e, err := cli.BuildEnv("a", wl, 2, modelSeed)
		if err != nil {
			return out, err
		}
		d, err := core.New(rand.New(rand.NewSource(modelSeed)), core.DefaultConfig(e.StateDim(), e.Space().Dim()))
		if err != nil {
			return out, err
		}
		trainStart := time.Now()
		chunkStart := trainStart
		d.OfflineTrain(e, sz.Iters, func(iter int) {
			if iter%rateChunk == 0 {
				now := time.Now()
				out.itersPerS = append(out.itersPerS, rateChunk/now.Sub(chunkStart).Seconds())
				chunkStart = now
			}
		})
		out.offlineS += time.Since(trainStart).Seconds()
		out.offlineIters += sz.Iters
		out.setupS = append(out.setupS, time.Since(start).Seconds())
		t.ok("offline train "+wl, nil)

		dig := newDigest()
		digs = append(digs, dig)
		for s := 0; s < sz.Sessions; s++ {
			rep := d.Clone().OnlineTune(e)
			var err error
			if len(rep.Steps) != d.Cfg.OnlineSteps {
				err = fmt.Errorf("%d steps, want %d", len(rep.Steps), d.Cfg.OnlineSteps)
			}
			for _, st := range rep.Steps {
				if err == nil {
					err = checkAction(st.Action, e.Space().Dim())
				}
				dig.add(st.Action)
				out.recommendMs = append(out.recommendMs, 1e3*st.RecommendSeconds)
			}
			sp := rep.Speedup(e.DefaultTime())
			if err == nil && sp <= 0 {
				err = fmt.Errorf("no successful step (speedup %v)", sp)
			}
			if t.ok(fmt.Sprintf("online tune %s #%d", wl, s), err) {
				out.speedups = append(out.speedups, sp)
			}
			out.ops += len(rep.Steps)
		}
	}
	out.ops += out.offlineIters
	out.mem = memSince(before)
	out.digest = combine(digs)
	var err error
	if mean := out.speedups.mean(); mean <= 1 {
		err = fmt.Errorf("mean speed-up over default %.3f, want > 1", mean)
	}
	t.ok("tune_speedup > 1", err)
	return out, nil
}
