package harness

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"deepcat/internal/core"
	"deepcat/internal/env"
	"deepcat/internal/sparksim"
)

// DynamicStep is the outcome of one tuning request in the dynamic-workload
// stream.
type DynamicStep struct {
	Request  int
	Pair     string
	Tuner    string
	BestTime float64
	Speedup  float64
	Cost     float64
}

// DynamicResult is the extension study motivated by the paper's
// introduction: "configuration tuning is not a once-for-all job because the
// performance … is highly related to the workload characteristics … which
// may frequently change with time". A stream of tuning requests arrives,
// each for a different workload-input pair; DeepCAT serves every request
// from ONE offline model (fine-tuned online per request, accumulating
// experience across requests), while OtterTune re-maps and re-trains its GP
// per request and CDBTune fine-tunes its own single model.
type DynamicResult struct {
	Steps []DynamicStep
	// MeanSpeedup and TotalCost aggregate per tuner over the stream.
	MeanSpeedup map[string]float64
	TotalCost   map[string]float64
}

// RunDynamic serves a stream of requests cycling through the given pairs
// (paper abbreviations, e.g. "TS", "PR"), all at input D1. requests is the
// stream length. The DRL tuners are trained offline once, on the first
// pair only — the realistic setting where the standard environment used
// for offline training does not match most later requests.
func (h *Harness) RunDynamic(shorts []string, requests int) (DynamicResult, error) {
	if len(shorts) == 0 {
		return DynamicResult{}, errors.New("harness: RunDynamic needs at least one workload")
	}
	envs := make([]*env.SparkEnv, len(shorts))
	for i, s := range shorts {
		w, err := sparksim.WorkloadByShort(s)
		if err != nil {
			return DynamicResult{}, fmt.Errorf("harness: %w", err)
		}
		envs[i] = h.EnvA(w, 0)
	}

	res := DynamicResult{
		MeanSpeedup: make(map[string]float64),
		TotalCost:   make(map[string]float64),
	}

	// DeepCAT: one offline model on the first workload; the SAME tuner
	// instance serves every request, so online experience accumulates.
	dcCfg := core.DefaultConfig(envs[0].StateDim(), envs[0].Space().Dim())
	dcCfg.OnlineSteps = h.Opts.OnlineSteps
	dc, err := core.New(rand.New(rand.NewSource(h.Opts.Seed*16000)), dcCfg)
	if err != nil {
		return DynamicResult{}, fmt.Errorf("harness: dynamic stream: %w", err)
	}
	dc.OfflineTrain(envs[0], h.Opts.OfflineIters, nil)

	// CDBTune: same protocol.
	cb := h.CDBTuneModel(envs[0], 0).Clone()

	// OtterTune: repository shared with the other experiments.
	ot := h.OtterTuner(400)

	tune := map[string]func(env.Environment) *env.Report{
		"DeepCAT":   dc.OnlineTune,
		"CDBTune":   cb.OnlineTune,
		"OtterTune": func(e env.Environment) *env.Report { return ot.OnlineTune(e, e.Label()) },
	}
	for r := 0; r < requests; r++ {
		e := envs[r%len(envs)]
		for _, tn := range TunerNames {
			res.record(&res.Steps, r, e.Label(), tn, tune[tn](e), e.DefaultTime())
		}
	}
	n := float64(requests)
	for _, tn := range TunerNames {
		res.MeanSpeedup[tn] /= n
	}
	return res, nil
}

// record appends a step and accumulates the aggregates.
func (r *DynamicResult) record(steps *[]DynamicStep, req int, pair, tuner string, rep *env.Report, def float64) {
	*steps = append(*steps, DynamicStep{
		Request:  req + 1,
		Pair:     pair,
		Tuner:    tuner,
		BestTime: rep.BestTime,
		Speedup:  rep.Speedup(def),
		Cost:     rep.TotalCost(),
	})
	r.MeanSpeedup[tuner] += rep.Speedup(def)
	r.TotalCost[tuner] += rep.TotalCost()
}

// Fprint renders the stream and the aggregates.
func (r DynamicResult) Fprint(w io.Writer) {
	writeRow(w, "Dynamic workload stream: one tuner instance serving changing requests")
	writeRow(w, "%-4s %-20s %-10s %-10s %-10s %s", "req", "pair", "tuner", "best (s)", "speedup", "cost (s)")
	for _, s := range r.Steps {
		writeRow(w, "%-4d %-20s %-10s %-10.1f %-10.2f %.1f", s.Request, s.Pair, s.Tuner, s.BestTime, s.Speedup, s.Cost)
	}
	writeRow(w, "mean speedup: DeepCAT %.2fx  CDBTune %.2fx  OtterTune %.2fx",
		r.MeanSpeedup["DeepCAT"], r.MeanSpeedup["CDBTune"], r.MeanSpeedup["OtterTune"])
	writeRow(w, "total cost:   DeepCAT %.0fs  CDBTune %.0fs  OtterTune %.0fs",
		r.TotalCost["DeepCAT"], r.TotalCost["CDBTune"], r.TotalCost["OtterTune"])
}
