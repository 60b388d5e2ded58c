package harness

import (
	"io"

	"deepcat/internal/env"
	"deepcat/internal/sparksim"
)

// TunerNames lists the compared approaches in presentation order.
var TunerNames = []string{"DeepCAT", "CDBTune", "OtterTune"}

// comparedTuners maps each name in TunerNames to one online tuning session
// of that tuner under a replication seed: DeepCAT and CDBTune models
// offline-trained on src are cloned for every session, OtterTune is seeded
// with otterOffset+seed, and every session tunes target.
func (h *Harness) comparedTuners(src, target env.Environment, otterOffset int64) map[string]func(seed int64) *env.Report {
	return map[string]func(int64) *env.Report{
		"DeepCAT":   func(s int64) *env.Report { return h.DeepCATModel(src, s).Clone().OnlineTune(target) },
		"CDBTune":   func(s int64) *env.Report { return h.CDBTuneModel(src, s).Clone().OnlineTune(target) },
		"OtterTune": func(s int64) *env.Report { return h.OtterTuner(otterOffset+s).OnlineTune(target, target.Label()) },
	}
}

// PairComparison aggregates the online tuning sessions of all three tuners
// on one workload-input pair.
type PairComparison struct {
	Pair        string
	DefaultTime float64
	// Reports maps tuner name to one report per replication seed.
	Reports map[string][]*env.Report
}

// meanOf averages f over the named tuner's reports (0 when it has none).
func (p PairComparison) meanOf(tuner string, f func(*env.Report) float64) float64 {
	reps := p.Reports[tuner]
	if len(reps) == 0 {
		return 0
	}
	var s float64
	for _, r := range reps {
		s += f(r)
	}
	return s / float64(len(reps))
}

// MeanSpeedup returns the average Fig. 6 speedup of the named tuner.
func (p PairComparison) MeanSpeedup(tuner string) float64 {
	return p.meanOf(tuner, func(r *env.Report) float64 { return r.Speedup(p.DefaultTime) })
}

// MeanTotalCost returns the average Fig. 7 total online tuning time.
func (p PairComparison) MeanTotalCost(tuner string) float64 {
	return p.meanOf(tuner, (*env.Report).TotalCost)
}

// MeanRecommendCost returns the average recommendation-time component.
func (p PairComparison) MeanRecommendCost(tuner string) float64 {
	return p.meanOf(tuner, (*env.Report).RecommendationCost)
}

// ComparisonResult holds the full 12-pair, 3-tuner study behind Figures 6,
// 7 and 8.
type ComparisonResult struct {
	Pairs []PairComparison
}

// AvgSpeedup averages a tuner's speedup over all pairs.
func (c *ComparisonResult) AvgSpeedup(tuner string) float64 {
	var s float64
	for _, p := range c.Pairs {
		s += p.MeanSpeedup(tuner)
	}
	return s / float64(len(c.Pairs))
}

// AvgTotalCost averages a tuner's total online tuning time over all pairs.
func (c *ComparisonResult) AvgTotalCost(tuner string) float64 {
	var s float64
	for _, p := range c.Pairs {
		s += p.MeanTotalCost(tuner)
	}
	return s / float64(len(c.Pairs))
}

// RunComparison executes (or returns the cached) full comparison: for every
// workload-input pair and every replication seed, DeepCAT and CDBTune are
// offline-trained on the pair and fine-tuned online for OnlineSteps steps,
// and OtterTune tunes online against its repository with the pair's own
// entry held out.
func (h *Harness) RunComparison() *ComparisonResult {
	h.mu.Lock()
	cached := h.compare
	h.mu.Unlock()
	if cached != nil {
		return cached
	}
	// The OtterTune repository is shared: build it before fanning out so
	// workers only read it.
	h.Repository()
	pairs := sparksim.AllPairs()
	res := &ComparisonResult{Pairs: make([]PairComparison, len(pairs))}
	h.forEach(len(pairs), func(i int) {
		p := pairs[i]
		e := h.EnvA(p.Workload, p.InputIdx)
		pc := PairComparison{
			Pair:        sparksim.PairLabel(p.Workload, p.InputIdx),
			DefaultTime: e.DefaultTime(),
			Reports:     make(map[string][]*env.Report),
		}
		run := h.comparedTuners(e, e, 0)
		for s := int64(0); s < int64(h.Opts.Replications); s++ {
			for _, tn := range TunerNames {
				pc.Reports[tn] = append(pc.Reports[tn], run[tn](s))
			}
		}
		res.Pairs[i] = pc
	})
	h.mu.Lock()
	h.compare = res
	h.mu.Unlock()
	return res
}

// FprintFig6 renders the speedup-over-default bars of Fig. 6.
func (c *ComparisonResult) FprintFig6(w io.Writer) {
	writeRow(w, "Figure 6: speedup of best recommended configuration over default (higher is better)")
	writeRow(w, "%-8s %-10s %-10s %-10s %s", "pair", "default(s)", "DeepCAT", "CDBTune", "OtterTune")
	for _, p := range c.Pairs {
		writeRow(w, "%-8s %-10.1f %-10.2f %-10.2f %.2f", p.Pair, p.DefaultTime,
			p.MeanSpeedup("DeepCAT"), p.MeanSpeedup("CDBTune"), p.MeanSpeedup("OtterTune"))
	}
	writeRow(w, "%-8s %-10s %-10.2f %-10.2f %.2f", "AVG", "",
		c.AvgSpeedup("DeepCAT"), c.AvgSpeedup("CDBTune"), c.AvgSpeedup("OtterTune"))
	writeRow(w, "DeepCAT vs CDBTune: %.2fx   DeepCAT vs OtterTune: %.2fx",
		c.AvgSpeedup("DeepCAT")/c.AvgSpeedup("CDBTune"),
		c.AvgSpeedup("DeepCAT")/c.AvgSpeedup("OtterTune"))
}

// FprintFig7 renders the total-tuning-time bars of Fig. 7 with the
// recommendation-time breakdown (the black segments of the paper's figure).
func (c *ComparisonResult) FprintFig7(w io.Writer) {
	writeRow(w, "Figure 7: total online tuning time, recommendation time in parentheses (lower is better)")
	writeRow(w, "%-8s %-22s %-22s %s", "pair", "DeepCAT", "CDBTune", "OtterTune")
	for _, p := range c.Pairs {
		writeRow(w, "%-8s %8.1fs (%6.3fs)   %8.1fs (%6.3fs)   %8.1fs (%6.3fs)", p.Pair,
			p.MeanTotalCost("DeepCAT"), p.MeanRecommendCost("DeepCAT"),
			p.MeanTotalCost("CDBTune"), p.MeanRecommendCost("CDBTune"),
			p.MeanTotalCost("OtterTune"), p.MeanRecommendCost("OtterTune"))
	}
	dc, cb, ot := c.AvgTotalCost("DeepCAT"), c.AvgTotalCost("CDBTune"), c.AvgTotalCost("OtterTune")
	writeRow(w, "%-8s %8.1fs %15s %8.1fs %15s %8.1fs", "AVG", dc, "", cb, "", ot)
	writeRow(w, "DeepCAT saves %.1f%% vs CDBTune, %.1f%% vs OtterTune on average",
		100*(1-dc/cb), 100*(1-dc/ot))
}

// FprintFig8 renders, for each pair, the best-so-far execution time and the
// accumulated tuning cost after each online step (paper Fig. 8).
func (c *ComparisonResult) FprintFig8(w io.Writer) {
	writeRow(w, "Figure 8: best-so-far execution time / accumulated tuning cost per online step")
	for _, p := range c.Pairs {
		writeRow(w, "%s (default %.1fs)", p.Pair, p.DefaultTime)
		for _, tuner := range TunerNames {
			reps := p.Reports[tuner]
			if len(reps) == 0 {
				continue
			}
			r := reps[0] // representative replication
			best := r.BestSoFar()
			cost := r.AccumulatedCost()
			writeRow(w, "  %-10s", tuner)
			for i := range best {
				b := best[i]
				if b > 1e17 {
					b = -1 // no success yet
				}
				writeRow(w, "    step %d: best %7.1fs  accumulated cost %8.1fs", i+1, b, cost[i])
			}
		}
	}
}
