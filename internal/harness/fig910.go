package harness

import (
	"io"

	"deepcat/internal/env"
	"deepcat/internal/sparksim"
)

// Fig9Row is one bar group of the workload-adaptability study: a DeepCAT
// model trained on one workload tuning PageRank D1, compared with the
// natively trained baselines.
type Fig9Row struct {
	Label    string // e.g. "M_WC->PR"
	BestTime float64
	Cost     float64
}

// Fig9Result is the paper's Fig. 9.
type Fig9Result struct {
	// DeepCATRows holds M_PR->PR, M_WC->PR, M_TS->PR, M_KM->PR.
	DeepCATRows []Fig9Row
	// CDBTune / OtterTune are natively trained/tuned on PR-D1.
	CDBTune   Fig9Row
	OtterTune Fig9Row
	Default   float64
}

// RunFig9 evaluates workload adaptability: DeepCAT models offline-trained
// on each of the four workloads online-tune PageRank D1.
func (h *Harness) RunFig9() Fig9Result {
	pr, err := sparksim.WorkloadByShort("PR")
	if err != nil {
		panic(err)
	}
	target := h.EnvA(pr, 0)
	res := Fig9Result{Default: target.DefaultTime()}
	reps := float64(h.Opts.Replications)

	for _, src := range []string{"PR", "WC", "TS", "KM"} {
		w, err := sparksim.WorkloadByShort(src)
		if err != nil {
			panic(err)
		}
		srcEnv := h.EnvA(w, 0)
		row := Fig9Row{Label: "M_" + src + "->PR"}
		for s := int64(0); s < int64(h.Opts.Replications); s++ {
			d := h.DeepCATModel(srcEnv, s)
			rep := d.Clone().OnlineTune(target)
			row.BestTime += rep.BestTime / reps
			row.Cost += rep.TotalCost() / reps
		}
		res.DeepCATRows = append(res.DeepCATRows, row)
	}

	res.CDBTune = Fig9Row{Label: "CDBTune(PR)"}
	res.OtterTune = Fig9Row{Label: "OtterTune(PR)"}
	native := map[string]*Fig9Row{"CDBTune": &res.CDBTune, "OtterTune": &res.OtterTune}
	run := h.comparedTuners(target, target, 100)
	for s := int64(0); s < int64(h.Opts.Replications); s++ {
		for _, tn := range []string{"CDBTune", "OtterTune"} {
			rep := run[tn](s)
			native[tn].BestTime += rep.BestTime / reps
			native[tn].Cost += rep.TotalCost() / reps
		}
	}
	return res
}

// Fprint renders the adaptability bars.
func (r Fig9Result) Fprint(w io.Writer) {
	writeRow(w, "Figure 9: adapting to different workloads (target PR-D1, default %.1fs)", r.Default)
	writeRow(w, "%-16s %-14s %s", "model", "best time (s)", "total tuning cost (s)")
	for _, row := range r.DeepCATRows {
		writeRow(w, "%-16s %-14.1f %.1f", row.Label, row.BestTime, row.Cost)
	}
	writeRow(w, "%-16s %-14.1f %.1f", r.CDBTune.Label, r.CDBTune.BestTime, r.CDBTune.Cost)
	writeRow(w, "%-16s %-14.1f %.1f", r.OtterTune.Label, r.OtterTune.BestTime, r.OtterTune.Cost)
}

// Fig10Row is one (workload, tuner) cell of the hardware-adaptability
// study: models trained on Cluster-A tuning the workload on Cluster-B.
type Fig10Row struct {
	Pair     string
	Tuner    string
	Speedup  float64
	Cost     float64
	BestTime float64
}

// Fig10Result is the paper's Fig. 10.
type Fig10Result struct {
	Rows []Fig10Row
	// Defaults maps pair label to Cluster-B default time.
	Defaults map[string]float64
}

// RunFig10 trains on Cluster-A and online-tunes WordCount D1 and PageRank
// D1 on Cluster-B, with out-of-scope recommendations clamped to the new
// environment's boundaries (§5.3.2).
func (h *Harness) RunFig10() Fig10Result {
	res := Fig10Result{Defaults: make(map[string]float64)}
	reps := float64(h.Opts.Replications)
	for _, short := range []string{"WC", "PR"} {
		w, err := sparksim.WorkloadByShort(short)
		if err != nil {
			panic(err)
		}
		srcEnv := h.EnvA(w, 0)
		target := h.EnvB(w, 0)
		pair := sparksim.PairLabel(w, 0)
		res.Defaults[pair] = target.DefaultTime()

		rows := map[string]*Fig10Row{}
		for _, tn := range TunerNames {
			rows[tn] = &Fig10Row{Pair: pair, Tuner: tn}
		}
		run := h.comparedTuners(srcEnv, target, 200)
		for s := int64(0); s < int64(h.Opts.Replications); s++ {
			for _, tn := range TunerNames {
				accumulate(rows[tn], run[tn](s), target.DefaultTime(), reps)
			}
		}
		for _, tn := range TunerNames {
			res.Rows = append(res.Rows, *rows[tn])
		}
	}
	return res
}

func accumulate(row *Fig10Row, rep *env.Report, defTime, reps float64) {
	row.Speedup += rep.Speedup(defTime) / reps
	row.Cost += rep.TotalCost() / reps
	row.BestTime += rep.BestTime / reps
}

// Fprint renders the hardware-adaptability results.
func (r Fig10Result) Fprint(w io.Writer) {
	writeRow(w, "Figure 10: adapting Cluster-A models to Cluster-B (clipped to hardware bounds)")
	writeRow(w, "%-8s %-10s %-10s %-12s %s", "pair", "tuner", "speedup", "best (s)", "total cost (s)")
	for _, row := range r.Rows {
		writeRow(w, "%-8s %-10s %-10.2f %-12.1f %.1f (default %.1fs)",
			row.Pair, row.Tuner, row.Speedup, row.BestTime, row.Cost, r.Defaults[row.Pair])
	}
}
