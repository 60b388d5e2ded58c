// Package ottertune implements the OtterTune baseline (Van Aken et al.,
// SIGMOD 2017) as the paper evaluates it: a machine-learning pipeline that
// maps the target workload onto the most similar previously observed
// workload via internal metrics, fits a Gaussian-process surrogate over
// that workload's observations plus the target's own, and recommends the
// configuration maximizing Expected Improvement.
//
// The defining cost characteristic the paper measures in Fig. 7 is
// reproduced structurally: OtterTune retrains its GP from scratch at every
// online step, so its recommendation time is orders of magnitude above the
// DRL approaches' network inference.
package ottertune

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"deepcat/internal/analysis"
	"deepcat/internal/env"
	"deepcat/internal/gp"
	"deepcat/internal/mat"
)

// WorkloadData is one repository entry: the offline observations collected
// for a previously seen workload.
type WorkloadData struct {
	// Label names the workload ("TS-D1@cluster-a").
	Label string
	// X are normalized configurations; Y the execution times in seconds
	// (OtterTune regresses the raw performance metric).
	X [][]float64
	Y []float64
	// Signature is the workload's mean internal-metrics vector, used for
	// workload mapping.
	Signature []float64
	// DefaultTime is the workload's default-configuration time.
	DefaultTime float64
}

// Repository is OtterTune's store of historical tuning data.
type Repository struct {
	Workloads []WorkloadData
	// metricMean/metricStd standardize signatures before distance
	// computation.
	metricMean []float64
	metricStd  []float64
}

// BuildRepository samples each environment with n random configurations and
// assembles the repository OtterTune needs before it can tune anything (the
// paper feeds it "thousands of offline samples", §4.4).
func BuildRepository(rng *rand.Rand, envs []env.Environment, n int) *Repository {
	repo := &Repository{}
	for _, e := range envs {
		wd := WorkloadData{Label: e.Label(), DefaultTime: e.DefaultTime()}
		var sig []float64
		for i := 0; i < n; i++ {
			u := e.Space().RandomAction(rng)
			o := e.Evaluate(u)
			wd.X = append(wd.X, u)
			wd.Y = append(wd.Y, o.ExecTime)
			if sig == nil {
				sig = make([]float64, len(o.Metrics))
			}
			mat.AddTo(sig, sig, o.Metrics)
		}
		mat.ScaleTo(sig, 1/float64(n), sig)
		wd.Signature = sig
		repo.Workloads = append(repo.Workloads, wd)
	}
	repo.fitStandardizer()
	return repo
}

// fitStandardizer computes per-metric mean/std over the repository
// signatures.
func (r *Repository) fitStandardizer() {
	if len(r.Workloads) == 0 {
		return
	}
	dim := len(r.Workloads[0].Signature)
	r.metricMean = make([]float64, dim)
	r.metricStd = make([]float64, dim)
	for j := 0; j < dim; j++ {
		var col []float64
		for _, w := range r.Workloads {
			col = append(col, w.Signature[j])
		}
		r.metricMean[j] = mat.Mean(col)
		r.metricStd[j] = mat.Stddev(col)
		if r.metricStd[j] < 1e-9 {
			r.metricStd[j] = 1
		}
	}
}

// standardize maps a metrics vector into the repository's standardized
// space.
func (r *Repository) standardize(m []float64) []float64 {
	out := make([]float64, len(m))
	for j := range m {
		out[j] = (m[j] - r.metricMean[j]) / r.metricStd[j]
	}
	return out
}

// MapWorkload returns the index of the repository workload most similar to
// the target metrics signature (Euclidean distance in standardized metric
// space), excluding entries whose label matches excludeLabel (so a workload
// does not trivially map to its own repository entry when held out).
func (r *Repository) MapWorkload(targetSig []float64, excludeLabel string) int {
	best := -1
	bestD := math.Inf(1)
	ts := r.standardize(targetSig)
	for i, w := range r.Workloads {
		if w.Label == excludeLabel {
			continue
		}
		d := mat.Dist2(ts, r.standardize(w.Signature))
		if d < bestD {
			bestD = d
			best = i
		}
	}
	return best
}

// Config collects OtterTune's knobs.
type Config struct {
	// OnlineSteps is the online recommendation budget (5 in the paper).
	OnlineSteps int
	// Candidates is the number of random candidates scored by EI per step.
	Candidates int
	// LocalCandidates is the number of perturbations of the incumbent best
	// added to the candidate pool.
	LocalCandidates int
	// LocalSigma is the perturbation scale for local candidates.
	LocalSigma float64
	// TargetWeight duplicates target-workload observations in the GP
	// training set so fresh target data outweighs mapped history.
	TargetWeight int
	// Kernel hyper-parameters and observation noise for the GP.
	LengthScale float64
	Variance    float64
	Noise       float64
	// MaxGPSamples caps the GP training-set size for tractability; when the
	// mapped workload has more observations a random subset is used.
	MaxGPSamples int
	// TopKnobs, when positive, enables OtterTune's Lasso-based knob
	// selection: only the TopKnobs most important parameters (ranked on
	// the mapped workload's data) are tuned, the rest stay at their
	// defaults. Zero tunes the full space.
	TopKnobs int
	// RawUnits feeds the GP concrete knob values (GB, MB, counts) rather
	// than [0,1]-normalized coordinates, with the kernel length scale
	// selected by log-marginal-likelihood grid search — the behaviour of a
	// scikit-learn pipeline without per-knob scaling, which is how the
	// paper's OtterTune is implemented (§4.4). A single isotropic length
	// scale over heterogeneous units is dominated by the large-unit
	// memory knobs, which is the mechanism behind the paper's finding
	// that "the GP regression model is too simple to capture the complex
	// information" (§5.2.1). Setting RawUnits to false gives the stronger
	// normalized-unit variant measured by the extension benchmarks.
	RawUnits bool
}

// DefaultConfig returns the settings used in the experiments.
func DefaultConfig() Config {
	return Config{
		OnlineSteps:     5,
		Candidates:      300,
		LocalCandidates: 0,
		LocalSigma:      0.15,
		TargetWeight:    3,
		LengthScale:     0.8,
		Variance:        10000,
		Noise:           25,
		MaxGPSamples:    900,
		RawUnits:        true,
	}
}

// OtterTune is the baseline tuner bound to a repository.
type OtterTune struct {
	Cfg  Config
	Repo *Repository
	rng  *rand.Rand
}

// New constructs an OtterTune instance.
func New(rng *rand.Rand, repo *Repository, cfg Config) (*OtterTune, error) {
	if repo == nil || len(repo.Workloads) == 0 {
		return nil, fmt.Errorf("ottertune: empty repository")
	}
	if cfg.OnlineSteps <= 0 || cfg.Candidates <= 0 {
		return nil, fmt.Errorf("ottertune: non-positive step configuration")
	}
	return &OtterTune{Cfg: cfg, Repo: repo, rng: rng}, nil
}

// OnlineTune runs the online stage on environment e. Each step performs
// workload mapping, retrains the GP (the dominant recommendation cost),
// maximizes EI over a candidate pool and evaluates the winner. excludeLabel
// is the repository label to hold out (normally e.Label(); pass "" to allow
// self-mapping).
func (o *OtterTune) OnlineTune(e env.Environment, excludeLabel string) *env.Report {
	rep, _ := env.RunOnline(context.Background(), o.Session(e, excludeLabel), e, env.Loop{Steps: o.Cfg.OnlineSteps})
	rep.Tuner = "OtterTune"
	return rep
}

// Session is one online tuning session of OtterTune on one environment: the
// target's own observations, their running-mean metrics signature and the
// knob selection, all of which start empty for every tuning request.
type Session struct {
	o            *OtterTune
	e            env.Environment
	excludeLabel string
	obsX         [][]float64
	obsY         []float64
	obsMetrics   []float64
	sel          []int // selected knob indices when knob selection is on
}

// Session starts a tuning session on e, holding out the repository entry
// labelled excludeLabel.
func (o *OtterTune) Session(e env.Environment, excludeLabel string) *Session {
	return &Session{o: o, e: e, excludeLabel: excludeLabel}
}

// Suggest maps the target onto a repository workload, retrains the GP on
// the mapped history plus the target's observations and returns the
// candidate maximizing Expected Improvement. OtterTune ignores the system
// state and the failure flag.
func (s *Session) Suggest([]float64, bool) ([]float64, bool) {
	o, e := s.o, s.e
	// Workload mapping: use accumulated target metrics; before any
	// observation exists, fall back to matching by default time, which the
	// tuner knows from the standing system.
	var mappedIdx int
	if s.obsMetrics != nil {
		mappedIdx = o.Repo.MapWorkload(s.obsMetrics, s.excludeLabel)
	} else {
		mappedIdx = o.mapByDefaultTime(e.DefaultTime(), s.excludeLabel)
	}
	mapped := o.Repo.Workloads[mappedIdx]

	// Lasso knob selection (once per session, on the first mapped
	// workload's data): restrict the tuned dimensions to the most
	// important knobs, as OtterTune's pipeline does.
	if o.Cfg.TopKnobs > 0 && s.sel == nil {
		ranking, rerr := analysis.KnobImportance(e.Space(), mapped.X, mapped.Y, 0)
		if rerr == nil {
			s.sel = analysis.TopK(ranking, o.Cfg.TopKnobs)
		}
	}

	// Assemble GP training data: mapped history + weighted target
	// observations, projected onto the selected knobs when knob selection
	// is active and mapped into GP feature space.
	x, y := o.trainingSet(mapped, s.obsX, s.obsY)
	model, err := o.fitGP(e, projectAll(x, s.sel), y, s.sel)
	if err != nil {
		// Degenerate GP (should not happen): random fallback keeps the
		// session alive.
		return e.Space().RandomAction(o.rng), false
	}
	return o.maximizeEI(e, model, s.obsX, s.obsY, mapped, s.sel), false
}

// Learn adds the measurement to the target's observations and folds its
// internal metrics into the running-mean signature used for mapping.
func (s *Session) Learn(ob env.Observation) {
	n := float64(len(s.obsY))
	s.obsX = append(s.obsX, mat.CloneSlice(ob.Action))
	s.obsY = append(s.obsY, ob.Outcome.ExecTime)
	if s.obsMetrics == nil {
		s.obsMetrics = mat.CloneSlice(ob.Outcome.Metrics)
		return
	}
	for j := range s.obsMetrics {
		s.obsMetrics[j] = (s.obsMetrics[j]*n + ob.Outcome.Metrics[j]) / (n + 1)
	}
}

// mapByDefaultTime picks the repository workload with the closest default
// execution time; the cold-start mapping before target metrics exist.
func (o *OtterTune) mapByDefaultTime(def float64, excludeLabel string) int {
	best := 0
	bestD := math.Inf(1)
	for i, w := range o.Repo.Workloads {
		if w.Label == excludeLabel {
			continue
		}
		d := math.Abs(math.Log(w.DefaultTime) - math.Log(def))
		if d < bestD {
			bestD = d
			best = i
		}
	}
	return best
}

// trainingSet merges mapped-workload history (subsampled to MaxGPSamples)
// with TargetWeight copies of the target observations.
func (o *OtterTune) trainingSet(mapped WorkloadData, obsX [][]float64, obsY []float64) ([][]float64, []float64) {
	var x [][]float64
	var y []float64
	n := len(mapped.X)
	if n > o.Cfg.MaxGPSamples {
		perm := o.rng.Perm(n)[:o.Cfg.MaxGPSamples]
		for _, i := range perm {
			x = append(x, mapped.X[i])
			y = append(y, mapped.Y[i])
		}
	} else {
		x = append(x, mapped.X...)
		y = append(y, mapped.Y...)
	}
	for w := 0; w < o.Cfg.TargetWeight; w++ {
		for i := range obsX {
			x = append(x, obsX[i])
			// Tiny jitter on duplicated rows keeps the kernel matrix
			// comfortably positive definite.
			y = append(y, obsY[i])
		}
	}
	return x, y
}

// maximizeEI scores a pool of random and local candidates and returns the
// best by Expected Improvement (on log execution time).
func (o *OtterTune) maximizeEI(e env.Environment, model *gp.GP, obsX [][]float64, obsY []float64, mapped WorkloadData, sel []int) []float64 {
	// Incumbent for EI: the best observation seen (target first, else
	// mapped history). Local candidates are only generated around the
	// target's own observations — OtterTune recommends from its model, it
	// does not replay configurations out of the repository.
	best := math.Inf(1)
	var bestX []float64
	for i, yv := range obsY {
		if yv < best {
			best = yv
			bestX = obsX[i]
		}
	}
	if math.IsInf(best, 1) {
		for _, yv := range mapped.Y {
			if yv < best {
				best = yv
			}
		}
	}

	var bestEI float64 = -1
	var bestA []float64
	try := func(u []float64) {
		m, v := model.Predict(o.features(e, project(u, sel), sel))
		ei := gp.ExpectedImprovement(m, math.Sqrt(v), best)
		if ei > bestEI {
			bestEI = ei
			bestA = u
		}
	}
	for i := 0; i < o.Cfg.Candidates; i++ {
		try(o.candidate(e, sel))
	}
	if bestX != nil {
		for i := 0; i < o.Cfg.LocalCandidates; i++ {
			u := mat.CloneSlice(bestX)
			for j := range u {
				u[j] = mat.Clip(u[j]+o.Cfg.LocalSigma*o.rng.NormFloat64(), 0, 1)
			}
			try(u)
		}
	}
	if bestA == nil {
		bestA = o.candidate(e, sel)
	}
	return bestA
}

// fitGP trains the surrogate on the (possibly projected) sample matrix. In
// raw-unit mode the features are concrete knob values and the kernel length
// scale is chosen by log-marginal-likelihood grid search over scales
// spanning the units present; in normalized mode the configured fixed
// kernel is used.
func (o *OtterTune) fitGP(e env.Environment, x [][]float64, y []float64, sel []int) (*gp.GP, error) {
	if !o.Cfg.RawUnits {
		return gp.Fit(gp.Matern52{LengthScale: o.Cfg.LengthScale, Variance: o.Cfg.Variance},
			o.Cfg.Noise, x, y)
	}
	raw := make([][]float64, len(x))
	for i, u := range x {
		raw[i] = o.features(e, u, sel)
	}
	kernels := gp.LengthScaleGrid(1, 1e5, o.Cfg.Variance, 8)
	return gp.FitBest(kernels, o.Cfg.Noise, raw, y)
}

// features maps a (possibly projected) normalized sample into GP feature
// space: identity in normalized mode, concrete knob values in raw mode.
func (o *OtterTune) features(e env.Environment, u []float64, sel []int) []float64 {
	if !o.Cfg.RawUnits {
		return u
	}
	space := e.Space()
	out := make([]float64, len(u))
	if sel == nil {
		for j, v := range u {
			out[j] = space.Param(j).Denorm(v)
		}
		return out
	}
	for i, j := range sel {
		out[i] = space.Param(j).Denorm(u[i])
	}
	return out
}

// candidate draws a random candidate configuration: fully random without
// knob selection, otherwise the default configuration with only the
// selected knobs randomized.
func (o *OtterTune) candidate(e env.Environment, sel []int) []float64 {
	if sel == nil {
		return e.Space().RandomAction(o.rng)
	}
	u := e.Space().DefaultAction()
	for _, j := range sel {
		u[j] = o.rng.Float64()
	}
	return u
}

// project extracts the selected coordinates of u (or returns u when no
// selection is active).
func project(u []float64, sel []int) []float64 {
	if sel == nil {
		return u
	}
	out := make([]float64, len(sel))
	for i, j := range sel {
		out[i] = u[j]
	}
	return out
}

// projectAll maps project over a sample matrix.
func projectAll(x [][]float64, sel []int) [][]float64 {
	if sel == nil {
		return x
	}
	out := make([][]float64, len(x))
	for i, u := range x {
		out[i] = project(u, sel)
	}
	return out
}
