// Command deepcat-bench is the repository benchmark: four workloads that
// drive the tuner the way its users do, fifteen end-to-end metrics, and a
// traced mode that prices every layer from the SIMD kernel to the HTTP
// client. BENCHMARK.json records how it is run; README.md says why each
// workload and metric exists.
//
//	bash bench/run.sh --workload serve_spine --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -seed 1 -out DIR          # every workload, both modes
//	bash bench/run.sh -compare A/results.json B/results.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

var workloads = []string{"serve_inline", "serve_spine", "tune_pipeline", "lifecycle"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deepcat-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.StringVar(&cfg.Workload, "workload", "", "one of serve_inline, serve_spine, tune_pipeline, lifecycle; empty runs all four, traced and untraced, each in its own process")
	fs.Int64Var(&cfg.Seed, "seed", 1, "every generated input derives from it")
	fs.IntVar(&cfg.Seconds, "seconds", defaultSeconds, "nominal length of the timed phase; sets the fixed operation count")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics and the ledger, 0 = end-to-end metrics")
	fs.BoolVar(&cfg.Smoke, "smoke", false, "tiny sizes, for the unit tests")
	fs.StringVar(&cfg.Out, "out", "", "directory for run_<workload>[_traced].json, ledger_<workload>.json and results.json")
	compare := fs.Bool("compare", false, "compare two results.json files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Traced = *trace != 0

	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "deepcat-bench: -compare needs two results.json files")
			return 2
		}
		var breaches int
		if breaches, err = compareFiles(fs.Arg(0), fs.Arg(1), stdout); err == nil && breaches > 0 {
			return 1
		}
	case cfg.Workload == "":
		err = runSuite(cfg, stdout, stderr)
	default:
		var rec runRecord
		if rec, err = runWorkload(cfg, stdout); err == nil {
			err = rec.printResult(stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "deepcat-bench:", err)
		return 1
	}
	return 0
}

// runConfig is one invocation's arguments.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Traced   bool
	Smoke    bool
	Out      string
}

// sizes is the fixed amount of work of one run. Every run executes all
// three phases, because every run reports every metric: the phase a
// workload is named after runs first at full size, the other two follow as
// short probes.
type sizes struct {
	serve  serveSizes
	tune   tuneSizes
	life   lifeSizes
	ladder float64
}

// Probe sizes: long enough for steady medians, far shorter than a phase at
// home. The serve probe keeps 1000 rounds so its p99s are real.
var (
	serveProbe = serveSizes{Waves: 2, Warm: 40, Rounds: 250}
	tuneProbe  = tuneSizes{Models: 1, Iters: 1000, Sessions: 40}
	lifeProbe  = lifeSizes{Groups: 4, PerGroup: 2, SetupRounds: 32, Cycles: 30, Handoffs: 2, Creates: 2}
)

// sizesFor turns -seconds into operation counts. Counts, not deadlines, so
// both sides of an A/B replay identical session states; the per-second
// rates were measured at the defining commit on a 2-core sandbox, where a
// home phase then lasts about -seconds. Counts never drop below what a p99
// needs (1000 samples): the inline daemon manages ~35 rounds/s, so its
// home phase is pinned at that floor and outlasts -seconds.
func sizesFor(workload string, seconds int, smoke bool) (sizes, error) {
	if smoke {
		return sizes{
			serve:  serveSizes{Waves: 1, Warm: 3, Rounds: 3},
			tune:   tuneSizes{Models: 1, Iters: 80, Sessions: 2},
			life:   lifeSizes{Groups: 2, PerGroup: 1, SetupRounds: 3, Cycles: 2, Handoffs: 1, Creates: 1},
			ladder: 0.01,
		}, nil
	}
	if seconds < 1 {
		return sizes{}, fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	sz := sizes{serve: serveProbe, tune: tuneProbe, life: lifeProbe, ladder: 1}
	switch workload {
	case "serve_inline":
		sz.serve = serveSizes{Waves: 4, Warm: 40, Rounds: max(125, 4*seconds)}
	case "serve_spine":
		sz.serve = serveSizes{Waves: 4, Warm: 40, Rounds: max(125, 36*seconds)}
	case "tune_pipeline":
		sz.tune = tuneSizes{Models: 4, Iters: 64 + 62*seconds, Sessions: 3 * seconds}
	case "lifecycle":
		sz.life = lifeSizes{Groups: 8, PerGroup: 4, SetupRounds: 32, Cycles: max(32, 2*seconds), Handoffs: 8, Creates: 4}
	default:
		return sizes{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	return sz, nil
}
