// Command deepcat-tune runs DeepCAT's online tuning stage: it loads (or
// freshly trains) an offline model and fine-tunes it on a target workload,
// reporting each step, the best configuration found and the total tuning
// cost.
//
// Examples:
//
//	deepcat-tune -model ts-d1.model -workload TS -input 1
//	deepcat-tune -workload PR -input 1 -train-iters 2000      # train first
//	deepcat-tune -model a.model -workload WC -cluster b       # migrate
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"deepcat/internal/cli"
	"deepcat/internal/core"
	"deepcat/internal/env"
)

func main() {
	var ef cli.EnvFlags
	ef.Register(flag.CommandLine)
	var (
		model      = flag.String("model", "", "offline model file (from deepcat-train); empty trains fresh")
		trainIters = flag.Int("train-iters", 2000, "offline iterations when no -model is given")
		steps      = flag.Int("steps", 5, "online tuning steps")
		budget     = flag.Float64("budget", 0, "total tuning time budget in seconds (0 = none)")
		qth        = flag.Float64("qth", 0.3, "Twin-Q Optimizer threshold Q_th")
		noTwinQ    = flag.Bool("no-twinq", false, "disable the Twin-Q Optimizer")
	)
	flag.Parse()

	e, err := ef.Build()
	if err != nil {
		fatal(err)
	}
	// Models trained on Cluster A may recommend values outside Cluster B's
	// physical bounds; clamp per the paper's hardware-migration rule.
	if ef.Cluster == "b" {
		e.Clamp = true
	}

	var d *core.DeepCAT
	if *model != "" {
		d, err = core.LoadFile(*model, ef.Seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded model from %s\n", *model)
	} else {
		cfg := core.DefaultConfig(e.StateDim(), e.Space().Dim())
		d, err = core.New(rand.New(rand.NewSource(ef.Seed)), cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("no model given; offline training on %s for %d iterations...\n", e.Label(), *trainIters)
		d.OfflineTrain(e, *trainIters, nil)
	}

	d.Cfg.TwinQ.QTh = *qth
	d.Cfg.UseTwinQ = !*noTwinQ

	fmt.Printf("online tuning %s (default %.1fs, budget %d steps)...\n\n",
		e.Label(), e.DefaultTime(), *steps)
	rep, _ := env.RunOnline(context.Background(), d, e, env.Loop{Steps: *steps, BudgetSeconds: *budget})
	rep.Tuner = "DeepCAT"
	fmt.Print(rep.String())
	fmt.Printf("\nspeedup over default: %.2fx\n", rep.Speedup(e.DefaultTime()))
	fmt.Printf("total tuning cost: %.1fs (evaluation %.1fs + recommendation %.3fs)\n",
		rep.TotalCost(), rep.EvaluationCost(), rep.RecommendationCost())
	if rep.BestAction != nil {
		fmt.Printf("\nbest configuration found:\n%s", e.Space().Describe(e.Space().Denormalize(rep.BestAction)))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deepcat-tune:", err)
	os.Exit(1)
}
