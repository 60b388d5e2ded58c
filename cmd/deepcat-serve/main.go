// Command deepcat-serve runs the tuning-as-a-service daemon: a long-lived
// process hosting many concurrent tuning sessions behind an HTTP/JSON API,
// checkpointing every session's agent and replay state to disk so a
// restart resumes mid-tuning.
//
// Example:
//
//	deepcat-serve -addr :8080 -data ./deepcat-data -max-sessions 64 \
//	    -warehouse ./deepcat-data/warehouse -metrics-addr 127.0.0.1:9090
//
// service.Assemble builds the daemon from the flags below (run with -h for
// their meaning); everything without a flag takes its library default. The
// optional parts are the experience warehouse (-warehouse), the ops
// listener for /metrics and /debug/pprof (-metrics-addr), the flight
// recorder (-trace-ring, -trace-dir), the actor/learner replay spine
// (-spine, -spine-learn-interval, -spine-queue), adaptive load shedding
// (-admission) and fleet sharding (-peers, -public-url, -fleet-proxy,
// -fleet-ship-interval, -fleet-seal-interval). README.md describes each.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains
// in-flight requests for up to -drain, checkpoints every session, flushes
// the warehouse and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"deepcat/internal/service"
)

// flags binds deepcat-serve's command line into cfg.
func flags(cfg *service.Config) *flag.FlagSet {
	fs := flag.NewFlagSet("deepcat-serve", flag.ExitOnError)
	fs.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.Data, "data", "deepcat-data", "checkpoint directory")
	fs.IntVar(&cfg.MaxSessions, "max-sessions", 64, "maximum live sessions (0 = unlimited)")
	fs.DurationVar(&cfg.Drain, "drain", 30*time.Second, "graceful-shutdown drain timeout")
	fs.StringVar(&cfg.MetricsAddr, "metrics-addr", "", "operations listen address serving /metrics and /debug/pprof (empty = disabled)")
	fs.StringVar(&cfg.LogLevel, "log-level", "info", "log level: debug, info, warn or error")
	fs.StringVar(&cfg.LogFormat, "log-format", "kv", "log line format: kv or json")
	fs.IntVar(&cfg.TraceRing, "trace-ring", 512, "per-session flight-recorder ring size (0 = tracing disabled)")
	fs.StringVar(&cfg.TraceDir, "trace-dir", "", "directory for per-session trace spools (empty = ring only)")
	fs.BoolVar(&cfg.Spine, "spine", false, "actor/learner mode: sessions enqueue experience into a shared replay spine and adopt weights from per-family learners instead of training inline")
	fs.DurationVar(&cfg.SpineLearnInterval, "spine-learn-interval", 2*time.Second, "background learner pass period (0 = learners run only on demand)")
	fs.IntVar(&cfg.SpineQueue, "spine-queue", 0, "bounded ingest-queue capacity in flush batches: sessions enqueue experience asynchronously and the spine sheds oldest low-priority batches under overload (0 = synchronous ingest)")
	fs.StringVar(&cfg.Warehouse, "warehouse", "", "experience warehouse directory (empty = disabled)")
	fs.BoolVar(&cfg.Admission, "admission", false, "adaptive AIMD load shedding: guarded endpoints answer 429 + Retry-After when the concurrency limit is hit, with priority headroom (suggest > observe > admin)")
	fs.StringVar(&cfg.Peers, "peers", "", "comma-separated fleet member base URLs, including this node's -public-url (empty = standalone)")
	fs.StringVar(&cfg.PublicURL, "public-url", "", "this node's advertised base URL, e.g. http://10.0.0.3:8080 (required with -peers)")
	fs.BoolVar(&cfg.FleetProxy, "fleet-proxy", false, "forward misrouted requests server-side instead of 307-redirecting")
	fs.DurationVar(&cfg.FleetShipInterval, "fleet-ship-interval", 5*time.Second, "warehouse segment replication pull period")
	fs.DurationVar(&cfg.FleetSealInterval, "fleet-seal-interval", 30*time.Second, "active warehouse segment force-seal period")
	return fs
}

func main() {
	var cfg service.Config
	_ = flags(&cfg).Parse(os.Args[1:]) // ExitOnError: a bad flag exits here
	d, err := service.Assemble(cfg)
	if err != nil {
		fatal(err)
	}
	if d.Ops != nil {
		d.Ops.HandleFunc("/debug/pprof/", pprof.Index)
		d.Ops.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		d.Ops.HandleFunc("/debug/pprof/profile", pprof.Profile)
		d.Ops.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		d.Ops.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- d.Server.ListenAndServe() }()
	fmt.Printf("deepcat-serve listening on %s (checkpoints in %s, max %d sessions)\n",
		cfg.Addr, cfg.Data, cfg.MaxSessions)
	d.Start()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("shutting down: draining in-flight requests...")
	if err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "deepcat-serve:", err)
	}
	fmt.Println("all sessions checkpointed; bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deepcat-serve:", err)
	os.Exit(1)
}
