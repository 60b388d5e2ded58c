package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"deepcat/internal/admission"
	"deepcat/internal/fleet"
	"deepcat/internal/obs"
	"deepcat/internal/spine"
	"deepcat/internal/warehouse"
)

// The daemon's settings that differ from a library's zero value. The HTTP
// deadlines keep one stalled or malicious client from pinning a connection
// (and its goroutine) forever; request handling itself is bounded by the
// per-request contexts the handlers plumb down.
const (
	warehouseTrainInterval = time.Minute
	readHeaderTimeout      = 5 * time.Second
	readTimeout            = 30 * time.Second
	idleTimeout            = 2 * time.Minute
)

// Config is deepcat-serve's command line, one field per flag. Everything
// the daemon does not expose takes its library default: DefaultResilience,
// spine.Options, warehouse.Options, admission.Config and fleet.Config with
// zero fields, and DefaultSpineAdoptEvery.
type Config struct {
	Addr        string        // tuning listen address
	Data        string        // checkpoint directory
	MaxSessions int           // live-session cap (0 = unlimited)
	Drain       time.Duration // graceful-shutdown drain timeout

	MetricsAddr string // ops listener for /metrics and /debug/pprof ("" = off)
	LogLevel    string // debug, info, warn or error
	LogFormat   string // kv or json

	TraceRing int    // per-session flight-recorder ring (0 = tracing off)
	TraceDir  string // per-session trace spools ("" = ring only)

	Spine              bool          // actor/learner mode
	SpineLearnInterval time.Duration // background learner period (0 = on demand)
	SpineQueue         int           // bounded ingest queue in batches (0 = synchronous)

	Warehouse string // experience warehouse directory ("" = off)
	Admission bool   // adaptive AIMD load shedding

	Peers             string        // comma-separated fleet members ("" = standalone)
	PublicURL         string        // this node's advertised base URL
	FleetProxy        bool          // proxy misrouted requests instead of 307
	FleetShipInterval time.Duration // warehouse segment pull period
	FleetSealInterval time.Duration // active segment force-seal period
}

// Daemon is one assembled deepcat-serve. The caller serves Server (the
// tuning API on Config.Addr), calls Start once it is serving, and Close on
// shutdown.
type Daemon struct {
	Manager *Manager
	Server  *http.Server
	// Ops is the handler on Config.MetricsAddr (nil when that is empty):
	// /metrics, plus the net/http/pprof routes the binary adds. pprof
	// stays out of this package because linking runtime/pprof keeps the
	// runtime's memory profiler on in every program that imports it.
	Ops *http.ServeMux

	log     *obs.Logger
	drain   time.Duration
	ops     *http.Server
	wh      *warehouse.Warehouse
	spn     *spine.Spine
	router  *fleet.Router
	shipper *fleet.Shipper
}

// Assemble builds the daemon cfg describes: store, manager, metrics and
// logger, flight recorder, warehouse, spine (warm-started from the
// warehouse WAL), admission, fleet router and segment shipper, the resumed
// sessions, the tuning handler and the ops listener. Nothing listens yet.
// On error everything already opened is closed again.
func Assemble(cfg Config) (d *Daemon, err error) {
	level, err := obs.ParseLevel(cfg.LogLevel)
	if err != nil {
		return nil, err
	}
	format, err := obs.ParseFormat(cfg.LogFormat)
	if err != nil {
		return nil, err
	}
	if cfg.Peers != "" && cfg.PublicURL == "" {
		return nil, errors.New("-peers requires -public-url")
	}
	logger := obs.NewLoggerFormat(os.Stderr, level, format)
	// The registry only exists when something will scrape it; without it
	// every instrument in the stack is nil and recording is a nil check.
	// A fleet member is always scrapeable: peers' /v1/fleet/metrics
	// aggregation pulls its /v1/metrics/snapshot on the tuning port.
	var reg *obs.Registry
	if cfg.MetricsAddr != "" || cfg.Peers != "" {
		reg = obs.NewRegistry()
	}

	store, err := NewFSStore(cfg.Data)
	if err != nil {
		return nil, err
	}
	d = &Daemon{Manager: NewManager(store, cfg.MaxSessions), log: logger, drain: cfg.Drain}
	defer func() {
		if err != nil {
			d.Close()
			d = nil
		}
	}()
	m := d.Manager
	m.AttachObs(reg, logger)
	if cfg.TraceRing > 0 {
		if cfg.TraceDir != "" {
			if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
				return d, err
			}
		}
		m.AttachTrace(TraceConfig{RingSize: cfg.TraceRing, Dir: cfg.TraceDir})
		logger.Info("flight recorder on", "ring", cfg.TraceRing, "dir", cfg.TraceDir)
	}
	if cfg.Warehouse != "" {
		d.wh, err = warehouse.Open(warehouse.Options{
			Dir: cfg.Warehouse, TrainInterval: warehouseTrainInterval, Registry: reg, Logger: logger,
		})
		if err != nil {
			return d, err
		}
		m.AttachWarehouse(d.wh) // Open logs what it recovered
	}
	if cfg.Spine {
		d.spn = spine.New(spine.Options{
			LearnInterval: cfg.SpineLearnInterval, QueueCapacity: cfg.SpineQueue, Registry: reg, Logger: logger,
		})
		m.AttachSpine(SpineConfig{Spine: d.spn})
		// The spine is memory-only; replaying the warehouse WAL into it at
		// boot means the learner pool resumes from the fleet's history
		// instead of an empty ring.
		logger.Info("actor/learner spine on", "learn_interval", cfg.SpineLearnInterval,
			"queue", cfg.SpineQueue, "warmed", WarmSpineFromWarehouse(d.spn, d.wh))
	}
	var adm *admission.Limiter
	if cfg.Admission {
		adm = admission.New(admission.Config{})
		logger.Info("adaptive admission control on")
	}
	if cfg.Peers != "" {
		d.router, err = fleet.NewRouter(fleet.Config{
			Self: cfg.PublicURL, Peers: strings.Split(cfg.Peers, ","), Registry: reg, Logger: logger,
		})
		if err != nil {
			return d, err
		}
		// With every member's -data on one shared directory, only resume
		// the sessions this shard owns; the rest are peers' to serve.
		m.SetOwned(d.router.Owns)
		if d.wh != nil {
			d.shipper, err = fleet.NewShipper(fleet.ShipperConfig{
				Warehouse: d.wh, Router: d.router, Interval: cfg.FleetShipInterval,
				SealInterval: cfg.FleetSealInterval, Registry: reg, Logger: logger,
			})
			if err != nil {
				return d, err
			}
		}
		logger.Info("fleet member", "self", cfg.PublicURL, "peers", len(d.router.Peers()))
	}

	resumed, rerr := m.Resume()
	if rerr != nil {
		logger.Warn("some checkpoints not resumed", "err", rerr)
	}
	logger.Info("sessions resumed", "n", resumed, "dir", store.Dir())

	d.Server = &http.Server{
		Addr:              cfg.Addr,
		Handler:           NewFleetServer(m, FleetOptions{Router: d.router, Proxy: cfg.FleetProxy, Admission: adm}),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	if cfg.MetricsAddr != "" {
		d.Ops = http.NewServeMux()
		d.Ops.Handle("/metrics", reg.Handler())
		d.ops = &http.Server{
			Addr:              cfg.MetricsAddr,
			Handler:           d.Ops,
			ReadHeaderTimeout: readHeaderTimeout,
			// No ReadTimeout here: pprof profile captures legitimately hold
			// the request open for their whole -seconds duration.
			IdleTimeout: idleTimeout,
		}
	}
	return d, nil
}

// Start begins peer probing, segment shipping and the ops listener. Call
// it once Server is serving, so peers' probes and pulls against this node
// race nothing.
func (d *Daemon) Start() {
	if d.router != nil {
		d.router.Start()
	}
	if d.shipper != nil {
		d.shipper.Start()
	}
	if d.ops != nil {
		go func() {
			if err := d.ops.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				// The ops listener failing must not take tuning down with
				// it; losing observability is an error, not an outage.
				d.log.Error("metrics listener failed", "addr", d.ops.Addr, "err", err)
			}
		}()
		d.log.Info("ops listener on", "addr", d.ops.Addr)
	}
}

// Close shuts the daemon down: shipping and probing stop, Server drains
// in-flight requests for up to Config.Drain, the ops listener closes, every
// session is checkpointed, and the spine and warehouse flush.
func (d *Daemon) Close() error {
	if d.shipper != nil {
		d.shipper.Close()
	}
	if d.router != nil {
		d.router.Close()
	}
	var errs []error
	if d.Server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), d.drain)
		defer cancel()
		if err := d.Server.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
		}
	}
	if d.ops != nil {
		d.ops.Close()
	}
	if err := d.Manager.CheckpointAll(); err != nil {
		errs = append(errs, fmt.Errorf("final checkpoint: %w", err))
	}
	if d.spn != nil {
		d.spn.Close()
	}
	if d.wh != nil {
		if err := d.wh.Close(); err != nil {
			errs = append(errs, fmt.Errorf("warehouse close: %w", err))
		}
	}
	return errors.Join(errs...)
}
