// Command coolair-serve runs managed datacenters — one site, or a
// -fleet of them — as a long-running daemon with a live telemetry
// plane: each simulation is paced by a wall clock (real time, scaled,
// or as fast as possible) and feeds its flight-recorder ring, which the
// HTTP side exposes as Prometheus metrics, health/readiness probes, a
// Server-Sent-Events stream of decision records, and /debug/pprof.
//
//	coolair-serve -location newark -system all-nd -year -speed 3600
//	curl localhost:8080/metrics
//	curl -N localhost:8080/stream
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: the run loop stops
// at the next physics step and in-flight HTTP streams are drained.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"coolair/internal/trace"
	"coolair/internal/trace/httpserve"

	"log/slog"
)

// serveConfig is the daemon's parsed command line (a struct so the
// in-process tests can run the daemon without exec).
type serveConfig struct {
	addr         string
	location     string
	system       string
	workloadName string
	days         int
	startDay     int
	year         bool
	speed        float64 // simulated seconds per wall second; 0 = max
	guard        bool

	// State plane (the crash-safety flags).
	stateDir        string  // snapshot registry directory; "" disables persistence
	checkpointEvery float64 // simulated seconds between run-state checkpoints
	maxRestarts     int     // panics tolerated before the circuit breaker opens
	restartBackoff  time.Duration
	addrFile        string // write the bound address here (exec-based tests)

	// Fleet mode: a non-empty spec turns the daemon multi-tenant.
	fleetSpec    string // experiments.ParseFleetSpec grammar; "" = single site
	fleetWorkers int    // bounded worker-pool size; 0 = GOMAXPROCS

	// Chaos knobs (deterministic fault/crash injection for the tests).
	faultSeed       int64
	chaosPanicAfter int
	chaosPanicCount int
	chaosSite       string // fleet mode: the one site -chaos-panic-after targets ("" = all)
}

func main() {
	var cfg serveConfig
	flag.StringVar(&cfg.addr, "addr", "localhost:8080", "HTTP listen address for the telemetry plane")
	flag.StringVar(&cfg.location, "location", "newark", "newark|chad|santiago|iceland|singapore")
	flag.StringVar(&cfg.system, "system", "all-nd", "baseline|temperature|energy|variation|all-nd|all-def|energy-def")
	flag.StringVar(&cfg.workloadName, "workload", "facebook", "facebook|nutch")
	flag.IntVar(&cfg.days, "days", 7, "number of consecutive days to simulate")
	flag.IntVar(&cfg.startDay, "start", 150, "first day of year (0-based)")
	flag.BoolVar(&cfg.year, "year", false, "simulate the paper's 52-day year sample instead of -days")
	flag.Float64Var(&cfg.speed, "speed", 0, "simulated seconds per wall second (1 = real time, 3600 = an hour per second; 0 = as fast as possible)")
	flag.BoolVar(&cfg.guard, "guard", false, "wrap the controller in the sanitizing fail-safe guard")
	flag.StringVar(&cfg.stateDir, "state-dir", "", "snapshot directory: trained models and run-state checkpoints survive restarts (empty disables)")
	flag.Float64Var(&cfg.checkpointEvery, "checkpoint-every", 900, "simulated seconds between run-state checkpoints (with -state-dir)")
	flag.IntVar(&cfg.maxRestarts, "max-restarts", 5, "run-loop panics tolerated before the crash-loop circuit breaker opens")
	flag.DurationVar(&cfg.restartBackoff, "restart-backoff", 500*time.Millisecond, "initial restart backoff after a run-loop panic (doubles per restart, jittered)")
	flag.StringVar(&cfg.addrFile, "addr-file", "", "write the bound HTTP address to this file after listening")
	flag.StringVar(&cfg.fleetSpec, "fleet", "", "multi-site fleet spec, e.g. world:16 or newark:all-nd:4,chad:baseline or @file (empty = single site)")
	flag.IntVar(&cfg.fleetWorkers, "fleet-workers", 0, "fleet worker-pool size: max sites computing a physics step concurrently (0 = GOMAXPROCS)")
	flag.Int64Var(&cfg.faultSeed, "fault-seed", 0, "inject a deterministic sensor-fault plan derived from this seed (0 disables)")
	flag.IntVar(&cfg.chaosPanicAfter, "chaos-panic-after", 0, "inject a controller panic after this many decisions (0 disables; testing only)")
	flag.IntVar(&cfg.chaosPanicCount, "chaos-panic-count", 1, "how many times -chaos-panic-after fires before disarming")
	flag.StringVar(&cfg.chaosSite, "chaos-site", "", "fleet mode: restrict -chaos-panic-after to this site id (empty = every site)")
	logFormat := flag.String("log", "text", "log format: text|json")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	var handler slog.Handler
	if *logFormat == "json" {
		handler = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	} else {
		handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	}
	logger := slog.New(handler)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, cfg, logger, func(addr string) {
		logger.Info("telemetry plane listening", "addr", addr,
			"endpoints", "/metrics /healthz /readyz /stream /api/query /api/alerts /dashboard /debug/pprof/")
	}); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
}

// run assembles the fleet (without -fleet, a fleet of one site built
// from -location/-system), binds the HTTP plane, boots every site's
// supervised run loop, and blocks until the context is cancelled
// (signal). The HTTP plane stays up after the sites complete (or
// circuit-break) so the final state remains inspectable; onListen (may
// be nil) receives the bound address.
func run(ctx context.Context, cfg serveConfig, logger *slog.Logger, onListen func(addr string)) error {
	f, err := newFleet(cfg, logger)
	if err != nil {
		return err
	}
	proc := trace.NewProc(buildVersion())
	proc.Start(ctx, 0)
	mux := http.NewServeMux()
	f.mount(mux, proc)

	// Bind before booting the run loops: /healthz answers (and bind
	// errors surface) while snapshots restore or the model campaign runs.
	srv, err := httpserve.Start(cfg.addr, mux)
	if err != nil {
		return err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Warn("http shutdown", "err", err)
		}
	}()
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(srv.Addr()), 0o644); err != nil {
			return fmt.Errorf("write -addr-file: %w", err)
		}
	}
	if onListen != nil {
		onListen(srv.Addr())
	}

	done := make(chan struct{})
	go func() {
		f.run(ctx)
		close(done)
	}()
	<-ctx.Done()
	logger.Info("shutdown signal received, stopping simulation")
	// The run loops observe the same ctx; wait for them to unwind so
	// their recorder emissions stop before the HTTP plane drains.
	<-done
	return nil
}

// buildVersion labels the coolair_build_info series from the binary's
// embedded module info ("dev" for unstamped builds).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "dev"
}
