package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"

	"coolair/internal/experiments"
	"coolair/internal/sim"
	"coolair/internal/store"
	"coolair/internal/trace"
	"coolair/internal/trace/httpserve"
	"coolair/internal/trace/series"
)

// The daemon is always a fleet: one daemon, N managed sites. Every
// site gets its own ring, supervisor, and (with -state-dir) store
// shard; all sites share one model lab (train once per fidelity,
// deploy fleet-wide — the paper's worldwide-deployment story), one
// wall-clock anchor, and one bounded worker pool so a 64-site fleet on
// an 8-core box interleaves instead of thrashing. Site failures are
// isolated: a panicking site burns through its own restart budget and
// circuit breaker while the rest of the fleet keeps serving.
//
// Without -fleet the daemon is a fleet of one, built from
// -location/-system, that keeps the single-site surface and on-disk
// layout: its plane is mounted at "" (the root URLs), it takes the
// default ring and series sizing, its run state lives in the root
// registry rather than a shard, and its site ID is "".

// fleetSite is one site's runtime assembly.
type fleetSite struct {
	spec experiments.FleetSite
	ring *trace.Ring
	sup  *supervisor
}

// fleet owns the per-site supervisors and the shared infrastructure.
type fleet struct {
	cfg    serveConfig
	single bool // no -fleet spec: one site, mounted at the root
	sites  []*fleetSite
	pool   *sim.WorkerPool
	logger *slog.Logger
}

// siteSpecs resolves the site list: the -fleet spec's sites, or
// without one the single site named by -location/-system.
func siteSpecs(cfg serveConfig) ([]experiments.FleetSite, error) {
	if cfg.fleetSpec != "" {
		specs, err := experiments.ParseFleetSpec(cfg.fleetSpec)
		if err != nil {
			return nil, fmt.Errorf("-fleet: %w", err)
		}
		return specs, nil
	}
	cl, ok := experiments.ClimateByName(cfg.location)
	if !ok {
		return nil, fmt.Errorf("unknown location %q", cfg.location)
	}
	sys, ok := experiments.SystemByName(cfg.system)
	if !ok {
		return nil, fmt.Errorf("unknown system %q", cfg.system)
	}
	return []experiments.FleetSite{{Climate: cl, System: sys}}, nil
}

// newFleet resolves the sites and assembles each one's supervisor:
// shared lab and model registry, per-site run-state registry, fault
// plan, and a pool-gated clock on the shared anchor.
func newFleet(cfg serveConfig, logger *slog.Logger) (*fleet, error) {
	specs, err := siteSpecs(cfg)
	if err != nil {
		return nil, err
	}
	single := cfg.fleetSpec == ""

	var reg *store.Registry
	if cfg.stateDir != "" {
		r, err := store.Open(cfg.stateDir)
		if err != nil {
			return nil, err
		}
		reg = r
		logger.Info("state plane enabled", "dir", reg.Dir(),
			"checkpoint_every_sim_s", cfg.checkpointEvery, "sharded", !single)
	}
	lab := experiments.NewLab()
	lab.Store = reg
	lab.Logger = logger
	wl, ok := lab.WorkloadByName(cfg.workloadName)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workloadName)
	}

	workers := cfg.fleetWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := sim.NewWorkerPool(workers)
	// One shared anchor: every site paces against the same wall-to-sim
	// mapping, so the fleet marches through the simulated day together.
	var shared sim.Clock
	if cfg.speed > 0 {
		shared = sim.NewScaledClock(cfg.speed)
	}

	f := &fleet{cfg: cfg, single: single, pool: pool, logger: logger}
	for _, spec := range specs {
		siteCfg := cfg
		if cfg.faultSeed != 0 {
			// Per-site fault plans: same campaign shape, offset seeds.
			siteCfg.faultSeed = cfg.faultSeed + spec.Seed
		}
		if cfg.chaosSite != "" && cfg.chaosSite != spec.ID {
			siteCfg.chaosPanicAfter = 0 // chaos targets one site only
		}

		runReg, siteLogger := reg, logger
		if !single {
			siteLogger = logger.With("site", spec.ID)
			if reg != nil {
				shard, err := reg.Shard(spec.ID)
				if err != nil {
					return nil, fmt.Errorf("site %s: %w", spec.ID, err)
				}
				runReg = shard
			}
		}

		sup, err := newSupervisor(siteCfg, spec, wl, reg, runReg, lab, pool.Gate(shared), siteLogger)
		if err != nil {
			return nil, fmt.Errorf("site %s: %w", spec.ID, err)
		}
		f.sites = append(f.sites, &fleetSite{spec: spec, ring: sup.ring, sup: sup})
	}
	logger.Info("fleet assembled", "sites", len(f.sites), "workers", pool.Size())
	return f, nil
}

// mount registers the daemon's HTTP surface. A fleet of one mounts its
// site plane at the root (process telemetry on its /metrics page); a
// multi-site fleet mounts the per-site planes under /sites/<id>/ plus
// the JSON listing, the combined metrics page, the fleet-scope
// readiness and query/alert endpoints. Both get the dashboard, the
// liveness probe, and pprof. proc may be nil (tests).
func (f *fleet) mount(mux *http.ServeMux, proc *trace.Proc) {
	if f.single {
		s := f.sites[0]
		httpserve.MountSitePlane(mux, "", httpserve.SitePlane{
			Ring: s.ring, Ready: s.sup.ready, DB: s.sup.db, Alerts: s.sup.alerts, Proc: proc,
		})
	} else {
		for _, s := range f.sites {
			httpserve.MountSitePlane(mux, "/sites/"+s.spec.ID, httpserve.SitePlane{
				Ring: s.ring, Ready: s.sup.ready, DB: s.sup.db, Alerts: s.sup.alerts,
			})
		}
		mux.Handle("/sites", httpserve.Gzip(httpserve.SitesHandler(f.snapshot)))
		mux.Handle("/metrics", httpserve.Gzip(httpserve.FleetMetricsHandler(f.series, proc)))
		mux.Handle("/api/query", httpserve.Cached(httpserve.DefaultQueryCacheTTL,
			httpserve.Gzip(httpserve.FleetQueryHandler(f.dbs, f.now))))
		mux.Handle("/api/alerts", httpserve.Cached(httpserve.DefaultQueryCacheTTL,
			httpserve.Gzip(httpserve.FleetAlertsHandler(f.engines))))
		mux.Handle("/readyz", httpserve.ReadyHandler(f.ready))
	}
	mux.Handle("/dashboard", httpserve.DashboardHandler())
	mux.Handle("/healthz", httpserve.HealthHandler())
	mux.Handle("/debug/pprof/", httpserve.PprofMux())
}

// dbs snapshots the per-site series stores for the fleet query plane.
func (f *fleet) dbs() map[string]*series.DB {
	out := make(map[string]*series.DB, len(f.sites))
	for _, s := range f.sites {
		out[s.spec.ID] = s.sup.db
	}
	return out
}

// engines snapshots the per-site alert engines.
func (f *fleet) engines() map[string]*series.Engine {
	out := make(map[string]*series.Engine, len(f.sites))
	for _, s := range f.sites {
		out[s.spec.ID] = s.sup.alerts
	}
	return out
}

// now is the fleet's sim time: the furthest site's clock (sites march
// together on the shared anchor; a crashed site must not pin "now" in
// the past).
func (f *fleet) now() float64 {
	var max float64
	for _, s := range f.sites {
		if t := s.ring.Metrics().SimTimeSeconds.Value(); t > max {
			max = t
		}
	}
	return max
}

// snapshot builds the /sites rows in boot order.
func (f *fleet) snapshot() []httpserve.SiteStatus {
	out := make([]httpserve.SiteStatus, 0, len(f.sites))
	for _, s := range f.sites {
		met := s.ring.Metrics()
		ready, reason := s.sup.ready()
		cur := s.ring.Cursor()
		out = append(out, httpserve.SiteStatus{
			ID:        s.spec.ID,
			Location:  s.spec.Climate.Name,
			System:    s.spec.System.Name,
			Seed:      s.spec.Seed,
			Mode:      serveMode(s.sup.mode.Load()).String(),
			Ready:     ready,
			Reason:    reason,
			Regime:    int(met.ActiveRegime.Value()),
			SimTime:   met.SimTimeSeconds.Value(),
			Cursor:    fmt.Sprintf("%d-%d", cur.Decisions, cur.Ticks),
			Decisions: met.DecisionsTotal.Value(),
			Restarts:  met.RestartsTotal.Value(),
		})
	}
	return out
}

// series feeds the combined /metrics page.
func (f *fleet) series() []trace.SiteSeries {
	out := make([]trace.SiteSeries, 0, len(f.sites))
	for _, s := range f.sites {
		ready, _ := s.sup.ready()
		out = append(out, trace.SiteSeries{Site: s.spec.ID, Ready: ready, Reg: s.ring.Metrics()})
	}
	return out
}

// ready answers the fleet-level readiness probe: 200 only when every
// site is ready, with a not-ready census as the 503 body otherwise.
func (f *fleet) ready() (bool, string) {
	ready := 0
	for _, s := range f.sites {
		if ok, _ := s.sup.ready(); ok {
			ready++
		}
	}
	if ready == len(f.sites) {
		return true, ""
	}
	return false, fmt.Sprintf("%d/%d sites ready", ready, len(f.sites))
}

// run drives every site's supervised loop to completion (or ctx
// cancellation). Site failures are contained: a site whose loop returns
// an error is marked stopped (its mode and reason explain it on /sites
// and /readyz) and the rest of the fleet runs on — run never kills the
// daemon for one site's misconfiguration.
func (f *fleet) run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range f.sites {
		wg.Add(1)
		go func(s *fleetSite) {
			defer wg.Done()
			err := s.sup.loop(ctx)
			if err != nil && !errors.Is(err, context.Canceled) {
				s.sup.setMode(modeCrashLoop, fmt.Sprintf("stopped: %v", err))
				f.logger.Error("site run loop failed, site stopped", "site", s.spec.ID, "err", err)
			}
		}(s)
	}
	wg.Wait()
	if ctx.Err() == nil {
		f.logger.Info("fleet complete, telemetry plane stays up until signal")
	}
}
