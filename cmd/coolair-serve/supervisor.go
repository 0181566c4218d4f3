package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"coolair/internal/control"
	"coolair/internal/cooling"
	"coolair/internal/experiments"
	"coolair/internal/faults"
	"coolair/internal/sim"
	"coolair/internal/store"
	"coolair/internal/trace"
	"coolair/internal/trace/series"
	"coolair/internal/weather"
	"coolair/internal/workload"
)

// serveMode is the daemon's lifecycle state, exported as the serve_mode
// gauge (the codes are part of the metrics contract — see the gauge's
// help text).
type serveMode int32

const (
	// modeBooting: assembling the run (no snapshot involved yet).
	modeBooting serveMode = iota
	// modeRestoring: loading verified snapshots (model, run state).
	modeRestoring
	// modeDegraded: no trusted model — a training campaign runs in the
	// background while a TKS fail-safe baseline serves decisions into
	// the ring. /readyz stays 503 with this reason.
	modeDegraded
	// modeRunning: the managed run loop is live (readiness flips 200
	// once the first decision lands).
	modeRunning
	// modeCrashLoop: the restart circuit breaker opened; the run loop is
	// stopped but the HTTP plane stays up for observability.
	modeCrashLoop
	// modeComplete: the simulation finished cleanly; the plane stays up
	// (and /readyz stays 200) so the final state remains inspectable —
	// a fleet listing distinguishes a finished site from a live one.
	modeComplete
)

func (m serveMode) String() string {
	switch m {
	case modeBooting:
		return "booting"
	case modeRestoring:
		return "restoring"
	case modeDegraded:
		return "degraded"
	case modeRunning:
		return "running"
	case modeCrashLoop:
		return "crash-loop"
	case modeComplete:
		return "complete"
	}
	return fmt.Sprintf("mode(%d)", int32(m))
}

// panicError wraps a recovered run-loop panic so the supervisor can
// tell "the run loop crashed" (restart with backoff) from "the run
// failed" (configuration or simulation errors propagate and end the
// daemon).
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string { return fmt.Sprintf("run loop panic: %v", p.val) }

// supervisor owns the daemon's crash-safe run loop: it boots the
// simulation (restoring model and run-state snapshots when the state
// directory has them), converts panics into recorded fail-safe events,
// restarts with jittered exponential backoff, and opens a circuit
// breaker instead of crash-looping forever.
type supervisor struct {
	cfg    serveConfig
	cl     weather.Climate
	sys    experiments.System
	wl     *workload.Trace
	days   []int
	ring   *trace.Ring
	reg    *store.Registry // nil without -state-dir
	runReg *store.Registry // run-state home: reg, or a per-site shard in a multi-site fleet
	lab    *experiments.Lab
	inj    *faults.Injector
	logger *slog.Logger

	// Fleet identity: site is the fleet site id ("" for the single-site
	// daemon; stamped on run-state snapshots and in the fingerprint),
	// siteSeed offsets the fault plan, and clock is the site's pool-gated
	// view of the fleet's shared clock — its slot is released whenever a
	// run attempt exits so a finished or crashed site cannot starve the
	// pool.
	site     string
	siteSeed int64
	clock    *sim.GatedClock

	// Time-series plane: the collector tees the run's records into the
	// ring and folds them into the site's series store, where the alert
	// engine scores the SLO rules. The run loop records through the
	// collector, never the ring directly.
	db        *series.DB
	alerts    *series.Engine
	collector *series.Collector
	// seriesRestored: the series blob is consulted once per process —
	// in-process restarts keep the live in-memory history, which is
	// fresher than any snapshot.
	seriesRestored bool
	// lastSeriesSave wall-throttles series snapshots (encoding the
	// whole plane is heavier than a run-state checkpoint, and at high
	// sim speeds checkpoints land several times per wall second).
	// lastSeriesFired/lastSeriesFiring record the alert engine's
	// transition counters at the last save so an alert state change
	// bypasses the throttle — history can afford to lag a few
	// seconds, alert transitions cannot.
	lastSeriesSave   time.Time
	lastSeriesFired  uint64
	lastSeriesFiring int

	mode     atomic.Int32
	reasonMu sync.Mutex
	reason   string

	// modelCounted: the model-provenance counters are bumped once per
	// process (an in-process restart reuses the lab's cached model — no
	// new campaign, no new restore).
	modelCounted bool
	// modelResolved: the lab already holds the model, so a restart takes
	// the warm path without consulting the registry again.
	modelResolved bool
	// chaosRemaining arms the injected-panic wrapper (chaos flags).
	chaosRemaining int
}

// Fleet rings are smaller than the single-site default (4096/16384):
// a DecisionRecord is ~3 KB, so 64 default rings would hold ~1 GB.
// 512 decisions cover several simulated hours of scrollback per site.
const (
	fleetRingDecisions = 512
	fleetRingTicks     = 4096
)

// newSupervisor assembles one site's supervisor: the workload its
// system runs (wl is the fleet's base trace), day schedule, fault plan,
// and the fleet's shared model lab, so N sites train — or restore —
// each fidelity's model exactly once.
func newSupervisor(cfg serveConfig, site experiments.FleetSite, wl *workload.Trace, reg, runReg *store.Registry,
	lab *experiments.Lab, clock *sim.GatedClock, logger *slog.Logger) (*supervisor, error) {
	sys := site.System
	wl = sys.Workload(wl)
	days := experiments.RunDays(cfg.year, cfg.days, cfg.startDay)

	var inj *faults.Injector
	if cfg.faultSeed != 0 {
		in, err := faults.NewInjector(*chaosFaultPlan(cfg.faultSeed, days))
		if err != nil {
			return nil, fmt.Errorf("fault plan: %w", err)
		}
		inj = in
	}

	// Telemetry sizing: a multi-site fleet takes the small per-site ring
	// and series store so a world-scale daemon's memory stays bounded;
	// the single-site daemon keeps the defaults.
	var ring *trace.Ring
	seriesCfg := series.DefaultConfig()
	if cfg.fleetSpec == "" {
		ring = trace.NewRing(0, 0)
	} else {
		ring = trace.NewRing(fleetRingDecisions, fleetRingTicks)
		seriesCfg = series.FleetConfig()
	}

	s := &supervisor{
		cfg: cfg, cl: site.Climate, sys: sys, wl: wl, days: days,
		ring: ring, reg: reg, runReg: runReg, lab: lab, inj: inj, logger: logger,
		site: site.ID, siteSeed: site.Seed, clock: clock,
		chaosRemaining: cfg.chaosPanicCount,
	}
	s.db = series.NewDB(seriesCfg)
	s.alerts = series.NewEngine(s.db, nil, ring.Metrics(), 0)
	s.collector = series.NewCollector(ring, s.db, s.alerts)
	s.setMode(modeBooting, "booting")
	return s, nil
}

// chaosFaultPlan derives a deterministic sensor-fault mix from the seed
// for the composed faults+crash+restore chaos runs: the same seed
// yields the same plan before and after a restart, so the restored run
// faces the same perturbations the interrupted one did.
func chaosFaultPlan(seed int64, days []int) *faults.Plan {
	rng := rand.New(rand.NewSource(seed))
	base := 0.0
	if len(days) > 0 {
		base = float64(days[0]) * 86400
	}
	return &faults.Plan{Seed: seed, Faults: []faults.Fault{
		{Kind: faults.SensorSpike, Target: faults.TargetPodInlet, Pod: faults.AllPods,
			Start: base + 3600*(1+rng.Float64()*4), Duration: 4 * 3600, Magnitude: 1.5},
		{Kind: faults.SensorStuck, Target: faults.TargetOutsideTemp,
			Start: base + 3600*(8+rng.Float64()*4), Duration: 2 * 3600},
		{Kind: faults.SensorDropout, Target: faults.TargetPodInlet, Pod: 0,
			Start: base + 3600*(14+rng.Float64()*4), Duration: 3600},
	}}
}

// setMode publishes the lifecycle state: the serve_mode gauge for
// scrapers and the reason string for /readyz 503 bodies.
func (s *supervisor) setMode(m serveMode, reason string) {
	s.mode.Store(int32(m))
	s.ring.Metrics().ServeMode.Set(float64(m))
	s.reasonMu.Lock()
	s.reason = reason
	s.reasonMu.Unlock()
}

// ready answers the readiness probe: 200 only when the managed run loop
// is live and the first decision has landed; otherwise the current
// lifecycle reason explains the 503.
func (s *supervisor) ready() (bool, string) {
	switch serveMode(s.mode.Load()) {
	case modeRunning:
		if s.ring.Cursor().Decisions >= 1 {
			return true, ""
		}
		return false, "running: awaiting first decision"
	case modeComplete:
		return true, ""
	}
	s.reasonMu.Lock()
	defer s.reasonMu.Unlock()
	return false, s.reason
}

// fingerprint identifies the run configuration a run-state snapshot
// belongs to. Any field that changes the simulation's trajectory is in
// here — resuming across a config change would splice two different
// runs together.
func (s *supervisor) fingerprint() string {
	return fmt.Sprintf("v2|site=%s|loc=%s|sys=%s|wl=%s|days=%v|guard=%t|seed=%d|train=%d|faults=%d|siteseed=%d",
		s.site, s.cl.Name, s.sys.Name, s.cfg.workloadName, s.days, s.cfg.guard,
		s.lab.Seed, s.lab.TrainDays, s.cfg.faultSeed, s.siteSeed)
}

// loop is the supervised run loop: run, and on panic record the event,
// back off (jittered, exponential), and restart — until the context
// ends, the run completes, a non-panic error surfaces, or the
// crash-loop circuit breaker opens. A nil return leaves the HTTP plane
// up (the caller keeps serving until the shutdown signal).
func (s *supervisor) loop(ctx context.Context) error {
	backoff := s.cfg.restartBackoff
	if backoff <= 0 {
		backoff = 500 * time.Millisecond
	}
	const maxBackoff = 30 * time.Second
	maxRestarts := s.cfg.maxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 5
	}
	//coolair:allow-globalrand restart backoff jitter must desynchronize real processes and never touches simulated state
	jitter := rand.New(rand.NewSource(time.Now().UnixNano()))

	for restarts := 0; ; {
		err := s.runOnce(ctx)
		if ctx.Err() != nil {
			return nil // graceful shutdown
		}
		if err == nil {
			s.setMode(modeComplete, "")
			s.logger.Info("simulation complete, telemetry plane stays up until signal")
			return nil
		}
		var pe *panicError
		if !errors.As(err, &pe) {
			return err // a real failure, not a crash: propagate
		}

		// A panic is recorded like a guard fail-safe event and answered
		// with a restart, not a dead process.
		s.logger.Error("run loop panicked", "panic", fmt.Sprint(pe.val))
		os.Stderr.Write(pe.stack)
		s.recordPanic()
		s.ring.Metrics().RestartsTotal.Inc()
		restarts++
		if restarts > maxRestarts {
			s.setMode(modeCrashLoop,
				fmt.Sprintf("crash-loop: %d consecutive panics, circuit breaker open", restarts))
			s.logger.Error("crash-loop circuit breaker open: run loop stopped, telemetry plane stays up",
				"restarts", restarts)
			return nil
		}
		delay := backoff + time.Duration(jitter.Int63n(int64(backoff)))
		s.logger.Info("restarting run loop", "attempt", restarts, "backoff", delay)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(delay):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// recordPanic emits a fail-safe-style decision record for the panic, so
// the crash is visible in the same stream and counters operators
// already watch (SourceGuard + failsafe-control, a hold, no candidates).
func (s *supervisor) recordPanic() {
	rec := trace.DecisionRecord{
		Time:   s.ring.Metrics().SimTimeSeconds.Value(),
		Source: trace.SourceGuard,
		Guard:  trace.GuardFailSafeControl,
		Winner: -1,
		Hold:   true,
	}
	rec.Day = int32(rec.Time / 86400)
	// Through the collector, not the ring: the panic must land in the
	// guard_interventions series too, so the SLO engine sees it (the
	// chaos smoke asserts an injected panic raises an alert).
	s.collector.RecordDecision(&rec)
}

// runOnce boots (restoring what the registry holds) and drives one
// attempt of the simulation, converting panics anywhere in the attempt
// into a *panicError for the loop to handle.
func (s *supervisor) runOnce(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
		// Whatever way the attempt ended, give the fleet pool its slot
		// back: a completed, crashed, or circuit-broken site must never
		// hold compute capacity the live sites could use.
		s.clock.Release()
	}()
	met := s.ring.Metrics()

	// Model: restore, reuse, or train — degraded (serving the TKS
	// fail-safe baseline) while a campaign runs.
	if !s.sys.Baseline {
		key := s.lab.ModelKey(s.sys.Fidelity)
		warm := s.modelResolved || (s.reg != nil && s.reg.HasModel(key))
		if warm {
			s.setMode(modeRestoring, "restoring: loading model snapshot")
		} else {
			s.setMode(modeDegraded, "degraded: training cooling model, serving fail-safe baseline")
			if err := s.trainDegraded(ctx); err != nil {
				return err
			}
		}
		res, err := s.lab.ModelResult(ctx, s.sys.Fidelity)
		if err != nil {
			return err
		}
		s.modelResolved = true
		if !s.modelCounted {
			s.modelCounted = true
			if res.Restored {
				met.StateRestoreSuccessTotal.Inc()
			} else {
				met.TrainingsTotal.Inc()
			}
			if res.RestoreErr != nil {
				met.StateRestoreFailureTotal.Inc()
			}
		}
	} else {
		s.setMode(modeBooting, "booting: assembling baseline run")
	}

	env, ctrl, err := s.lab.NewRunContext(ctx, s.cl, s.sys)
	if err != nil {
		return err
	}

	var guard *control.Guard
	if s.cfg.guard {
		guard = control.NewGuard(ctrl, control.GuardConfig{})
		guard.SetLogger(s.logger)
		ctrl = guard
	}
	if s.cfg.chaosPanicAfter > 0 {
		ctrl = &panicAfter{inner: ctrl, sup: s, after: s.cfg.chaosPanicAfter}
	}

	// Run state: resume from the latest checkpoint when the registry
	// holds one for this exact configuration.
	fp := s.fingerprint()
	runCfg := s.baseRunCfg(ctx)
	runCfg.KeepAllActive = s.sys.Baseline
	if s.runReg != nil {
		s.restoreSeries(fp)
		st, err := s.runReg.LoadRunState("serve", fp, s.site)
		switch {
		case err == nil:
			met.StateRestoreSuccessTotal.Inc()
			if s.ring.RestoreCursor(trace.Cursor{Decisions: st.SavedDecisions, Ticks: st.SavedTicks}) {
				s.logger.Info("flight-recorder cursor restored",
					"decisions", st.SavedDecisions, "ticks", st.SavedTicks)
			}
			if guard != nil && st.Guard != nil {
				guard.RestoreState(*st.Guard)
			}
			runCfg.Resume = &st.Sim
			s.logger.Info("run state restored, resuming mid-run",
				"day", st.Sim.Day, "tick", st.Sim.Tick)
		case errors.Is(err, os.ErrNotExist):
			// Nothing saved yet: a genuine cold boot.
		default:
			met.StateRestoreFailureTotal.Inc()
			s.logger.Warn("run state unusable, cold boot", "err", err)
		}
		runCfg.CheckpointSeconds = s.cfg.checkpointEvery
		runCfg.Checkpoint = func(cp *sim.Checkpoint) {
			st := &store.RunState{Fingerprint: fp, Site: s.site, Sim: *cp}
			cur := s.ring.Cursor()
			st.SavedDecisions, st.SavedTicks = cur.Decisions, cur.Ticks
			if guard != nil {
				gs := guard.StateSnapshot()
				st.Guard = &gs
			}
			if err := s.runReg.SaveRunState("serve", st); err != nil {
				s.logger.Warn("checkpoint write failed", "err", err)
				return
			}
			met.CheckpointsTotal.Inc()
			s.maybeSaveSeries(fp)
		}
	}

	s.setMode(modeRunning, "")
	s.logger.Info("simulation starting", "location", s.cl.Name, "system", s.sys.Name,
		"days", len(s.days), "speed", s.cfg.speed, "guard", s.cfg.guard,
		"resuming", runCfg.Resume != nil)
	res, err := sim.Run(env, ctrl, runCfg)
	if err != nil {
		return err
	}
	s.logger.Info("simulation summary",
		"pue", res.Summary.PUE,
		"avg_violation_c", res.Summary.AvgViolation,
		"jobs_completed", res.JobsCompleted)
	return nil
}

// restoreSeries loads the time-series plane's snapshot once per
// process (in-process restarts already hold fresher in-memory state).
// Any failure is a logged empty start, never a boot error — history is
// telemetry, not correctness.
func (s *supervisor) restoreSeries(fp string) {
	if s.seriesRestored {
		return
	}
	s.seriesRestored = true
	met := s.ring.Metrics()
	blob, err := s.runReg.LoadSeriesBlob("serve")
	switch {
	case err == nil:
		if rerr := series.RestoreState(s.db, s.alerts, fp, blob); rerr != nil {
			met.StateRestoreFailureTotal.Inc()
			s.logger.Warn("series snapshot unusable, starting empty", "err", rerr)
			return
		}
		met.StateRestoreSuccessTotal.Inc()
		s.logger.Info("time-series plane restored", "alerts_firing", s.alerts.FiringCount())
	case errors.Is(err, os.ErrNotExist):
		// Nothing saved yet: a genuine cold boot.
	default:
		met.StateRestoreFailureTotal.Inc()
		s.logger.Warn("series snapshot unreadable, starting empty", "err", err)
	}
}

// seriesSaveMinInterval wall-throttles series snapshots: encoding the
// whole plane costs more than a run-state checkpoint, and at high sim
// speeds checkpoints land several times per wall second. At fleet
// scale the cadence is a real load: 64 sites gob-encoding and
// double-fsyncing their full plane every second was ~8% of daemon CPU
// plus an fsync storm under the loadtest profile. A SIGKILL inside
// the window costs at most that many wall-seconds of chart history;
// alert transitions bypass the throttle below, so the crash-survival
// contract (`TestFleetChaosKillAndWarmReboot`) never waits on it.
const seriesSaveMinInterval = 5 * time.Second

// maybeSaveSeries persists the time-series plane alongside a run-state
// checkpoint, at most once per seriesSaveMinInterval of wall time —
// immediately, throttle bypassed, when any alert fired or resolved
// since the last save.
func (s *supervisor) maybeSaveSeries(fp string) {
	now := time.Now()
	fired, firing := s.alerts.FiredTotal(), s.alerts.FiringCount()
	transitioned := fired != s.lastSeriesFired || firing != s.lastSeriesFiring
	if !transitioned && !s.lastSeriesSave.IsZero() && now.Sub(s.lastSeriesSave) < seriesSaveMinInterval {
		return
	}
	s.lastSeriesSave = now
	s.lastSeriesFired, s.lastSeriesFiring = fired, firing
	blob, err := series.EncodeState(s.db, s.alerts, fp)
	if err != nil {
		s.logger.Warn("series snapshot encode failed", "err", err)
		return
	}
	if err := s.runReg.SaveSeriesBlob("serve", blob); err != nil {
		s.logger.Warn("series snapshot write failed", "err", err)
	}
}

// trainDegraded runs the training campaign in the background while a
// TKS fail-safe baseline serves decisions into the same ring, so the
// telemetry plane is live (and the datacenter managed, as it would be
// under the paper's default controller) during the boot-time campaign.
// Returns when the campaign finishes or ctx ends; the model itself is
// cached in the lab for the caller to pick up.
func (s *supervisor) trainDegraded(ctx context.Context) error {
	trained := make(chan error, 1)
	go func() {
		_, err := s.lab.ModelResult(ctx, s.sys.Fidelity)
		trained <- err
	}()

	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The TKS baseline on the site's own plant.
		fallback := experiments.BaselineSystem()
		fallback.Fidelity = s.sys.Fidelity
		env, ctrl, err := s.lab.NewRunContext(dctx, s.cl, fallback)
		if err != nil {
			s.logger.Warn("degraded baseline unavailable", "err", err)
			return
		}
		cfg := s.baseRunCfg(dctx)
		cfg.KeepAllActive = true
		if _, err := sim.Run(env, ctrl, cfg); err != nil && !errors.Is(err, context.Canceled) {
			s.logger.Warn("degraded baseline run stopped", "err", err)
		}
	}()

	err := <-trained
	cancel()
	<-done
	return err
}

// baseRunCfg is the shared run configuration (degraded and managed
// runs differ only in controller and checkpointing).
func (s *supervisor) baseRunCfg(ctx context.Context) sim.RunConfig {
	return sim.RunConfig{
		Days: s.days, Trace: s.wl,
		Faults:   s.inj,
		Recorder: s.collector,
		Context:  ctx,
		Clock:    s.clock,
		Logger:   s.logger,
	}
}

// panicAfter injects a controller panic after a configured number of
// decisions (the -chaos-panic-after flag): the chaos tests use it to
// prove the supervisor recovers from crashes in the decision path. The
// wrapper forwards the optional controller interfaces so wrapping does
// not silently strip Monitor/DayPlanner/TemporalScheduler/Traceable
// from the inner controller.
type panicAfter struct {
	inner control.Controller
	sup   *supervisor
	after int
	n     int
}

func (p *panicAfter) Name() string    { return p.inner.Name() }
func (p *panicAfter) Period() float64 { return p.inner.Period() }

func (p *panicAfter) Decide(obs control.Observation) (cooling.Command, error) {
	p.n++
	if p.n >= p.after && p.sup.chaosRemaining > 0 {
		p.sup.chaosRemaining--
		panic(fmt.Sprintf("chaos: injected panic after %d decisions", p.n))
	}
	return p.inner.Decide(obs)
}

func (p *panicAfter) Observe(obs control.Observation) {
	if m, ok := p.inner.(control.Monitor); ok {
		m.Observe(obs)
	}
}

func (p *panicAfter) StartDay(day int) {
	if d, ok := p.inner.(control.DayPlanner); ok {
		d.StartDay(day)
	}
}

func (p *panicAfter) ScheduleDay(day int, jobs []workload.Job) []float64 {
	if t, ok := p.inner.(control.TemporalScheduler); ok {
		return t.ScheduleDay(day, jobs)
	}
	releases := make([]float64, len(jobs))
	for i, j := range jobs {
		releases[i] = j.Arrival
	}
	return releases
}

func (p *panicAfter) SetRecorder(r trace.Recorder) {
	if t, ok := p.inner.(trace.Traceable); ok {
		t.SetRecorder(r)
	}
}
