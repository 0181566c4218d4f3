// Package experiments contains one harness per table and figure of the
// paper's evaluation (§5). Each experiment assembles environments,
// trains or reuses the Cooling Model, runs the year (or day) simulations,
// and returns a typed result whose Table method prints the same rows or
// series the paper reports. The cmd/coolair-experiments binary exposes
// them by figure id; scaled-down versions run as benchmarks.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sync"

	"coolair/internal/control"
	"coolair/internal/core"
	"coolair/internal/model"
	"coolair/internal/sim"
	"coolair/internal/store"
	"coolair/internal/tks"
	trc "coolair/internal/trace"
	"coolair/internal/units"
	"coolair/internal/weather"
	"coolair/internal/workload"
)

// Lab holds the shared, reusable state of the evaluation: the trained
// Cooling Models (one per infrastructure fidelity — the paper trains on
// Parasol monitoring data once and reuses the models everywhere), the
// workload traces, and the cluster tapes that let every site of a study
// replay one simulation of each system's cluster (sim.TapeStore).
type Lab struct {
	Seed int64
	// TrainDays is the length of the data-collection campaign.
	TrainDays int
	// Workers caps runGrid's parallelism; 0 means runtime.NumCPU(). The
	// metamorphic determinism test pins that a 1-worker grid and a
	// NumCPU-worker grid produce byte-identical results.
	Workers int
	// Recorder, when non-nil, is attached to every run the lab starts.
	// Grid studies run cells concurrently, so a shared recorder must be
	// safe for concurrent use (trace.Ring is).
	Recorder trc.Recorder
	// Store, when non-nil, is the durable model registry: Model consults
	// it before training (a valid snapshot skips the campaign entirely —
	// the campaign is seeded, so the restored model is bit-identical to
	// retraining) and writes freshly trained models through to it.
	Store *store.Registry
	// Logger, when non-nil, receives registry hit/miss/corruption logs.
	Logger *slog.Logger

	// mu guards only the maps and trace caches below — never the
	// training itself, which runs under the per-fidelity slot's once so
	// that training one fidelity does not serialize callers wanting the
	// other (or a cached) model.
	mu     sync.Mutex
	models map[sim.Fidelity]*modelSlot
	faceb  *workload.Trace
	nutch  *workload.Trace
	// tapes is attached to every run's Env by NewRunContext.
	tapes *sim.TapeStore
}

// modelSlot holds one fidelity's trained model; once ensures a single
// training campaign per fidelity while letting independent fidelities
// train concurrently.
type modelSlot struct {
	once sync.Once
	res  ModelResult
	err  error
}

// ModelResult is a model plus its provenance: whether it was restored
// from the lab's Store or freshly trained, and — when a snapshot
// existed but failed verification — the restore error that forced the
// retraining. The serve daemon's supervisor turns these into the
// state_restore_success/failure and trainings counters.
type ModelResult struct {
	Model *model.Model
	// Restored is true when the model came from the Store, false when a
	// training campaign ran.
	Restored bool
	// RestoreErr is the verification failure of an existing snapshot
	// (store.ErrCorrupt and friends); nil on a clean hit or a clean miss.
	RestoreErr error
}

// NewLab creates a lab with the evaluation defaults.
func NewLab() *Lab {
	return &Lab{Seed: 42, TrainDays: 4, models: map[sim.Fidelity]*modelSlot{}, tapes: sim.NewTapeStore()}
}

// Facebook returns the (cached) Facebook workload trace.
func (l *Lab) Facebook() *workload.Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.faceb == nil {
		l.faceb = workload.Facebook(64, l.Seed)
	}
	return l.faceb
}

// Nutch returns the (cached) Nutch workload trace.
func (l *Lab) Nutch() *workload.Trace {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nutch == nil {
		l.nutch = workload.Nutch(64, l.Seed)
	}
	return l.nutch
}

// Model returns the trained Cooling Model for the fidelity, running the
// data-collection campaign at the prototype's home climate (Newark, like
// Parasol's New Jersey site) on first use.
func (l *Lab) Model(fid sim.Fidelity) (*model.Model, error) {
	res, err := l.ModelResult(context.Background(), fid)
	if err != nil {
		return nil, err
	}
	return res.Model, nil
}

// ModelKey is the registry key the lab files the fidelity's model
// under (the standard campaign spans Newark and Chad).
func (l *Lab) ModelKey(fid sim.Fidelity) store.ModelKey {
	return store.ModelKey{Climate: "newark+chad", Fidelity: fid.String(), TrainDays: l.TrainDays, Seed: l.Seed}
}

// ModelResult returns the fidelity's Cooling Model with provenance:
// restored from the Store when a valid snapshot exists, trained (and
// written through) otherwise. The context cancels an in-flight
// training campaign; a canceled campaign is not cached, so a later
// call retries.
func (l *Lab) ModelResult(ctx context.Context, fid sim.Fidelity) (ModelResult, error) {
	trace := l.Facebook() // acquire outside l.mu: Facebook locks too
	l.mu.Lock()
	slot := l.models[fid]
	if slot == nil {
		slot = &modelSlot{}
		l.models[fid] = slot
	}
	l.mu.Unlock()
	slot.once.Do(func() { slot.res, slot.err = l.obtain(ctx, fid, trace) })
	if slot.err != nil {
		// Don't cache a failed campaign for the process lifetime: drop
		// the slot (if it is still the installed one) so the next call
		// retries with a fresh once. Concurrent waiters on this once
		// still all observe this attempt's error.
		l.mu.Lock()
		if l.models[fid] == slot {
			delete(l.models, fid)
		}
		l.mu.Unlock()
		return ModelResult{}, slot.err
	}
	return slot.res, nil
}

// obtain resolves one fidelity's model: registry first, campaign on a
// miss. A snapshot that exists but fails verification is reported in
// RestoreErr and falls back to training — a corrupt file costs a
// retrain, never a wrong model.
func (l *Lab) obtain(ctx context.Context, fid sim.Fidelity, trace *workload.Trace) (ModelResult, error) {
	var restoreErr error
	if l.Store != nil {
		key := l.ModelKey(fid)
		m, err := l.Store.LoadModel(key)
		switch {
		case err == nil:
			if l.Logger != nil {
				l.Logger.Info("model restored from registry", "key", key.String(), "path", l.Store.ModelPath(key))
			}
			return ModelResult{Model: m, Restored: true}, nil
		case errors.Is(err, os.ErrNotExist):
			if l.Logger != nil {
				l.Logger.Info("no model snapshot, training", "key", key.String())
			}
		default:
			restoreErr = err
			if l.Logger != nil {
				l.Logger.Warn("model snapshot unusable, cold boot", "key", key.String(), "err", err)
			}
		}
	}
	m, err := l.train(ctx, fid, trace)
	if err != nil {
		return ModelResult{}, err
	}
	if l.Store != nil {
		if err := l.Store.SaveModel(l.ModelKey(fid), m); err != nil {
			// A write-through failure costs the next boot a retrain; it
			// does not fail this one.
			if l.Logger != nil {
				l.Logger.Warn("model write-through failed", "err", err)
			}
		}
	}
	return ModelResult{Model: m, RestoreErr: restoreErr}, nil
}

// train runs the data-collection campaigns and fits the model. It holds
// no lab lock: concurrent callers are serialized per fidelity by the
// slot's once, and everything it touches is local to the call.
func (l *Lab) train(ctx context.Context, fid sim.Fidelity, trace *workload.Trace) (*model.Model, error) {
	// The campaign covers both the prototype's home climate and a hot
	// one, so the learned models interpolate rather than extrapolate
	// when CoolAir is deployed at hot sites (the paper's 1.5 months of
	// NJ data spanned spring-to-summer extremes similarly). The two
	// campaigns are independent simulations, so they run concurrently.
	var logN, logC *model.Logger
	var errN, errC error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		logN, errN = campaign(ctx, weather.Newark, fid, l.TrainDays, trace, l.Seed)
	}()
	go func() {
		defer wg.Done()
		logC, errC = campaign(ctx, weather.Chad, fid, (l.TrainDays+1)/2, trace, l.Seed+1)
	}()
	wg.Wait()
	if err := errors.Join(errN, errC); err != nil {
		return nil, err
	}
	if err := logN.Append(logC); err != nil {
		return nil, err
	}
	return model.Fit(logN, model.LearnerOptions{Seed: l.Seed})
}

// campaign runs one data-collection campaign of the given days at cl.
func campaign(ctx context.Context, cl weather.Climate, fid sim.Fidelity, days int, trace *workload.Trace, seed int64) (*model.Logger, error) {
	env, err := sim.NewEnv(cl, fid)
	if err != nil {
		return nil, err
	}
	return env.CollectTrainingDataContext(ctx, days, trace, seed)
}

// System specifies one managed datacenter configuration to evaluate.
type System struct {
	// Name as the figures label it ("Baseline", "All-ND", …).
	Name string
	// Baseline selects the TKS-extended baseline instead of CoolAir.
	Baseline bool
	// Version selects the CoolAir variant when Baseline is false.
	Version core.Version
	// Band overrides the band configuration (zero value = defaults).
	Band core.BandConfig
	// Fidelity of the installed cooling plant. The baseline runs on
	// Parasol as built (RealSim); CoolAir versions run on the smoother
	// infrastructure (SmoothSim), as in the paper.
	Fidelity sim.Fidelity
	// ForecastBias perturbs the weather forecast (the ±5°C study).
	ForecastBias float64
	// Deferrable marks a system that schedules deferrable jobs: its
	// workload carries start deadlines (see Workload). CoolAirSystem
	// sets it for the versions with a temporal scheduler.
	Deferrable bool
}

// BaselineSystem returns the paper's baseline configuration.
func BaselineSystem() System {
	return System{Name: "Baseline", Baseline: true, Fidelity: sim.RealSim}
}

// CoolAirSystem returns a CoolAir version on the smooth infrastructure.
func CoolAirSystem(v core.Version) System {
	return System{
		Name: v.String(), Version: v, Fidelity: sim.SmoothSim,
		Deferrable: core.VersionOptions(v, core.DefaultBandConfig()).Temporal != core.TemporalNone,
	}
}

// Workload returns the trace the system runs given the base workload:
// a deferrable system's jobs may start up to 6 hours after arrival (the
// paper's start deadline for deferrable workloads).
func (s System) Workload(base *workload.Trace) *workload.Trace {
	if s.Deferrable && base != nil {
		return base.WithDeadlines(6 * 3600)
	}
	return base
}

// StandardSystems returns the five systems of Figures 8–10 in
// presentation order.
func StandardSystems() []System {
	return []System{
		BaselineSystem(),
		CoolAirSystem(core.VersionTemperature),
		CoolAirSystem(core.VersionEnergy),
		CoolAirSystem(core.VersionVariation),
		CoolAirSystem(core.VersionAllND),
	}
}

// Run evaluates one system at one climate over the given days with the
// given base workload, recording to the lab's Recorder (if any).
func (l *Lab) Run(cl weather.Climate, sys System, days []int, trace *workload.Trace, record bool) (*sim.Result, error) {
	env, ctrl, err := l.NewRun(cl, sys)
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(env, ctrl, sim.RunConfig{
		Days: days, Trace: sys.Workload(trace), KeepAllActive: sys.Baseline,
		RecordSeries: record, Recorder: l.Recorder,
	})
	if err != nil {
		return nil, err
	}
	res.Controller = sys.Name
	return res, nil
}

// NewRun assembles the environment and controller for one system at one
// climate without starting the simulation, training the Cooling Model
// first when the system needs one. Run is NewRun plus sim.Run; callers
// that need more control over the run — the serve daemon paces sim.Run
// with a Clock, cancels it with a Context, and wraps the controller in
// a Guard — drive sim.Run themselves with the returned pair, the
// system's Workload, and KeepAllActive for the baseline.
func (l *Lab) NewRun(cl weather.Climate, sys System) (*sim.Env, control.Controller, error) {
	return l.NewRunContext(context.Background(), cl, sys)
}

// NewRunContext is NewRun with cancellation of the boot-time training
// campaign (the daemon's SIGTERM handling reaches into the campaign's
// physics loop through this context). The returned Env carries the
// lab's cluster tapes, so sim.Run records or replays its cluster when
// the run allows it.
func (l *Lab) NewRunContext(ctx context.Context, cl weather.Climate, sys System) (*sim.Env, control.Controller, error) {
	env, err := sim.NewEnv(cl, sys.Fidelity)
	if err != nil {
		return nil, nil, err
	}
	env.Tapes = l.tapes
	if sys.ForecastBias != 0 {
		env.SetForecast(weather.BiasedForecast{
			Base: weather.PerfectForecast{Series: env.Series},
			Bias: units.Celsius(sys.ForecastBias),
		})
	}
	if sys.Baseline {
		return env, tks.Baseline(), nil
	}
	res, err := l.ModelResult(ctx, sys.Fidelity)
	if err != nil {
		return nil, nil, err
	}
	env.Model = res.Model
	band := sys.Band
	if band == (core.BandConfig{}) {
		band = core.DefaultBandConfig()
	}
	ca, err := core.New(core.VersionOptions(sys.Version, band), res.Model, env.Forecast, env.Plant, env.Cluster)
	if err != nil {
		return nil, nil, err
	}
	return env, ca, nil
}

// YearDays returns n evenly spaced days of the year (the paper's year
// sampling uses 52 — the first day of each week).
func YearDays(n int) []int {
	if n <= 0 || n > weather.DaysPerYear {
		n = 52
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i * weather.DaysPerYear / n
	}
	return out
}

// runGrid evaluates every (climate, system) pair in parallel, returning
// results indexed [climate][system]. Every failing cell is reported: the
// returned error joins all cell errors in grid order, not just the
// first one a worker happened to hit.
func (l *Lab) runGrid(cls []weather.Climate, systems []System, days []int, trace *workload.Trace) ([][]*sim.Result, error) {
	// Force model training up front (single-threaded) so workers share.
	for _, s := range systems {
		if !s.Baseline {
			if _, err := l.Model(s.Fidelity); err != nil {
				return nil, err
			}
		}
	}
	out := make([][]*sim.Result, len(cls))
	for i := range out {
		out[i] = make([]*sim.Result, len(systems))
	}
	type cell struct{ ci, si int }
	jobs := make(chan cell)
	// One slot per cell: workers write disjoint indices, so no lock is
	// needed and the joined error lists cells deterministically.
	cellErrs := make([]error, len(cls)*len(systems))
	var wg sync.WaitGroup
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cls)*len(systems) {
		workers = len(cls) * len(systems)
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				res, err := l.Run(cls[c.ci], systems[c.si], days, trace, false)
				if err != nil {
					cellErrs[c.ci*len(systems)+c.si] = fmt.Errorf("%s @ %s: %w", systems[c.si].Name, cls[c.ci].Name, err)
					continue
				}
				out[c.ci][c.si] = res
			}
		}()
	}
	for ci := range cls {
		for si := range systems {
			jobs <- cell{ci, si}
		}
	}
	close(jobs)
	wg.Wait()
	if err := errors.Join(cellErrs...); err != nil {
		return nil, err
	}
	return out, nil
}
