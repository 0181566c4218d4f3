package sim

import (
	"context"
	"fmt"
	"log/slog"
	"sort"

	"coolair/internal/control"
	"coolair/internal/cooling"
	"coolair/internal/faults"
	"coolair/internal/hadoop"
	"coolair/internal/metrics"
	"coolair/internal/mlearn"
	"coolair/internal/model"
	"coolair/internal/physics"
	"coolair/internal/reliability"
	"coolair/internal/trace"
	"coolair/internal/units"
	"coolair/internal/workload"
)

// hadoopJobRecord aliases the cluster's completion record.
type hadoopJobRecord = hadoop.JobRecord

// RunConfig parameterizes one evaluation run.
type RunConfig struct {
	// Days lists the days of year to simulate (WeekdaySample() for the
	// paper's year runs; a single entry for day experiments).
	Days []int
	// Trace is the day-long workload, replayed each simulated day. Nil
	// runs the datacenter idle.
	Trace *workload.Trace
	// MaxTemp and RHLimit feed the metrics collector; zero takes the
	// defaults (30°C, 80%).
	MaxTemp units.Celsius
	RHLimit units.RelHumidity
	// KeepAllActive disables server power management (the baseline
	// system controls only the cooling regime).
	KeepAllActive bool
	// RecordSeries captures the 2-minute sample stream in Result.Series
	// (figure plots, the coolair-sim -csv output).
	RecordSeries bool
	// CollectSnapshots records Modeler snapshots (for held-out model
	// validation, Figure 5).
	CollectSnapshots bool
	// Faults, when non-nil, injects the plan's sensor and actuator
	// faults into the run: observations are perturbed before the
	// controller sees them and commands are perturbed on their way to
	// the plant. Forecast faults are not applied here — wrap the
	// environment's forecaster with Injector.WrapForecaster before
	// constructing the controller.
	Faults *faults.Injector
	// Recorder, when non-nil, receives flight-recorder telemetry: the
	// metered loop emits a trace.TickRecord at the model-step cadence,
	// and the recorder is handed to the controller (via trace.Traceable)
	// so it can emit per-decision records. Recording never changes a
	// run's results — see the golden-digest equivalence test.
	Recorder trace.Recorder
	// Context, when non-nil, cancels the run between physics steps: Run
	// returns ctx.Err() promptly instead of finishing the remaining
	// days. This is how the serve daemon turns SIGINT/SIGTERM into a
	// graceful shutdown of a long-running simulation.
	Context context.Context
	// Clock, when non-nil, paces the metered loop against wall time (see
	// Clock; warm-up evenings always run at full speed). Nil runs
	// as-fast-as-possible — the batch/experiment behavior.
	Clock Clock
	// Logger, when non-nil, receives structured progress logs (day
	// boundaries, warm-ups, completion). Nil disables logging; results
	// are identical either way.
	Logger *slog.Logger
	// Checkpoint, when non-nil, receives a restartable snapshot of the
	// run every CheckpointSeconds of simulated time during the metered
	// day loop (the handed *Checkpoint carries fresh copies; the
	// callback may retain it). The serve daemon persists these through
	// internal/store so a crashed process resumes mid-year.
	Checkpoint func(*Checkpoint)
	// CheckpointSeconds is the simulated-time cadence of Checkpoint
	// calls (default 900 s when Checkpoint is set).
	CheckpointSeconds float64
	// Resume, when non-nil, starts the run from a checkpoint instead of
	// from Days[0]: the physical and plant state are restored and the
	// checkpointed day re-runs from its warm-up evening (the cluster's
	// job state is not serialized — the warm-up replay rebuilds it, so
	// the resumed day is a faithful re-simulation, not a bit-exact
	// continuation of the interrupted one). Days and the environment
	// must match the checkpointing run's.
	Resume *Checkpoint
}

// Checkpoint is a restartable position in a run: where the run was
// (which entry of RunConfig.Days, at what simulated time) and the
// dynamic state that must survive a restart (container physics, plant
// ramp/energy counters, the command in force). Guard state and
// flight-recorder cursors live one layer up — see store.RunState.
type Checkpoint struct {
	// DayIdx indexes RunConfig.Days; Day is Days[DayIdx] (stored
	// redundantly so a mismatched Days list is detected at resume).
	DayIdx int
	Day    int
	// Tick is the absolute simulated time (seconds) at capture.
	Tick float64
	// Physics is a deep copy of the container state.
	Physics *physics.State
	// Plant is the cooling plant's dynamic state.
	Plant cooling.PlantState
	// Cmd is the controller command in force at capture.
	Cmd cooling.Command
}

func (c RunConfig) withDefaults() RunConfig {
	if c.MaxTemp == 0 {
		c.MaxTemp = 30
	}
	if c.RHLimit == 0 {
		c.RHLimit = 80
	}
	if len(c.Days) == 0 {
		c.Days = []int{0}
	}
	return c
}

// Result is the outcome of one run.
type Result struct {
	Controller string
	Fidelity   Fidelity
	Location   string
	Summary    metrics.Summary
	// Series is the 2-minute sample stream (RunConfig.RecordSeries): the
	// same records, in the same order, a Recorder attached to the run
	// receives.
	Series    []trace.TickRecord
	Snapshots []model.Snapshot
	// Jobs accounting.
	JobsSubmitted, JobsCompleted int
	// MaxPowerCycleRate is the worst per-server disk power-cycle rate
	// (cycles/hour) over the run.
	MaxPowerCycleRate float64
	// DailyWorstRanges lists, per simulated day, the worst sensor's
	// daily temperature range (Figure 9's underlying distribution).
	DailyWorstRanges []float64
	// DiskProfile and DiskReliability score the run's disk thermal
	// exposure under the three reliability lenses the paper's
	// motivation surveys.
	DiskProfile     reliability.Profile
	DiskReliability reliability.Assessment

	// cluster is how the run drove its cluster. It is unexported so that
	// encodings of a Result, like Digest, do not depend on it.
	cluster ClusterPath
}

// ClusterPath reports whether the run's cluster ran live, recorded a
// tape or replayed one (see TapeStore).
func (r *Result) ClusterPath() ClusterPath { return r.cluster }

// Run drives the environment under the controller for the configured
// days, collecting metrics. The environment's physical state carries
// across days (the paper simulates the first day of each week
// back-to-back).
func Run(env *Env, ctrl control.Controller, cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	collector := metrics.NewCollector(len(env.Container.Pods), cfg.MaxTemp, cfg.RHLimit)
	diskCollector := metrics.NewCollector(len(env.Container.Pods), 45, 100)
	var diskSamples []float64
	res := &Result{Controller: ctrl.Name(), Location: env.Climate.Name}

	stepsPerDay := int(86400 / PhysicsStepSeconds)
	ctlSteps := int(ctrl.Period() / PhysicsStepSeconds)
	if ctlSteps < 1 {
		return nil, fmt.Errorf("sim: controller period %0.0fs below physics step", ctrl.Period())
	}
	snapSteps := int(model.ModelStepSeconds / PhysicsStepSeconds)

	loop := &controlLoop{env: env, ctrl: ctrl, inj: cfg.Faults, ctlSteps: ctlSteps, snapSteps: snapSteps,
		cmd: cooling.Command{Mode: cooling.ModeClosed}}
	loop.monitor, _ = ctrl.(control.Monitor)
	planner, _ := ctrl.(control.DayPlanner)
	scheduler, _ := ctrl.(control.TemporalScheduler)

	tape := env.Tapes.open(env, ctrl, cfg)
	if tape != nil {
		defer tape.close()
	}
	res.cluster = tape.path()

	if cfg.Recorder != nil {
		if t, ok := ctrl.(trace.Traceable); ok {
			t.SetRecorder(cfg.Recorder)
		}
	}
	// Tick scratch: one heap value per run, reused across every emission.
	var trec trace.TickRecord

	// Day-loop scratch: the submission schedules are rebuilt every day
	// but never exceed the trace's job count, so one buffer serves all
	// days (sorting a reused backing array is deterministic in the
	// content alone). The cluster's completion log is likewise sized up
	// front instead of growing through repeated doubling — together these
	// were the run loop's dominant allocation sources.
	type submission struct {
		release float64
		job     workload.Job
	}
	var (
		subsBuf     []submission
		warmSubsBuf []workload.Job
		releasesBuf []float64
	)
	if cfg.Trace != nil {
		n := len(cfg.Trace.Jobs)
		subsBuf = make([]submission, 0, n)
		warmSubsBuf = make([]workload.Job, 0, n)
		releasesBuf = make([]float64, n)
		// Each day completes up to one full trace plus one warm-up replay
		// of it (a long jump re-runs the whole previous evening).
		env.Cluster.ReserveCompleted(n * (2*len(cfg.Days) + 1))
	}

	// Checkpoint cadence in physics steps.
	cpSteps := 0
	if cfg.Checkpoint != nil {
		cpSec := cfg.CheckpointSeconds
		if cpSec <= 0 {
			cpSec = 900
		}
		cpSteps = int(cpSec / PhysicsStepSeconds)
		if cpSteps < 1 {
			cpSteps = 1
		}
	}

	completedBefore := countMetered(env.Cluster.Completed())

	startIdx := 0
	resumed := false
	if cp := cfg.Resume; cp != nil {
		if cp.DayIdx < 0 || cp.DayIdx >= len(cfg.Days) || cfg.Days[cp.DayIdx] != cp.Day {
			return nil, fmt.Errorf("sim: resume checkpoint (day %d at index %d) does not match the configured days", cp.Day, cp.DayIdx)
		}
		if cp.Physics == nil {
			return nil, fmt.Errorf("sim: resume checkpoint carries no physics state")
		}
		env.state = cp.Physics.Clone()
		env.Plant.RestoreState(cp.Plant)
		env.now = cp.Tick
		loop.cmd = cp.Cmd
		startIdx = cp.DayIdx
		resumed = true
		if cfg.Logger != nil {
			cfg.Logger.Info("resuming from checkpoint", "day", cp.Day, "index", cp.DayIdx, "tick", cp.Tick)
		}
	}
	for dayIdx := startIdx; dayIdx < len(cfg.Days); dayIdx++ {
		day := cfg.Days[dayIdx]
		resumedDay := resumed && dayIdx == startIdx
		gap := float64(day)*86400 - env.Now()
		if cfg.KeepAllActive {
			env.Cluster.ActivateAll()
		}
		if planner != nil {
			planner.StartDay(day)
		}
		if cfg.Logger != nil {
			cfg.Logger.Info("day start", "day", day, "index", dayIdx, "of", len(cfg.Days))
		}

		// When the clock jumps (the year runs sample one day per week,
		// and the very first day starts from a January-equilibrium
		// state), run an unmetered warm-up evening so the container,
		// plant, and controller state are consistent with the new
		// day's weather before metrics start at midnight.
		// A resumed day always re-runs its warm-up evening, even when
		// the checkpoint landed exactly on the day boundary (gap == 0):
		// the cluster's job state is not checkpointed, so the warm-up
		// replay is what rebuilds it.
		if gap != 0 || env.Now() == 0 || resumedDay {
			warmupSeconds := 4.0 * 3600
			reseat := (gap > 10*86400 || env.Now() == 0) && !resumedDay
			if reseat {
				// A cold start needs a long shakeout: the thermal-mass
				// node takes many hours to reach operating temperature.
				warmupSeconds = 24 * 3600
			}
			env.now = float64(day)*86400 - warmupSeconds
			if reseat {
				// Long jumps re-seat the physical state: a datacenter
				// that has been operating sits well above a cold
				// outside, so seed the inside nodes at a typical
				// operating temperature rather than outside ambient.
				out := env.outside()
				env.state = env.Container.NewState(out)
				op := (out.Temp + 10).Clamp(12, 30)
				env.state.Air, env.state.Mass, env.state.HotAisle = op, op, op+3
				for i := range env.state.PodInlet {
					env.state.PodInlet[i] = op + units.Celsius(i)
					env.state.Disk[i] = op + 10
				}
			}
			// The warm-up must carry the workload too, or the cluster
			// idles down and the metered day starts from an
			// artificially cold, empty datacenter.
			warmSubs := warmSubsBuf[:0]
			if cfg.Trace != nil {
				for _, j := range cfg.Trace.Jobs {
					if j.Arrival >= 86400-warmupSeconds {
						warmSubs = append(warmSubs, withUniqueID(j, 10_000+dayIdx))
					}
				}
				sort.Slice(warmSubs, func(a, b int) bool { return warmSubs[a].Arrival < warmSubs[b].Arrival })
			}
			if cfg.Logger != nil {
				cfg.Logger.Debug("warm-up", "day", day, "hours", warmupSeconds/3600, "reseat", reseat)
			}
			warmNext := 0
			warmSteps := int(warmupSeconds / PhysicsStepSeconds)
			for step := 0; step < warmSteps; step++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				wallInDay := 86400 - warmupSeconds + float64(step)*PhysicsStepSeconds
				for warmNext < len(warmSubs) && warmSubs[warmNext].Arrival <= wallInDay {
					env.Cluster.Submit(warmSubs[warmNext])
					warmNext++
				}
				if _, err := loop.step(step); err != nil {
					return nil, err
				}
			}
		}

		// Build the day's submission schedule.
		subs := subsBuf[:0]
		if cfg.Trace != nil {
			releases := releasesBuf
			for i, j := range cfg.Trace.Jobs {
				releases[i] = j.Arrival
			}
			if scheduler != nil {
				releases = scheduler.ScheduleDay(day, cfg.Trace.Jobs)
			}
			for i, j := range cfg.Trace.Jobs {
				subs = append(subs, submission{release: releases[i], job: withUniqueID(j, dayIdx)})
			}
			sort.Slice(subs, func(a, b int) bool { return subs[a].release < subs[b].release })
			res.JobsSubmitted += len(subs)
		}

		next := 0
		for step := 0; step < stepsPerDay; step++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if cfg.Clock != nil {
				if err := cfg.Clock.Pace(ctx, env.Now()); err != nil {
					return nil, err
				}
			}
			dayTime := float64(step) * PhysicsStepSeconds
			for next < len(subs) && subs[next].release <= dayTime {
				env.Cluster.Submit(subs[next].job)
				next++
			}
			eff, err := loop.step(step)
			if err != nil {
				return nil, err
			}

			out := env.outside()
			collector.Observe(day, env.state.PodInlet, env.state.RelHumidity(),
				out.Temp, env.Plant.Power(), env.Cluster.ITPower(), PhysicsStepSeconds)
			diskCollector.Observe(day, env.state.Disk, 50, out.Temp, 0, 0, PhysicsStepSeconds)
			if step%snapSteps == 0 {
				_, hottest := hottestOf(env.state.Disk)
				diskSamples = append(diskSamples, float64(hottest))
			}

			if step%snapSteps == 0 && (cfg.Recorder != nil || cfg.RecordSeries) {
				fillTick(&trec, env, eff, day)
				if cfg.Recorder != nil {
					cfg.Recorder.RecordTick(&trec)
				}
				if cfg.RecordSeries {
					res.Series = append(res.Series, trec)
				}
			}
			if cpSteps > 0 && (step+1)%cpSteps == 0 {
				cfg.Checkpoint(&Checkpoint{
					DayIdx:  dayIdx,
					Day:     day,
					Tick:    env.Now(),
					Physics: env.state.Clone(),
					Plant:   env.Plant.StateSnapshot(),
					Cmd:     loop.cmd,
				})
			}
			if cfg.CollectSnapshots && step%snapSteps == snapSteps-1 {
				res.Snapshots = append(res.Snapshots, env.snapshot(eff))
			}
		}
	}
	if cfg.Logger != nil {
		cfg.Logger.Info("run complete", "days", len(cfg.Days), "controller", ctrl.Name())
	}
	res.JobsCompleted = countMetered(env.Cluster.Completed()) - completedBefore
	if tape != nil {
		var err error
		if res.JobsCompleted, err = tape.finish(env.Cluster, res.JobsCompleted); err != nil {
			return nil, err
		}
	}
	res.Summary = collector.Summarize()
	res.DailyWorstRanges = collector.WorstDailyRanges()
	res.MaxPowerCycleRate = env.Cluster.MaxPowerCycleRate()
	diskSum := diskCollector.Summarize()
	if len(diskSamples) > 0 {
		var mean float64
		for _, v := range diskSamples {
			mean += v
		}
		mean /= float64(len(diskSamples))
		res.DiskProfile = reliability.Profile{
			MeanDiskTemp:       mean,
			P95DiskTemp:        mlearn.Quantile(diskSamples, 0.95),
			AvgDailyRange:      diskSum.AvgWorstDailyRange,
			MaxDailyRange:      diskSum.MaxWorstDailyRange,
			PowerCyclesPerHour: res.MaxPowerCycleRate,
		}
		if a, err := reliability.Assess(res.DiskProfile); err == nil {
			res.DiskReliability = a
		}
	}
	if env.Plant.FC.MinSpeed <= 0.05 {
		res.Fidelity = SmoothSim
	}
	return res, nil
}

// controlLoop is the observe → decide → actuate → step sequence the
// warm-up evenings and the metered days share, one physics step per
// call.
type controlLoop struct {
	env                 *Env
	ctrl                control.Controller
	monitor             control.Monitor
	inj                 *faults.Injector
	ctlSteps, snapSteps int
	// cmd is the controller command in force.
	cmd cooling.Command
}

// step runs physics step i of a loop: the monitor observes every model
// step, the controller decides every control period, and the command in
// force (perturbed by the fault injector, if any) drives the plant for
// one physics step. It returns the command the plant actually ran.
//
// The observation is built only on steps that consume it — unless
// faults are injected: the injector's corruption state (e.g. a stuck
// sensor freezing the first value it observes) is call-timing-sensitive,
// so fault runs keep the exact per-step observation sequence.
func (l *controlLoop) step(i int) (cooling.Command, error) {
	observe := l.monitor != nil && i%l.snapSteps == 0
	decide := i%l.ctlSteps == 0
	if l.inj != nil || observe || decide {
		obs := l.env.observation()
		if l.inj != nil {
			l.inj.PerturbObservation(&obs)
		}
		if observe {
			l.monitor.Observe(obs)
		}
		if decide {
			decided, err := l.ctrl.Decide(obs)
			if err != nil {
				return cooling.Command{}, err
			}
			l.cmd = decided
		}
	}
	actual := l.cmd
	if l.inj != nil {
		actual = l.inj.Actuate(l.env.Now(), l.cmd)
	}
	return l.env.stepPhysics(actual, PhysicsStepSeconds)
}

// observation builds the controller-facing sensor snapshot.
func (e *Env) observation() control.Observation {
	out := e.outside()
	return control.Observation{
		Time:            e.now,
		Day:             dayOf(e.now),
		HourOfDay:       hourOfDay(e.now),
		Outside:         out,
		PodInlet:        append([]units.Celsius(nil), e.state.PodInlet...),
		PodActive:       e.Cluster.PodActive(),
		InsideRH:        e.state.RelHumidity(),
		Utilization:     e.Cluster.Utilization(),
		ITLoad:          e.Cluster.ITLoad(),
		Mode:            e.Plant.Mode(),
		FanSpeed:        e.Plant.FanSpeed(),
		CompressorSpeed: e.Plant.CompressorSpeed(),
	}
}

// countMetered counts completed jobs excluding warm-up submissions
// (whose IDs carry the 10_000+ day marker from withUniqueID).
func countMetered(recs []hadoopJobRecord) int {
	n := 0
	for i := range recs {
		if recs[i].Job.ID < 1_000_000_000 {
			n++
		}
	}
	return n
}

// fillTick writes one 2-minute sample into the reused scratch record;
// the recorder and Result.Series both take it from there.
func fillTick(t *trace.TickRecord, e *Env, eff cooling.Command, day int) {
	out := e.outside()
	*t = trace.TickRecord{
		Time:        e.now,
		Day:         int32(day),
		OutsideTemp: float64(out.Temp),
		OutsideRH:   float64(out.RH),
		InsideRH:    float64(e.state.RelHumidity()),
		Mode:        int32(eff.Mode),
		FanSpeed:    eff.FanSpeed,
		CompSpeed:   eff.CompressorSpeed,
		CoolingW:    float64(e.Plant.Power()),
		ITW:         float64(e.Cluster.ITPower()),
		Utilization: e.Cluster.Utilization(),
	}
	lo, hi := minMax(e.state.PodInlet)
	t.InletMin, t.InletMax = float64(lo), float64(hi)
	lo, hi = minMax(e.state.Disk)
	t.DiskMin, t.DiskMax = float64(lo), float64(hi)
}

// hottestOf returns the index and value of the warmest entry.
func hottestOf(v []units.Celsius) (int, units.Celsius) {
	if len(v) == 0 {
		return 0, 0
	}
	bi, bv := 0, v[0]
	for i, x := range v {
		if x > bv {
			bi, bv = i, x
		}
	}
	return bi, bv
}

func minMax(v []units.Celsius) (lo, hi units.Celsius) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
