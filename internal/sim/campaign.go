package sim

import (
	"context"
	"math/rand"

	"coolair/internal/cooling"
	"coolair/internal/model"
	"coolair/internal/tks"
	"coolair/internal/units"
	"coolair/internal/workload"
)

// CollectTrainingDataContext reproduces the Cooling Modeler's
// data-collection campaign (paper §4.2): the datacenter runs under the
// default TKS controller while the campaign "intentionally generates
// extreme situations by changing the cooling setup (e.g., temperature
// setpoint)" — here the setpoint is re-randomized every few hours,
// regimes are occasionally forced outright, and the active-server count
// is varied so the learned models see the whole operating envelope.
// Snapshots are logged every model step (2 minutes). The campaign checks
// ctx between physics steps and returns ctx.Err() promptly, so a daemon
// interrupted during boot-time training exits on SIGTERM instead of
// finishing the remaining campaign days.
func (e *Env) CollectTrainingDataContext(ctx context.Context, days int, trace *workload.Trace, seed int64) (*model.Logger, error) {
	rng := rand.New(rand.NewSource(seed))
	logger := model.NewLogger(len(e.Container.Pods))
	ctrl := tks.New(tks.Config{})

	var cmd cooling.Command
	var override *cooling.Command
	nextPerturb := 0.0
	stepsPerSnap := int(model.ModelStepSeconds / PhysicsStepSeconds)
	stepsPerCtl := int(ctrl.Period() / PhysicsStepSeconds)

	start := e.now
	total := int(float64(days) * 86400 / PhysicsStepSeconds)
	next := 0
	var jobs []workload.Job
	if trace != nil {
		jobs = trace.Jobs
	}

	eff := cooling.Command{Mode: cooling.ModeClosed}
	for i := 0; i < total; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		elapsed := e.now - start
		dayTime := elapsed - float64(int(elapsed/86400))*86400

		// Perturbation schedule: every 2–6 hours choose a new setpoint
		// (16–32°C), or force a regime outright for a while, and
		// re-size the active set.
		if elapsed >= nextPerturb {
			nextPerturb = elapsed + 1200 + rng.Float64()*3600
			if rng.Float64() < 0.35 {
				forced := randomRegime(rng, e.Plant)
				override = &forced
			} else {
				override = nil
				sp := units.Celsius(16 + rng.Float64()*16)
				ctrl = tks.New(tks.Config{Setpoint: sp})
			}
			target := e.Cluster.CoveringSubsetSize() +
				rng.Intn(len(e.Cluster.Servers)-e.Cluster.CoveringSubsetSize()+1)
			if err := e.Cluster.SetActiveTarget(target); err != nil {
				return nil, err
			}
		}

		// Submit the day's workload (repeated daily).
		for trace != nil && next < len(jobs) && jobs[next].Arrival <= dayTime {
			e.Cluster.Submit(withUniqueID(jobs[next], int(elapsed/86400)))
			next++
		}
		if trace != nil && next >= len(jobs) && dayTime < 60 {
			next = 0 // new day: replay the trace
		}

		if i%stepsPerCtl == 0 {
			obs := e.observation()
			decided, err := ctrl.Decide(obs)
			if err != nil {
				return nil, err
			}
			cmd = decided
			if override != nil {
				cmd = *override
			}
		}
		var err error
		eff, err = e.stepPhysics(cmd, PhysicsStepSeconds)
		if err != nil {
			return nil, err
		}
		if (i+1)%stepsPerSnap == 0 {
			if err := logger.Record(e.snapshot(eff)); err != nil {
				return nil, err
			}
		}
	}
	return logger, nil
}

// randomRegime draws a forced extreme regime matching the plant's
// granularity.
func randomRegime(rng *rand.Rand, plant *cooling.Plant) cooling.Command {
	switch rng.Intn(4) {
	case 0:
		return cooling.Command{Mode: cooling.ModeClosed}
	case 1:
		speed := plant.FC.MinSpeed + (1-plant.FC.MinSpeed)*rng.Float64()
		return cooling.Command{Mode: cooling.ModeFreeCooling, FanSpeed: speed}
	case 2:
		return cooling.Command{Mode: cooling.ModeACFan}
	default:
		comp := 1.0
		if plant.AC.VariableSpeed {
			comp = 0.15 + 0.85*rng.Float64()
		}
		return cooling.Command{Mode: cooling.ModeACCool, CompressorSpeed: comp}
	}
}

// withUniqueID disambiguates replayed jobs across days.
func withUniqueID(j workload.Job, day int) workload.Job {
	j.ID = j.ID + day*1_000_000
	return j
}

// Train runs the data-collection campaign and fits the Cooling Model,
// storing it on the environment. The paper collects 1.5 months of data;
// trainDays of 4–7 with forced extremes cover the same regime space in
// simulation.
func (e *Env) Train(trainDays int, trace *workload.Trace, seed int64) error {
	return e.TrainContext(context.Background(), trainDays, trace, seed)
}

// TrainContext is Train with cancellation (see
// CollectTrainingDataContext).
func (e *Env) TrainContext(ctx context.Context, trainDays int, trace *workload.Trace, seed int64) error {
	logger, err := e.CollectTrainingDataContext(ctx, trainDays, trace, seed)
	if err != nil {
		return err
	}
	m, err := model.Fit(logger, model.LearnerOptions{Seed: seed})
	if err != nil {
		return err
	}
	e.Model = m
	return nil
}
