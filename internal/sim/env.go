// Package sim is the simulation engine of the evaluation: it wires the
// weather substrate, the container physics, a cooling plant, the Hadoop
// cluster, and a controller into time-stepped runs. Configured with the
// Parasol plant it is the paper's Real-Sim; with the fine-grained plant
// it is Smooth-Sim — the two share all code except the device models,
// exactly as the paper's simulators "repeatedly call the same code".
package sim

import (
	"fmt"

	"coolair/internal/cooling"
	"coolair/internal/hadoop"
	"coolair/internal/model"
	"coolair/internal/physics"
	"coolair/internal/units"
	"coolair/internal/weather"
)

// Fidelity selects which cooling infrastructure the simulated
// datacenter has installed.
type Fidelity int

const (
	// RealSim simulates Parasol as built: 15% minimum fan speed with
	// abrupt regime changes, fixed-speed AC compressor.
	RealSim Fidelity = iota
	// SmoothSim simulates the fine-grained commercial infrastructure:
	// 1% fan ramp, variable-speed compressor.
	SmoothSim
)

// String implements fmt.Stringer.
func (f Fidelity) String() string {
	if f == SmoothSim {
		return "smooth-sim"
	}
	return "real-sim"
}

// PhysicsStepSeconds is the integration step of the ground truth.
const PhysicsStepSeconds = 30

// Env is an assembled simulated datacenter: one climate, one container,
// one plant, one cluster. Controllers and runs are layered on top.
type Env struct {
	Climate   weather.Climate
	Series    *weather.Series
	Forecast  weather.Forecaster
	Container *physics.Container
	Plant     *cooling.Plant
	Cluster   *hadoop.Cluster
	// Model is populated by Train (or assigned from a shared fit).
	Model *model.Model
	// Tapes, when non-nil, lets Run simulate the cluster once per set of
	// inputs and replay it in later runs (see TapeStore).
	Tapes *TapeStore

	state *physics.State
	now   float64 // absolute seconds since Jan 1 00:00

	// outCond memoizes Series.Sample(now): the physics step, the
	// controller observation, and the metric collectors all read the
	// outside conditions at the same instant, and the sample carries
	// the RH→absolute conversion with it (see weather.Conditions.Abs).
	outAt   float64
	outCond weather.Conditions
	outOK   bool

	// stepPhysics scratch: the physics inputs only read these during the
	// step, so the buffers are reused every tick (snapshots, which retain
	// their pod powers, use the allocating accessors instead).
	podPowerBuf []units.Watts
	podDiskBuf  []float64
}

// outside returns the outside conditions at the current simulation
// instant, sampling the series once per distinct tick time.
func (e *Env) outside() weather.Conditions {
	// Exact equality is the memo key: ticks reuse the literal same
	// timestamp, not one recomputed through float arithmetic.
	if !e.outOK || e.outAt != e.now { //coolair:allow-floateq same-tick memo key

		e.outCond = e.Series.Sample(e.now)
		e.outAt = e.now
		e.outOK = true
	}
	return e.outCond
}

// NewEnv builds a Parasol-like datacenter at the given climate.
func NewEnv(cl weather.Climate, fid Fidelity) (*Env, error) {
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	cont := physics.Parasol()
	sizes := make([]int, len(cont.Pods))
	for i, p := range cont.Pods {
		sizes[i] = p.Servers
	}
	cluster, err := hadoop.NewCluster(sizes)
	if err != nil {
		return nil, err
	}
	series := weather.TMY(cl)
	var plant *cooling.Plant
	if fid == SmoothSim {
		plant = cooling.SmoothPlant()
	} else {
		plant = cooling.ParasolPlant()
	}
	env := &Env{
		Climate:   cl,
		Series:    series,
		Forecast:  weather.PerfectForecast{Series: series},
		Container: cont,
		Plant:     plant,
		Cluster:   cluster,
	}
	env.state = cont.NewState(series.Sample(0))
	return env, nil
}

// SetForecast replaces the forecaster (e.g. with a biased one for the
// forecast-accuracy study).
func (e *Env) SetForecast(f weather.Forecaster) { e.Forecast = f }

// Now returns the absolute simulation time in seconds.
func (e *Env) Now() float64 { return e.now }

// State exposes the current physical state (read-only use).
func (e *Env) State() *physics.State { return e.state }

// stepPhysics advances the plant and the container by one physics step
// under the given cooling command, returning the effective plant state.
func (e *Env) stepPhysics(cmd cooling.Command, dt float64) (cooling.Command, error) {
	eff, err := e.Plant.Step(cmd, dt)
	if err != nil {
		return eff, err
	}
	e.podPowerBuf = e.Cluster.PodPowerInto(e.podPowerBuf)
	e.podDiskBuf = e.Cluster.PodDiskUtilInto(e.podDiskBuf)
	in := physics.Inputs{
		Outside:     e.outside(),
		HourOfDay:   hourOfDay(e.now),
		PodPower:    e.podPowerBuf,
		PodDiskUtil: e.podDiskBuf,
		Airflow:     e.Plant.Airflow(),
		RecircFlow:  e.Plant.RecirculationAirflow(),
		HeatRemoval: e.Plant.HeatRemoval(),
		CoilTemp:    e.Plant.AC.CoilTemp,
	}
	if err := e.Container.Step(e.state, in, dt); err != nil {
		return eff, err
	}
	e.Cluster.Step(dt)
	if err := e.Cluster.TapeErr(); err != nil {
		return eff, err
	}
	e.Cluster.AccrueEnergy(dt)
	e.now += dt
	return eff, nil
}

func hourOfDay(now float64) float64 {
	day := now / 86400
	return (day - float64(int(day))) * 24
}

func dayOf(now float64) int { return int(now / 86400) }

// snapshot captures the Modeler-facing monitoring sample at the current
// instant.
func (e *Env) snapshot(eff cooling.Command) model.Snapshot {
	out := e.outside()
	return model.Snapshot{
		Time:         e.now,
		Mode:         eff.Mode,
		FanSpeed:     eff.FanSpeed,
		CompSpeed:    eff.CompressorSpeed,
		OutsideTemp:  out.Temp,
		OutsideAbs:   out.Abs(),
		PodTemp:      append([]units.Celsius(nil), e.state.PodInlet...),
		InsideAbs:    e.state.Abs,
		Utilization:  e.Cluster.Utilization(),
		ITLoad:       e.Cluster.ITLoad(),
		PodPower:     e.Cluster.PodPower(),
		CoolingPower: e.Plant.Power(),
	}
}

// WeekdaySample returns the paper's year-sampling: the first day of each
// of the 52 weeks.
func WeekdaySample() []int {
	days := make([]int, 52)
	for w := range days {
		days[w] = w * 7
	}
	return days
}

// ErrNoModel is returned by runs that require a trained model.
var ErrNoModel = fmt.Errorf("sim: environment has no trained model (call Train first)")
