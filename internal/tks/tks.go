// Package tks reimplements Parasol's commercial TKS 3000 cooling
// controller (paper §4.1) and the paper's extended baseline system. The
// TKS selects between a Low Outside Temperature (LOT) mode — free
// cooling as much as possible — and a High Outside Temperature (HOT)
// mode — container closed, AC cycling — based on how the outside
// temperature compares to a configurable setpoint, with 1°C hysteresis.
//
// The baseline system of the evaluation (§5.1) is this controller with
// the setpoint raised to 30°C and a relative-humidity limit of 80%
// added.
package tks

import (
	"math"

	"coolair/internal/control"
	"coolair/internal/cooling"
	"coolair/internal/trace"
	"coolair/internal/units"
)

// Config parameterizes the TKS control scheme.
type Config struct {
	// Setpoint is SP: the temperature the controller protects (25°C
	// factory default; the baseline uses 30°C).
	Setpoint units.Celsius
	// PBand is P: in LOT mode, free cooling runs while the control
	// sensor reads between SP−P and SP (default 5°C).
	PBand units.Celsius
	// Hysteresis is applied around the setpoint for LOT/HOT switching
	// (default 1°C).
	Hysteresis units.Celsius
	// ACCycleLow: in HOT mode the compressor stops below SP−ACCycleLow
	// (default 2°C) and restarts above SP.
	ACCycleLow units.Celsius
	// CloseTemp is the low-temperature threshold below which the TKS
	// turns free cooling off and seals the container so recirculation
	// warms it back up (default 15°C). Between CloseTemp and SP−P the
	// unit keeps ventilating at minimum speed — free cooling is the
	// default state, closing is the cold-protection exception.
	CloseTemp units.Celsius
	// HumidityLimit, if positive, adds the baseline's RH control: when
	// inside RH exceeds the limit the controller picks the regime that
	// dries the cold aisle.
	HumidityLimit units.RelHumidity
	// PeriodSeconds is the control cadence (default 600 s: the paper's
	// simulators evaluate the baseline at the same 10-minute regime
	// granularity as CoolAir).
	PeriodSeconds float64
	// Label overrides the reported name.
	Label string
}

func (c Config) withDefaults() Config {
	if c.Setpoint == 0 {
		c.Setpoint = 25
	}
	if c.PBand == 0 {
		c.PBand = 5
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 1
	}
	if c.ACCycleLow == 0 {
		c.ACCycleLow = 2
	}
	if c.CloseTemp == 0 {
		c.CloseTemp = 15
	}
	if c.PeriodSeconds == 0 {
		c.PeriodSeconds = 600
	}
	if c.Label == "" {
		c.Label = "tks"
	}
	return c
}

// Controller is the TKS state machine. It implements control.Controller
// and trace.Traceable.
type Controller struct {
	cfg Config
	// hot is the LOT/HOT latch (with hysteresis).
	hot bool
	// compressorOn is the AC cycling latch.
	compressorOn bool

	// Flight recorder: the TKS has no candidate scoring, so its records
	// carry only the chosen regime and the observed hottest inlet. drec
	// is struct-held scratch, keeping the emit allocation-free.
	rec  trace.Recorder
	drec trace.DecisionRecord
}

// SetRecorder implements trace.Traceable: subsequent decisions emit
// minimal trace.DecisionRecords (no candidates) to r, so a baseline
// serve session flips readiness and streams decisions just like a
// CoolAir one.
func (c *Controller) SetRecorder(r trace.Recorder) { c.rec = r }

// emitDecision records one TKS decision. No-op when tracing is off.
func (c *Controller) emitDecision(obs control.Observation, cmd cooling.Command) {
	if c.rec == nil {
		return
	}
	c.drec = trace.DecisionRecord{
		Time:          obs.Time,
		Day:           int32(obs.Day),
		Source:        trace.SourceController,
		PeriodSeconds: c.cfg.PeriodSeconds,
		Winner:        -1,
		Mode:          int32(cmd.Mode),
		FanSpeed:      cmd.FanSpeed,
		CompSpeed:     cmd.CompressorSpeed,
	}
	if hot, ok := obs.MaxPodInlet(); ok {
		c.drec.ActualHottest = float64(hot)
	} else {
		c.drec.ActualHottest = math.NaN()
	}
	c.rec.RecordDecision(&c.drec)
}

// New creates a TKS controller with factory defaults filled in.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults()}
}

// Baseline returns the paper's baseline system: TKS scheme, setpoint
// 30°C, RH ≤ 80%.
func Baseline() *Controller {
	return New(Config{Setpoint: 30, HumidityLimit: 80, Label: "baseline"})
}

// Name implements control.Controller.
func (c *Controller) Name() string { return c.cfg.Label }

// Period implements control.Controller.
func (c *Controller) Period() float64 { return c.cfg.PeriodSeconds }

// Decide implements control.Controller.
func (c *Controller) Decide(obs control.Observation) (cooling.Command, error) {
	sp := c.cfg.Setpoint

	// LOT/HOT selection on outside temperature with hysteresis.
	if c.hot {
		if obs.Outside.Temp < sp-c.cfg.Hysteresis {
			c.hot = false
		}
	} else {
		if obs.Outside.Temp > sp+c.cfg.Hysteresis {
			c.hot = true
		}
	}

	inside, ok := obs.MaxPodInlet()
	if !ok {
		cmd := cooling.Command{Mode: cooling.ModeClosed}
		c.emitDecision(obs, cmd)
		return cmd, nil
	}

	var cmd cooling.Command
	if c.hot {
		cmd = c.decideHOT(inside)
	} else {
		cmd = c.decideLOT(inside, obs.Outside.Temp)
	}

	// Baseline humidity extension: override toward a drying regime.
	if c.cfg.HumidityLimit > 0 && obs.InsideRH > c.cfg.HumidityLimit {
		cmd = c.decideHumidity(cmd, obs)
	}
	c.emitDecision(obs, cmd)
	return cmd, nil
}

// decideHOT implements the AC cycle: compressor on above SP, off below
// SP−ACCycleLow, fan-only in between (latched).
func (c *Controller) decideHOT(inside units.Celsius) cooling.Command {
	if inside > c.cfg.Setpoint {
		c.compressorOn = true
	} else if inside < c.cfg.Setpoint-c.cfg.ACCycleLow {
		c.compressorOn = false
	}
	if c.compressorOn {
		return cooling.Command{Mode: cooling.ModeACCool, CompressorSpeed: 1}
	}
	return cooling.Command{Mode: cooling.ModeACFan}
}

// decideLOT implements the free-cooling logic: below CloseTemp the
// container seals (recirculation warms it back up); between CloseTemp
// and SP−P it ventilates at minimum speed; within the P-band the fan
// speed grows as inside and outside temperatures converge ("the closer
// the two temperatures are, the faster the fan blows"); above SP the
// fan runs flat out.
func (c *Controller) decideLOT(inside, outside units.Celsius) cooling.Command {
	c.compressorOn = false
	low := c.cfg.Setpoint - c.cfg.PBand
	switch {
	case inside < c.cfg.CloseTemp:
		return cooling.Command{Mode: cooling.ModeClosed}
	case inside < low:
		return cooling.Command{Mode: cooling.ModeFreeCooling, FanSpeed: 0.15}
	case inside >= c.cfg.Setpoint:
		return cooling.Command{Mode: cooling.ModeFreeCooling, FanSpeed: 1}
	default:
		diff := float64(inside - outside)
		if diff < 0 {
			diff = 0
		}
		// At ≥12°C of driving difference the minimum speed suffices;
		// as the difference vanishes the fan must work harder.
		speed := 1 - diff/12
		if speed < 0.15 {
			speed = 0.15
		}
		if speed > 1 {
			speed = 1
		}
		return cooling.Command{Mode: cooling.ModeFreeCooling, FanSpeed: speed}
	}
}

// decideHumidity picks a drying regime when inside RH exceeds the
// limit: ventilate if the outside air is drier in absolute terms,
// otherwise close up and let server heat lower the relative humidity
// (or condense on the AC coil if already in HOT mode).
func (c *Controller) decideHumidity(cur cooling.Command, obs control.Observation) cooling.Command {
	inside, _ := obs.MaxPodInlet()
	insideAbs := units.AbsFromRel(inside, obs.InsideRH)
	outsideAbs := obs.Outside.Abs()
	if outsideAbs < insideAbs {
		// Outside air is drier: flush with free cooling.
		return cooling.Command{Mode: cooling.ModeFreeCooling, FanSpeed: 1}
	}
	if c.hot {
		// AC compressor condenses moisture.
		c.compressorOn = true
		return cooling.Command{Mode: cooling.ModeACCool, CompressorSpeed: 1}
	}
	// Seal the container; recirculated server heat lowers RH.
	return cooling.Command{Mode: cooling.ModeClosed}
}
