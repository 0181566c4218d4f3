package cooling

import (
	"fmt"

	"coolair/internal/units"
)

// Plant is an installed cooling infrastructure: one free-cooling unit,
// one backup DX AC, and the exhaust damper, with the actuation dynamics
// (ramp limits) that distinguish Parasol from the smooth variant. It is
// the single point through which controllers touch the cooling hardware
// — the role of CoolAir's Cooling Configurer target.
//
// The zero value is not usable; construct with NewPlant.
type Plant struct {
	FC FreeCoolingUnit
	AC DXAirConditioner

	mode       Mode
	prevMode   Mode
	fanSpeed   float64 // actual, after ramp limiting
	compSpeed  float64 // actual, after ramp limiting
	compAge    float64 // seconds since the compressor last started
	energy     units.Joules
	modeEnergy [numModes]units.Joules
}

// NewPlant assembles a plant from device models. The plant starts
// closed.
func NewPlant(fc FreeCoolingUnit, ac DXAirConditioner) *Plant {
	return &Plant{FC: fc, AC: ac, mode: ModeClosed, prevMode: ModeClosed}
}

// ParasolPlant returns the plant as built in the paper's prototype.
func ParasolPlant() *Plant { return NewPlant(ParasolFreeCooling(), ParasolAC()) }

// SmoothPlant returns the fine-grained plant simulated by Smooth-Sim.
func SmoothPlant() *Plant { return NewPlant(SmoothFreeCooling(), SmoothAC()) }

// Step advances the plant by dt seconds toward the commanded state,
// honoring device ramp limits, and accrues cooling energy. It returns
// the effective state reached.
func (p *Plant) Step(cmd Command, dtSeconds float64) (Command, error) {
	if err := cmd.Validate(); err != nil {
		return Command{}, err
	}
	p.prevMode = p.mode
	p.mode = cmd.Mode

	// Free-cooling fan dynamics.
	targetFan := 0.0
	if cmd.Mode == ModeFreeCooling {
		targetFan = p.FC.ClampSpeed(cmd.FanSpeed)
		if targetFan == 0 {
			// A free-cooling command with zero speed means "open at
			// minimum" for Parasol semantics.
			targetFan = p.FC.MinSpeed
		}
	}
	p.fanSpeed = ramp(p.fanSpeed, targetFan, p.FC.RampUpPerMinute, p.FC.MinSpeed, dtSeconds)

	// AC compressor dynamics.
	targetComp := 0.0
	if cmd.Mode == ModeACCool {
		targetComp = p.AC.ClampCompressor(cmd.CompressorSpeed)
		if targetComp == 0 {
			targetComp = 1
		}
	}
	minComp := 0.15
	if !p.AC.VariableSpeed {
		minComp = 1
	}
	wasOff := p.compSpeed == 0
	p.compSpeed = ramp(p.compSpeed, targetComp, p.AC.RampUpPerMinute, minComp, dtSeconds)
	if p.compSpeed == 0 {
		p.compAge = 0
	} else if wasOff {
		p.compAge = dtSeconds
	} else {
		p.compAge += dtSeconds
	}

	pw := p.Power()
	p.energy.Add(pw, dtSeconds)
	p.modeEnergy[p.mode].Add(pw, dtSeconds)

	return Command{Mode: p.mode, FanSpeed: p.fanSpeed, CompressorSpeed: p.compSpeed}, nil
}

// ramp moves cur toward target. Ramp-up is limited to ratePerMinute
// (unlimited if zero) and starts from the device's floor when switching
// on from zero for rate-limited (smooth) devices; abrupt devices jump
// straight to the target. Ramp-down is always immediate ("straight from
// 15% to off").
func ramp(cur, target, ratePerMinute, floor, dtSeconds float64) float64 {
	if target <= cur {
		return target // shut-down and slow-down are immediate
	}
	if ratePerMinute <= 0 {
		return target
	}
	if cur == 0 {
		cur = floor // smooth units begin their ramp at the floor (1%)
	}
	next := cur + ratePerMinute*dtSeconds/60
	if next > target {
		next = target
	}
	return next
}

// PreviewSchedule returns the effective plant states that would result
// from holding cmd for steps intervals of dt seconds each, without
// mutating the plant. CoolAir's Cooling Predictor uses this to feed the
// learned models the fan/compressor speeds the hardware would actually
// reach (ramp limits included) rather than the commanded ones.
func (p *Plant) PreviewSchedule(cmd Command, dtSeconds float64, steps int) ([]Command, error) {
	return p.PreviewScheduleInto(nil, cmd, dtSeconds, steps)
}

// PreviewScheduleInto is the allocation-free form of PreviewSchedule:
// the schedule is appended to dst[:0] and the returned slice is valid
// until the caller reuses the buffer. The Cooling Optimizer previews
// every candidate regime every period, so buffer reuse here removes one
// slice allocation per candidate per decision.
//
// The preview evolves only the fan and compressor ramps — the parts of
// Step that determine the effective command. The ramp targets depend on
// the command alone (Step recomputes them identically every step), and
// the power/energy accounting a shadow plant would accrue is discarded
// with the copy, so skipping both yields bit-identical schedules at a
// fraction of Step's cost.
func (p *Plant) PreviewScheduleInto(dst []Command, cmd Command, dtSeconds float64, steps int) ([]Command, error) {
	if err := cmd.Validate(); err != nil {
		return nil, err
	}
	targetFan := 0.0
	if cmd.Mode == ModeFreeCooling {
		targetFan = p.FC.ClampSpeed(cmd.FanSpeed)
		if targetFan == 0 {
			targetFan = p.FC.MinSpeed
		}
	}
	targetComp := 0.0
	if cmd.Mode == ModeACCool {
		targetComp = p.AC.ClampCompressor(cmd.CompressorSpeed)
		if targetComp == 0 {
			targetComp = 1
		}
	}
	minComp := 0.15
	if !p.AC.VariableSpeed {
		minComp = 1
	}
	fan, comp := p.fanSpeed, p.compSpeed
	out := dst[:0]
	for i := 0; i < steps; i++ {
		fan = ramp(fan, targetFan, p.FC.RampUpPerMinute, p.FC.MinSpeed, dtSeconds)
		comp = ramp(comp, targetComp, p.AC.RampUpPerMinute, minComp, dtSeconds)
		out = append(out, Command{Mode: cmd.Mode, FanSpeed: fan, CompressorSpeed: comp})
	}
	return out, nil
}

// Mode returns the current commanded mode.
func (p *Plant) Mode() Mode { return p.mode }

// Transition returns the (previous → current) mode pair of the last
// Step, for selecting the matching learned model.
func (p *Plant) Transition() Transition { return Transition{From: p.prevMode, To: p.mode} }

// FanSpeed returns the actual free-cooling fan speed fraction.
func (p *Plant) FanSpeed() float64 { return p.fanSpeed }

// CompressorSpeed returns the actual AC compressor speed fraction.
func (p *Plant) CompressorSpeed() float64 { return p.compSpeed }

// DamperOpen reports whether outside air can flow through the container
// (true only under free cooling).
func (p *Plant) DamperOpen() bool { return p.mode == ModeFreeCooling }

// Airflow returns the outside-air mass flow through the container, kg/s.
func (p *Plant) Airflow() float64 {
	if !p.DamperOpen() {
		return 0
	}
	return p.FC.Airflow(p.fanSpeed)
}

// Power returns the current electrical draw of the cooling plant.
func (p *Plant) Power() units.Watts {
	switch p.mode {
	case ModeFreeCooling:
		return p.FC.Power(p.fanSpeed)
	case ModeACFan:
		return p.AC.Power(0)
	case ModeACCool:
		return p.AC.Power(p.compSpeed)
	default:
		return 0
	}
}

// HeatRemoval returns the AC's current sensible heat extraction rate
// (thermal watts). A direct-expansion compressor needs ~3 minutes after
// start-up before the evaporator reaches full capacity while drawing
// full power the whole time (Li & Deng's experimental DX
// characterization, the paper's AC power reference [26]); on/off
// cycling therefore pays a real efficiency penalty that steady
// variable-speed operation avoids.
func (p *Plant) HeatRemoval() units.Watts {
	if p.mode != ModeACCool {
		return 0
	}
	q := p.AC.HeatRemoval(p.compSpeed)
	const startupSeconds = 180
	if p.compAge < startupSeconds {
		frac := 0.4 + 0.6*p.compAge/startupSeconds
		q = units.Watts(float64(q) * frac)
	}
	return q
}

// RecirculationAirflow returns the internal air circulation driven by
// the AC fan (kg/s); it mixes the container air but exchanges nothing
// with outside.
func (p *Plant) RecirculationAirflow() float64 {
	if p.mode == ModeACFan || p.mode == ModeACCool {
		return 0.5
	}
	return 0
}

// Energy returns the cumulative cooling energy drawn since construction.
func (p *Plant) Energy() units.Joules { return p.energy }

// EnergyByMode returns the cumulative energy drawn in the given mode.
func (p *Plant) EnergyByMode(m Mode) units.Joules {
	if !m.Valid() {
		return 0
	}
	return p.modeEnergy[m]
}

// ResetEnergy zeroes the energy counters (e.g. between experiment runs).
func (p *Plant) ResetEnergy() {
	p.energy = 0
	p.modeEnergy = [numModes]units.Joules{}
}

// String summarizes the plant state.
func (p *Plant) String() string {
	return fmt.Sprintf("plant[%s fan=%.0f%% comp=%.0f%% %v]",
		p.mode, p.fanSpeed*100, p.compSpeed*100, p.Power())
}

// PlantState is the Plant's dynamic state in snapshot form: everything
// Step mutates, exported and gob-encodable so a run-state checkpoint
// can restore the plant mid-run (internal/store). The device models
// (FC, AC, Evap) are configuration, not state — a restored checkpoint
// is only valid against the same plant construction.
type PlantState struct {
	Mode, PrevMode  Mode
	FanSpeed        float64
	CompressorSpeed float64
	// CompressorAge is seconds since the compressor last started (the
	// DX warm-up ramp position).
	CompressorAge float64
	Energy        units.Joules
	// ModeEnergy is the per-mode cumulative energy, indexed by Mode.
	ModeEnergy []units.Joules
}

// StateSnapshot captures the plant's dynamic state for checkpointing.
func (p *Plant) StateSnapshot() PlantState {
	return PlantState{
		Mode:            p.mode,
		PrevMode:        p.prevMode,
		FanSpeed:        p.fanSpeed,
		CompressorSpeed: p.compSpeed,
		CompressorAge:   p.compAge,
		Energy:          p.energy,
		ModeEnergy:      append([]units.Joules(nil), p.modeEnergy[:]...),
	}
}

// RestoreState reinstates a snapshot taken by StateSnapshot. Unknown
// trailing mode-energy entries (from a build with more modes) are
// dropped; missing ones stay zero.
func (p *Plant) RestoreState(s PlantState) {
	p.mode = s.Mode
	p.prevMode = s.PrevMode
	p.fanSpeed = s.FanSpeed
	p.compSpeed = s.CompressorSpeed
	p.compAge = s.CompressorAge
	p.energy = s.Energy
	p.modeEnergy = [numModes]units.Joules{}
	copy(p.modeEnergy[:], s.ModeEnergy)
}
