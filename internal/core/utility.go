package core

import (
	"coolair/internal/cooling"
	"coolair/internal/model"
	"coolair/internal/trace"
	"coolair/internal/units"
)

// UtilityConfig selects which goals the utility function penalizes. The
// five CoolAir versions of Table 1 are different settings of these
// knobs.
type UtilityConfig struct {
	// MaxTemp, if nonzero, penalizes predicted temperatures above it
	// (1 penalty unit per 0.5°C per active-pod sensor per step).
	MaxTemp units.Celsius
	// UseBand penalizes predicted temperatures outside the current
	// band (1 per 0.5°C).
	UseBand bool
	// RateLimit penalizes predicted temperature change above this many
	// °C/hour (1 per 1°C/h over; paper limit 20).
	RateLimit float64
	// RHLo and RHHi bound relative humidity (1 per 5% outside; paper
	// keeps RH below 80%).
	RHLo, RHHi units.RelHumidity
	// ACFullPenalty is added once when the candidate turns the AC on at
	// full speed (the paper's fixed penalty for the most abrupt
	// actuation).
	ACFullPenalty float64
	// EnergyWeight, if positive, adds EnergyWeight × predicted cooling
	// power (kW) per step — the energy-conservation term of the
	// Temperature/Energy/All versions.
	EnergyWeight float64
	// CenterWeight adds a small pull toward the band center on the
	// predicted end state (per °C per pod). Without it the utility is
	// flat inside the band, the optimizer aims at the band edges, and
	// model error turns every period into an overshoot correction.
	CenterWeight float64
	// SwitchPenalty discourages regime flapping between periods (added
	// once when the candidate changes mode).
	SwitchPenalty float64
}

// DefaultUtility returns the penalty schedule shared by all versions.
func DefaultUtility() UtilityConfig {
	return UtilityConfig{
		RateLimit:     20,
		RHLo:          20,
		RHHi:          80,
		ACFullPenalty: 1,
		CenterWeight:  0.2,
		SwitchPenalty: 0.5,
	}
}

// PenaltyWithPowers scores one candidate regime from its predicted
// rollout. It implements the paper's utility function: the sum over the
// sensors of all active pods (and over the prediction horizon) of the
// penalties for absolute temperature, temperature variation, band
// violations, relative humidity, and AC abruptness, plus the optional
// energy term. Lower is better. powers[i] is the predicted cooling power
// of schedule[i]: the optimizer needs the same powers for its energy
// tie-break, so it predicts them once and shares them.
func (u UtilityConfig) PenaltyWithPowers(band Band, cur model.PredictorState, rollout []model.PredictorState,
	schedule []cooling.Command, podActive []bool, powers []units.Watts) float64 {
	return u.penalty(band, cur, rollout, schedule, podActive, powers, nil)
}

// PenaltyWithPowersDetail scores like PenaltyWithPowers and additionally
// fills terms with the per-term breakdown of the returned score. The
// breakdown mirrors each increment into its bucket without reordering
// the score's own accumulation, so the returned penalty is bit-identical
// to the untraced call — attaching a flight recorder can never flip a
// decision.
func (u UtilityConfig) PenaltyWithPowersDetail(band Band, cur model.PredictorState, rollout []model.PredictorState,
	schedule []cooling.Command, podActive []bool, powers []units.Watts, terms *trace.PenaltyTerms) float64 {
	return u.penalty(band, cur, rollout, schedule, podActive, powers, terms)
}

// penalty is the shared scoring core; terms, when non-nil, receives the
// per-term breakdown (it is reset first).
func (u UtilityConfig) penalty(band Band, cur model.PredictorState, rollout []model.PredictorState,
	schedule []cooling.Command, podActive []bool, powers []units.Watts, terms *trace.PenaltyTerms) float64 {

	if terms != nil {
		*terms = trace.PenaltyTerms{}
	}
	pen := 0.0
	for si, st := range rollout {
		for p, temp := range st.PodTemp {
			if p < len(podActive) && !podActive[p] {
				continue
			}
			tf := float64(temp)
			if u.MaxTemp != 0 {
				if tf > float64(u.MaxTemp) {
					v := (tf - float64(u.MaxTemp)) / 0.5
					pen += v
					if terms != nil {
						terms.AbsTemp += v
					}
				}
				// Soft shoulder below the maximum: aim ~2°C under it
				// so prediction error does not convert directly into
				// violations (the paper's Temperature version likewise
				// targets a setpoint below the desired maximum).
				if sh := tf - (float64(u.MaxTemp) - 1.5); sh > 0 {
					v := 0.5 * sh
					pen += v
					if terms != nil {
						terms.AbsTemp += v
					}
				}
			}
			if u.UseBand {
				if tf > float64(band.Hi) {
					v := (tf - float64(band.Hi)) / 0.5
					pen += v
					if terms != nil {
						terms.Band += v
					}
				} else if tf < float64(band.Lo) {
					v := (float64(band.Lo) - tf) / 0.5
					pen += v
					if terms != nil {
						terms.Band += v
					}
				}
			}
		}
		rh := float64(st.RelHumidity())
		if rh > float64(u.RHHi) {
			v := (rh - float64(u.RHHi)) / 5.0
			pen += v
			if terms != nil {
				terms.RH += v
			}
		} else if rh < float64(u.RHLo) {
			v := (float64(u.RHLo) - rh) / 5.0
			pen += v
			if terms != nil {
				terms.RH += v
			}
		}
		if u.EnergyWeight > 0 && si < len(schedule) {
			v := u.EnergyWeight * powers[si].Kilowatts()
			pen += v
			if terms != nil {
				terms.Energy += v
			}
		}
	}
	// Rate-of-change is assessed over the whole horizon, matching the
	// hourly basis of ASHRAE's 20°C/hour recommendation — a per-step
	// application would forbid the very correction moves that bring
	// temperatures back inside the band.
	if u.RateLimit > 0 && len(rollout) > 0 {
		horizonHours := float64(len(rollout)) * model.ModelStepSeconds / 3600
		last := rollout[len(rollout)-1]
		for p := range last.PodTemp {
			if p < len(podActive) && !podActive[p] {
				continue
			}
			if p >= len(cur.PodTemp) {
				continue
			}
			start := float64(cur.PodTemp[p])
			end := float64(last.PodTemp[p])
			// Emergency-recovery exemption: a pod stranded far outside
			// the target region must be allowed to move back faster
			// than the steady-state rate limit, or the optimizer
			// deadlocks on "any correction is a variation violation".
			if dev := u.deviation(band, start); dev > 2.5 && u.deviation(band, end) < dev {
				continue
			}
			ratePerHour := abs(end-start) / horizonHours
			if ratePerHour > u.RateLimit {
				v := (ratePerHour - u.RateLimit) * float64(len(rollout))
				pen += v
				if terms != nil {
					terms.Rate += v
				}
			}
		}
	}
	if len(schedule) > 0 {
		first := schedule[0]
		if first.Mode == cooling.ModeACCool && first.CompressorSpeed >= 0.99 && cur.Mode != cooling.ModeACCool {
			pen += u.ACFullPenalty
			if terms != nil {
				terms.ACStart += u.ACFullPenalty
			}
		}
		if u.SwitchPenalty > 0 && first.Mode != cur.Mode {
			pen += u.SwitchPenalty
			if terms != nil {
				terms.Switch += u.SwitchPenalty
			}
		}
	}
	if u.CenterWeight > 0 && u.UseBand && len(rollout) > 0 {
		center := (float64(band.Lo) + float64(band.Hi)) / 2
		last := rollout[len(rollout)-1]
		for p, t := range last.PodTemp {
			if p < len(podActive) && !podActive[p] {
				continue
			}
			v := u.CenterWeight * abs(float64(t)-center)
			pen += v
			if terms != nil {
				terms.Center += v
			}
		}
	}
	return pen
}

// deviation returns how far t sits outside the version's target region
// (the band, or everything below MaxTemp), in °C; 0 when inside.
func (u UtilityConfig) deviation(band Band, t float64) float64 {
	switch {
	case u.UseBand:
		if t > float64(band.Hi) {
			return t - float64(band.Hi)
		}
		if t < float64(band.Lo) {
			return float64(band.Lo) - t
		}
	case u.MaxTemp != 0:
		if t > float64(u.MaxTemp) {
			return t - float64(u.MaxTemp)
		}
	}
	return 0
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
