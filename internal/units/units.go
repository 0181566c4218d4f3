// Package units provides the physical quantities used throughout the
// CoolAir library: temperatures, humidity (with full psychrometric
// conversions), power, and energy.
//
// All temperatures are in degrees Celsius, powers in watts, and energies
// in joules unless a type or function says otherwise. The types are thin
// named float64s so arithmetic stays natural, while method sets carry the
// domain conversions (e.g. relative humidity from absolute humidity and
// dry-bulb temperature).
package units

import (
	"fmt"
	"math"
)

// Celsius is a dry-bulb air temperature in degrees Celsius.
type Celsius float64

// Kelvin converts the temperature to kelvins.
func (c Celsius) Kelvin() float64 { return float64(c) + 273.15 }

// Fahrenheit converts the temperature to degrees Fahrenheit.
func (c Celsius) Fahrenheit() float64 { return float64(c)*9/5 + 32 }

// String implements fmt.Stringer (e.g. "23.5°C").
func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// Clamp bounds the temperature to [lo, hi].
func (c Celsius) Clamp(lo, hi Celsius) Celsius {
	if c < lo {
		return lo
	}
	if c > hi {
		return hi
	}
	return c
}

// Watts is an instantaneous electrical or thermal power.
type Watts float64

// Kilowatts returns the power in kilowatts.
func (w Watts) Kilowatts() float64 { return float64(w) / 1000 }

// String implements fmt.Stringer, choosing W or kW as appropriate.
func (w Watts) String() string {
	if math.Abs(float64(w)) >= 1000 {
		return fmt.Sprintf("%.2fkW", float64(w)/1000)
	}
	return fmt.Sprintf("%.0fW", float64(w))
}

// Joules is an amount of energy.
type Joules float64

// KWh returns the energy in kilowatt-hours.
func (j Joules) KWh() float64 { return float64(j) / 3.6e6 }

// JoulesFromKWh converts kilowatt-hours to Joules.
func JoulesFromKWh(kwh float64) Joules { return Joules(kwh * 3.6e6) }

// String implements fmt.Stringer, printing kWh for readability.
func (j Joules) String() string { return fmt.Sprintf("%.2fkWh", j.KWh()) }

// Add accumulates power drawn over dt seconds into the energy counter.
func (j *Joules) Add(p Watts, dtSeconds float64) { *j += Joules(float64(p) * dtSeconds) }

// RelHumidity is a relative humidity in percent (0–100).
type RelHumidity float64

// Fraction returns the relative humidity as a 0–1 fraction.
func (rh RelHumidity) Fraction() float64 { return float64(rh) / 100 }

// Clamp bounds the relative humidity to the physical range [0, 100].
func (rh RelHumidity) Clamp() RelHumidity {
	if rh < 0 {
		return 0
	}
	if rh > 100 {
		return 100
	}
	return rh
}

// String implements fmt.Stringer (e.g. "65.0%RH").
func (rh RelHumidity) String() string { return fmt.Sprintf("%.1f%%RH", float64(rh)) }

// AbsHumidity is a humidity ratio (mass of water vapor per mass of dry
// air), in kg/kg. Absolute humidity is conserved when air is heated or
// cooled without condensation, which is why CoolAir's humidity model
// (paper §3.1) works in absolute terms and converts to relative humidity
// at the predicted temperature.
type AbsHumidity float64

// GramsPerKg returns the humidity ratio in g/kg, the unit usually quoted
// on psychrometric charts.
func (w AbsHumidity) GramsPerKg() float64 { return float64(w) * 1000 }

// String implements fmt.Stringer (e.g. "10.2g/kg").
func (w AbsHumidity) String() string { return fmt.Sprintf("%.1fg/kg", w.GramsPerKg()) }

// AtmospherePa is standard sea-level atmospheric pressure in pascals.
const AtmospherePa = 101325.0

// SaturationVaporPressure returns the saturation partial pressure of
// water vapor (Pa) at temperature t, using the Magnus-Tetens
// approximation (accurate to ~0.1% between −40°C and 50°C).
func SaturationVaporPressure(t Celsius) float64 {
	return 610.94 * math.Exp(17.625*float64(t)/(float64(t)+243.04))
}

// DewPoint returns the dew-point temperature for air at temperature t and
// relative humidity rh, by inverting the Magnus formula.
func DewPoint(t Celsius, rh RelHumidity) Celsius {
	f := rh.Fraction()
	if f < 1e-6 {
		f = 1e-6
	}
	gamma := math.Log(f) + 17.625*float64(t)/(float64(t)+243.04)
	return Celsius(243.04 * gamma / (17.625 - gamma))
}

// WetBulb approximates the wet-bulb temperature for air at dry-bulb
// temperature t and relative humidity rh, using Stull's 2011 empirical
// fit (accurate to ~0.3°C for 5–99% RH). The wet-bulb temperature is the
// lower limit adiabatic (evaporative) cooling can reach.
func WetBulb(t Celsius, rh RelHumidity) Celsius {
	T := float64(t)
	RH := float64(rh.Clamp())
	tw := T*math.Atan(0.151977*math.Sqrt(RH+8.313659)) +
		math.Atan(T+RH) - math.Atan(RH-1.676331) +
		0.00391838*math.Pow(RH, 1.5)*math.Atan(0.023101*RH) - 4.686035
	if tw > T {
		tw = T
	}
	return Celsius(tw)
}

// AbsFromRel converts relative humidity at dry-bulb temperature t to a
// humidity ratio, assuming standard atmospheric pressure.
func AbsFromRel(t Celsius, rh RelHumidity) AbsHumidity {
	pv := rh.Fraction() * SaturationVaporPressure(t)
	if pv >= AtmospherePa {
		pv = AtmospherePa * 0.99
	}
	return AbsHumidity(0.62198 * pv / (AtmospherePa - pv))
}

// RelFromAbs converts a humidity ratio to relative humidity at dry-bulb
// temperature t, clamped to [0, 100]%.
func RelFromAbs(t Celsius, w AbsHumidity) RelHumidity {
	if w <= 0 {
		return 0
	}
	pv := AtmospherePa * float64(w) / (0.62198 + float64(w))
	rh := RelHumidity(100 * pv / SaturationVaporPressure(t))
	return rh.Clamp()
}

// SaturationAbsHumidity returns the humidity ratio of saturated air at
// temperature t (the most moisture air at t can hold).
func SaturationAbsHumidity(t Celsius) AbsHumidity { return AbsFromRel(t, 100) }

// Air-side constants used by the thermal substrate.
const (
	// AirDensity is the density of air at ~20°C, kg/m³.
	AirDensity = 1.204
	// AirSpecificHeat is the specific heat of air, J/(kg·K).
	AirSpecificHeat = 1005.0
)

// PUE computes a Power Usage Effectiveness from IT energy, cooling
// energy, and a fractional power-delivery overhead (the paper uses 0.08
// for Parasol). IT energy of zero yields a PUE of 1+delivery to avoid
// dividing by zero on idle intervals.
func PUE(itEnergy, coolingEnergy Joules, deliveryOverhead float64) float64 {
	if itEnergy <= 0 {
		return 1 + deliveryOverhead
	}
	return 1 + deliveryOverhead + float64(coolingEnergy)/float64(itEnergy)
}

// Lerp linearly interpolates between a and b by fraction f in [0,1].
func Lerp(a, b, f float64) float64 { return a + (b-a)*f }

// Clamp01 bounds f to [0, 1].
func Clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
