package experiments

import (
	"fmt"
	"strings"

	"coolair/internal/core"
	"coolair/internal/metrics"
	"coolair/internal/weather"
)

// TemporalStudy is §5.2 "Temporal scheduling": All-ND (no temporal
// scheduling) vs All-DEF (CoolAir's band-aware scheduling) vs Energy-DEF
// (prior-work coolest-hours scheduling). The paper's finding: All-DEF
// barely helps; Energy-DEF saves some PUE but widens maximum ranges
// beyond even the baseline (Newark 10→19°C for PUE 1.17→1.13).
type TemporalStudy struct {
	Grid
}

// RunTemporalStudy runs the deferrable-workload comparison.
func (l *Lab) RunTemporalStudy(cls []weather.Climate, yearDays int) (*TemporalStudy, error) {
	if cls == nil {
		cls = weather.StudyLocations()
	}
	systems := []System{
		BaselineSystem(),
		CoolAirSystem(core.VersionAllND),
		CoolAirSystem(core.VersionAllDEF),
		CoolAirSystem(core.VersionEnergyDEF),
	}
	g, err := l.runStudy(cls, systems, yearDays, l.Facebook())
	if err != nil {
		return nil, err
	}
	return &TemporalStudy{g}, nil
}

// Table renders max ranges and PUEs per system.
func (s *TemporalStudy) Table() string {
	return s.table("§5.2 — Temporal scheduling (max daily range °C / PUE)", 12, 16,
		func(c metrics.Summary) string { return fmt.Sprintf("%8.1f /%6.3f", c.MaxWorstDailyRange, c.PUE) })
}

// CostStudy is §5.2 "Cost of managing temperature and variation": the
// yearly cooling-energy cost of lowering absolute temperature by 1°C
// and of reducing the maximum daily range by 1°C, per location.
//
// Cost of absolute temperature: the extra cooling energy the Temperature
// version (setpoint one degree below Max) pays over the Energy version
// (setpoint at Max), per degree of setpoint.
// Cost of variation: the extra cooling energy the All-ND version pays
// over the Energy version, per degree of maximum-range reduction.
type CostStudy struct {
	Locations []string
	// KWhPerDegTemp and KWhPerDegRange are the two costs.
	KWhPerDegTemp  []float64
	KWhPerDegRange []float64
}

// RunCostStudy computes both costs at each location.
func (l *Lab) RunCostStudy(cls []weather.Climate, yearDays int) (*CostStudy, error) {
	if cls == nil {
		cls = weather.StudyLocations()
	}
	systems := []System{
		CoolAirSystem(core.VersionEnergy),
		CoolAirSystem(core.VersionTemperature),
		CoolAirSystem(core.VersionAllND),
	}
	g, err := l.runStudy(cls, systems, yearDays, l.Facebook())
	if err != nil {
		return nil, err
	}
	st := &CostStudy{Locations: g.Locations}
	for _, row := range g.Cells {
		energy, temp, allnd := row[0], row[1], row[2]

		// Temperature targets Max−1 vs Energy's Max: per-degree cost.
		st.KWhPerDegTemp = append(st.KWhPerDegTemp, scaleYear(temp.CoolingKWh-energy.CoolingKWh, yearDays))

		dRange := energy.MaxWorstDailyRange - allnd.MaxWorstDailyRange
		if dRange < 0.5 {
			dRange = 0.5 // avoid exploding the per-degree cost
		}
		st.KWhPerDegRange = append(st.KWhPerDegRange, scaleYear(allnd.CoolingKWh-energy.CoolingKWh, yearDays)/dRange)
	}
	return st, nil
}

// scaleYear extrapolates sampled-day energy to a full 365-day year.
func scaleYear(kwh float64, yearDays int) float64 {
	if yearDays <= 0 {
		yearDays = 52
	}
	return kwh * 365 / float64(yearDays)
}

// Table renders the per-location costs.
func (s *CostStudy) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.2 — Yearly energy cost of management (kWh per °C)\n")
	fmt.Fprintf(&b, "%-12s %22s %22s\n", "Location", "lower max temp 1°C", "cut max range 1°C")
	for i, loc := range s.Locations {
		fmt.Fprintf(&b, "%-12s %18.0f kWh %18.0f kWh\n", loc, s.KWhPerDegTemp[i], s.KWhPerDegRange[i])
	}
	return b.String()
}
