package experiments

import (
	"coolair/internal/core"
	"coolair/internal/weather"
)

// PlacementStudy is Figure 11: temperature ranges for the baseline, the
// two fixed-band ablations that isolate spatial placement
// (Var-Low-Recirc vs Var-High-Recirc), and the full Variation version
// (which adds the adaptive band and weather prediction).
type PlacementStudy struct {
	Grid
}

// RunPlacementStudy runs the Figure 11 ablation.
func (l *Lab) RunPlacementStudy(cls []weather.Climate, yearDays int) (*PlacementStudy, error) {
	if cls == nil {
		cls = weather.StudyLocations()
	}
	systems := []System{
		BaselineSystem(),
		CoolAirSystem(core.VersionVarLowRecirc),
		CoolAirSystem(core.VersionVarHighRecirc),
		CoolAirSystem(core.VersionVariation),
	}
	g, err := l.runStudy(cls, systems, yearDays, l.Facebook())
	if err != nil {
		return nil, err
	}
	return &PlacementStudy{g}, nil
}

// Table renders Figure 11.
func (s *PlacementStudy) Table() string {
	return s.table("Figure 11 — Temperature ranges by spatial placement and band policy, avg (min–max), °C", 16, 18, rangeCell)
}
