package experiments

import (
	"fmt"
	"strings"

	"coolair/internal/core"
	"coolair/internal/metrics"
	"coolair/internal/units"
	"coolair/internal/weather"
	"coolair/internal/workload"
)

// YearStudy is the shared product behind Figures 8, 9, and 10: every
// system run for a year at every study location.
type YearStudy struct {
	Locations []string
	Systems   []string
	// Cells[loc][sys] is the year summary.
	Cells [][]metrics.Summary
	// Outside[loc] summarizes the outside temperature ranges (the
	// "Outside" group of Figure 9).
	Outside []metrics.Summary
}

// RunYearStudy evaluates the systems at the five study locations (or a
// custom set) over yearDays sampled days with the given trace.
func (l *Lab) RunYearStudy(cls []weather.Climate, systems []System, yearDays int, trace *workload.Trace) (*YearStudy, error) {
	if cls == nil {
		cls = weather.StudyLocations()
	}
	if systems == nil {
		systems = StandardSystems()
	}
	grid, err := l.runGrid(cls, systems, YearDays(yearDays), trace)
	if err != nil {
		return nil, err
	}
	st := &YearStudy{
		Cells:   make([][]metrics.Summary, len(cls)),
		Outside: make([]metrics.Summary, len(cls)),
	}
	for _, c := range cls {
		st.Locations = append(st.Locations, c.Name)
	}
	for _, s := range systems {
		st.Systems = append(st.Systems, s.Name)
	}
	for ci := range cls {
		st.Cells[ci] = make([]metrics.Summary, len(systems))
		for si := range systems {
			st.Cells[ci][si] = grid[ci][si].Summary
		}
		st.Outside[ci] = grid[ci][0].Summary // outside stats identical across systems
	}
	return st, nil
}

// Fig8Table renders the average temperature violations (°C above the
// desired maximum) per system and location — Figure 8.
func (s *YearStudy) Fig8Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — Average temperature violations (°C above 30°C)\n")
	fmt.Fprintf(&b, "%-14s", "System")
	for _, loc := range s.Locations {
		fmt.Fprintf(&b, "%12s", loc)
	}
	b.WriteByte('\n')
	for si, sys := range s.Systems {
		fmt.Fprintf(&b, "%-14s", sys)
		for ci := range s.Locations {
			fmt.Fprintf(&b, "%12.2f", s.Cells[ci][si].AvgViolation)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig9Table renders the daily temperature ranges (average of worst
// sensor daily range, with min–max whiskers) — Figure 9, including the
// outside group.
func (s *YearStudy) Fig9Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9 — Worst-sensor daily temperature ranges, avg (min–max), °C\n")
	fmt.Fprintf(&b, "%-14s", "System")
	for _, loc := range s.Locations {
		fmt.Fprintf(&b, "%18s", loc)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-14s", "Outside")
	for ci := range s.Locations {
		o := s.Outside[ci]
		fmt.Fprintf(&b, "%8.1f (%3.1f–%4.1f)", o.AvgOutsideDailyRange, o.MinOutsideDailyRange, o.MaxOutsideDailyRange)
	}
	b.WriteByte('\n')
	for si, sys := range s.Systems {
		fmt.Fprintf(&b, "%-14s", sys)
		for ci := range s.Locations {
			c := s.Cells[ci][si]
			fmt.Fprintf(&b, "%8.1f (%3.1f–%4.1f)", c.AvgWorstDailyRange, c.MinWorstDailyRange, c.MaxWorstDailyRange)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig10Table renders the yearly PUEs (including the 0.08 power-delivery
// overhead) — Figure 10.
func (s *YearStudy) Fig10Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 — Yearly PUEs (including 0.08 for power delivery)\n")
	fmt.Fprintf(&b, "%-14s", "System")
	for _, loc := range s.Locations {
		fmt.Fprintf(&b, "%12s", loc)
	}
	b.WriteByte('\n')
	for si, sys := range s.Systems {
		fmt.Fprintf(&b, "%-14s", sys)
		for ci := range s.Locations {
			fmt.Fprintf(&b, "%12.3f", s.Cells[ci][si].PUE)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Cell returns the summary for the named location and system.
func (s *YearStudy) Cell(loc, sys string) (metrics.Summary, bool) {
	ci, si := -1, -1
	for i, l := range s.Locations {
		if l == loc {
			ci = i
		}
	}
	for i, y := range s.Systems {
		if y == sys {
			si = i
		}
	}
	if ci < 0 || si < 0 {
		return metrics.Summary{}, false
	}
	return s.Cells[ci][si], true
}

// MaxTempStudy compares desired maximum temperatures of 25°C and 30°C
// (§5.2 "Impact of the desired maximum temperature"): the baseline's
// setpoint and CoolAir's band Max are both lowered.
type MaxTempStudy struct {
	Locations []string
	// Per location: [maxTemp][system] → summary, systems = Baseline, All-ND.
	At30, At25 [][]metrics.Summary
}

// RunMaxTempStudy runs the sensitivity study.
func (l *Lab) RunMaxTempStudy(cls []weather.Climate, yearDays int) (*MaxTempStudy, error) {
	if cls == nil {
		cls = weather.StudyLocations()
	}
	mk := func(maxTemp float64) []System {
		base := BaselineSystem()
		allnd := CoolAirSystem(core.VersionAllND)
		band := core.DefaultBandConfig()
		band.Max = units.Celsius(maxTemp)
		allnd.Band = band
		return []System{base, allnd}
	}
	// The baseline's 25°C variant needs a different TKS setpoint; it is
	// approximated by the band ceiling in the violations accounting
	// (both systems are judged against the same desired maximum).
	st := &MaxTempStudy{}
	for _, c := range cls {
		st.Locations = append(st.Locations, c.Name)
	}
	g30, err := l.runGrid(cls, mk(30), YearDays(yearDays), l.Facebook())
	if err != nil {
		return nil, err
	}
	g25, err := l.runGrid(cls, mk(25), YearDays(yearDays), l.Facebook())
	if err != nil {
		return nil, err
	}
	for ci := range cls {
		st.At30 = append(st.At30, []metrics.Summary{g30[ci][0].Summary, g30[ci][1].Summary})
		st.At25 = append(st.At25, []metrics.Summary{g25[ci][0].Summary, g25[ci][1].Summary})
	}
	return st, nil
}

// Table renders the study: CoolAir's range reduction and PUE change at
// each desired maximum.
func (s *MaxTempStudy) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.2 — Impact of the desired maximum temperature (range reduction = baseline max-range − All-ND max-range)\n")
	fmt.Fprintf(&b, "%-12s %22s %22s\n", "Location", "Max 30°C: Δrange, ΔPUE", "Max 25°C: Δrange, ΔPUE")
	for ci, loc := range s.Locations {
		d30 := s.At30[ci][0].MaxWorstDailyRange - s.At30[ci][1].MaxWorstDailyRange
		p30 := s.At30[ci][1].PUE - s.At30[ci][0].PUE
		d25 := s.At25[ci][0].MaxWorstDailyRange - s.At25[ci][1].MaxWorstDailyRange
		p25 := s.At25[ci][1].PUE - s.At25[ci][0].PUE
		fmt.Fprintf(&b, "%-12s %10.1f°C %+8.3f %10.1f°C %+8.3f\n", loc, d30, p30, d25, p25)
	}
	return b.String()
}

// ForecastStudy quantifies the impact of consistently biased forecasts
// (§5.2 "Impact of weather forecast accuracy").
type ForecastStudy struct {
	Locations []string
	// Per location: summaries for bias −5, 0, +5 °C (All-ND).
	Minus5, Zero, Plus5 []metrics.Summary
}

// RunForecastStudy runs All-ND with forecast bias −5/0/+5°C.
func (l *Lab) RunForecastStudy(cls []weather.Climate, yearDays int) (*ForecastStudy, error) {
	if cls == nil {
		cls = weather.StudyLocations()
	}
	mk := func(bias float64) []System {
		s := CoolAirSystem(core.VersionAllND)
		s.ForecastBias = bias
		s.Name = fmt.Sprintf("All-ND%+0.0f", bias)
		return []System{s}
	}
	st := &ForecastStudy{}
	for _, c := range cls {
		st.Locations = append(st.Locations, c.Name)
	}
	for _, bias := range []float64{-5, 0, 5} {
		grid, err := l.runGrid(cls, mk(bias), YearDays(yearDays), l.Facebook())
		if err != nil {
			return nil, err
		}
		for ci := range cls {
			switch bias {
			case -5:
				st.Minus5 = append(st.Minus5, grid[ci][0].Summary)
			case 0:
				st.Zero = append(st.Zero, grid[ci][0].Summary)
			default:
				st.Plus5 = append(st.Plus5, grid[ci][0].Summary)
			}
		}
	}
	return st, nil
}

// Table renders the forecast-bias deltas. The paper reports max-range
// increases below 1°C for +5°C bias and PUE increases below 0.01 for
// −5°C bias.
func (s *ForecastStudy) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§5.2 — Impact of forecast accuracy (All-ND, deltas vs unbiased)\n")
	fmt.Fprintf(&b, "%-12s %26s %26s\n", "Location", "bias +5°C: Δmaxrange, ΔPUE", "bias −5°C: Δmaxrange, ΔPUE")
	for ci, loc := range s.Locations {
		dp := s.Plus5[ci].MaxWorstDailyRange - s.Zero[ci].MaxWorstDailyRange
		pp := s.Plus5[ci].PUE - s.Zero[ci].PUE
		dm := s.Minus5[ci].MaxWorstDailyRange - s.Zero[ci].MaxWorstDailyRange
		pm := s.Minus5[ci].PUE - s.Zero[ci].PUE
		fmt.Fprintf(&b, "%-12s %12.2f°C %+10.3f %12.2f°C %+10.3f\n", loc, dp, pp, dm, pm)
	}
	return b.String()
}
