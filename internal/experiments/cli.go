package experiments

import (
	"strings"

	"coolair/internal/core"
	"coolair/internal/sim"
	"coolair/internal/weather"
	"coolair/internal/workload"
)

// The command-line vocabulary shared by coolair-sim, coolair-serve and
// the -fleet spec grammar: one lookup per flag, so the binaries cannot
// drift apart.

// ClimateByName finds a study location by case-insensitive name (the
// -location flag).
func ClimateByName(name string) (weather.Climate, bool) {
	for _, c := range weather.StudyLocations() {
		if strings.EqualFold(c.Name, name) {
			return c, true
		}
	}
	return weather.Climate{}, false
}

// SystemByName maps the -system names to their configurations.
func SystemByName(name string) (System, bool) {
	switch strings.ToLower(name) {
	case "baseline":
		return BaselineSystem(), true
	case "temperature":
		return CoolAirSystem(core.VersionTemperature), true
	case "energy":
		return CoolAirSystem(core.VersionEnergy), true
	case "variation":
		return CoolAirSystem(core.VersionVariation), true
	case "all-nd", "allnd":
		return CoolAirSystem(core.VersionAllND), true
	case "all-def", "alldef":
		return CoolAirSystem(core.VersionAllDEF), true
	case "energy-def":
		return CoolAirSystem(core.VersionEnergyDEF), true
	}
	return System{}, false
}

// WorkloadByName returns the lab's trace for a -workload name
// (facebook or nutch, case-insensitive).
func (l *Lab) WorkloadByName(name string) (*workload.Trace, bool) {
	switch strings.ToLower(name) {
	case "facebook":
		return l.Facebook(), true
	case "nutch":
		return l.Nutch(), true
	}
	return nil, false
}

// RunDays resolves the -year/-days/-start flags to the days to
// simulate: the paper's 52-day year sample when year is set, otherwise
// days consecutive days from start, wrapping at the end of the year.
func RunDays(year bool, days, start int) []int {
	if year {
		return sim.WeekdaySample()
	}
	out := make([]int, 0, days)
	for d := 0; d < days; d++ {
		out = append(out, (start+d)%weather.DaysPerYear)
	}
	return out
}
