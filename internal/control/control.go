// Package control defines the narrow interface between a datacenter
// controller (the TKS baseline or CoolAir) and the simulation engine
// that drives it. Controllers observe sensor snapshots and issue cooling
// commands; anything richer (workload placement, server activation) a
// controller does through its own reference to the compute cluster.
//
// Keeping these types in their own package lets internal/tks,
// internal/core, and internal/sim depend on a common vocabulary without
// import cycles.
package control

import (
	"coolair/internal/cooling"
	"coolair/internal/units"
	"coolair/internal/weather"
	"coolair/internal/workload"
)

// Observation is one sensor snapshot delivered to a controller at each
// control period. It contains exactly what Parasol's monitoring exposes
// (paper §4.2): per-pod inlet temperature sensors, one cold-aisle
// humidity sensor, outside air sensors, plant state, and datacenter
// utilization.
type Observation struct {
	// Time is the simulation time in seconds since the start of the run.
	Time float64
	// Day is the 0-based day of year; HourOfDay is fractional 0–24.
	Day       int
	HourOfDay float64
	// Outside is the current outside air temperature and humidity.
	Outside weather.Conditions
	// PodInlet are the inlet sensor readings, one per pod.
	PodInlet []units.Celsius
	// PodActive flags which pods currently host active servers;
	// CoolAir's utility function only penalizes sensors of active pods.
	PodActive []bool
	// InsideRH is the cold-aisle relative humidity.
	InsideRH units.RelHumidity
	// Utilization is the fraction of servers active (paper's
	// "datacenter utilization").
	Utilization float64
	// ITLoad is the IT power draw as a fraction of the cluster's
	// maximum — a finer load signal than Utilization, since busy and
	// idle active servers draw differently.
	ITLoad float64
	// Mode, FanSpeed and CompressorSpeed describe the current plant
	// state (after ramp limiting).
	Mode            cooling.Mode
	FanSpeed        float64
	CompressorSpeed float64
}

// MaxPodInlet returns the hottest inlet reading, and whether any pod
// exists. Controllers that manage a single sensor (the TKS control
// sensor in a "typically warmer area") use the hottest pod.
func (o Observation) MaxPodInlet() (units.Celsius, bool) {
	if len(o.PodInlet) == 0 {
		return 0, false
	}
	max := o.PodInlet[0]
	for _, v := range o.PodInlet[1:] {
		if v > max {
			max = v
		}
	}
	return max, true
}

// Controller is a cooling-regime decision maker, invoked once per
// control period.
type Controller interface {
	// Name identifies the controller in reports ("baseline", "All-ND"…).
	Name() string
	// Period returns the seconds between Decide calls (600 for both the
	// baseline and CoolAir).
	Period() float64
	// Decide returns the cooling command for the next period.
	Decide(obs Observation) (cooling.Command, error)
}

// Monitor is implemented by controllers that consume fine-grained
// sensor snapshots between decisions. The simulator calls Observe every
// model step (2 minutes); CoolAir uses it to maintain the lag features
// its learned models expect.
type Monitor interface {
	Observe(obs Observation)
}

// DayPlanner is implemented by controllers that do once-a-day planning —
// CoolAir's temperature-band selection and temporal scheduling. The
// simulator calls StartDay at each midnight before the day's first
// Decide.
type DayPlanner interface {
	StartDay(day int)
}

// WorkerConfigurable is a retired optional interface: no controller
// implements it and the simulator never consults it. One decision is a
// few microseconds of serial work, and runs parallelize across sites
// instead (DESIGN.md §11). The declaration stays only because the
// perfbench module's interface-forwarding test names it; its method is
// unexported so that nothing outside this package can implement it.
type WorkerConfigurable interface {
	retired()
}

// TemporalScheduler is implemented by controllers that defer job starts
// (CoolAir's All-DEF and the Energy-DEF comparison system). ScheduleDay
// maps each of the day's jobs to a release time in seconds from
// midnight, within [Arrival, Deadline]. The simulator submits jobs at
// their release times.
type TemporalScheduler interface {
	ScheduleDay(day int, jobs []workload.Job) []float64
}
