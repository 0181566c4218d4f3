// Package physics is the ground-truth substrate standing in for the
// physical Parasol container. It implements a lumped-parameter model of
// the container's thermal and moisture dynamics: a fast air node (the
// cold aisle), a slow thermal-mass node (racks, servers, walls), per-pod
// inlet temperatures shaped by heat recirculation, per-pod disk
// temperatures, and an absolute-humidity balance with AC-coil
// condensation.
//
// CoolAir itself never reads this model directly — exactly as on the
// real Parasol, it learns regression models from logged sensor data
// (package model) and acts through the cooling plant (package cooling).
// The physics is what the simulators (package sim) integrate to produce
// those sensor readings.
package physics

import (
	"fmt"
	"math"

	"coolair/internal/units"
	"coolair/internal/weather"
)

// Pod describes a group of spatially-close servers that behave alike
// thermally (paper §3: the datacenter is organized into pods, each with
// one inlet temperature sensor).
type Pod struct {
	Name    string
	Servers int
	// Recirc in [0,1] is the pod's exposure to recirculated hot air: 0
	// means fully washed by supply air (right at the free-cooling
	// outlet), 1 means a stagnant corner that mostly sees re-heated
	// air. High-recirc pods run warmer but are buffered from supply
	// swings — the property CoolAir's spatial placement exploits.
	Recirc float64
	// LocalGain is the inlet temperature rise (°C) caused by the pod's
	// own servers running at full utilization.
	LocalGain float64
}

// Container is the physical configuration of the datacenter enclosure.
type Container struct {
	Pods []Pod
	// AirCap is the effective heat capacity of the fast node (air plus
	// light structure), J/K.
	AirCap float64
	// MassCap is the heat capacity of the slow node (racks, servers,
	// walls), J/K.
	MassCap float64
	// MassUA is the air↔mass coupling conductance, W/K.
	MassUA float64
	// LeakUA is the envelope conductance to outside when sealed, W/K.
	// An uninsulated steel container of Parasol's size has a large
	// envelope conductance, which is why inlet temperatures correlate
	// so strongly with outside temperatures (paper Figure 1).
	LeakUA float64
	// AirKg is the mass of air inside, for the moisture balance.
	AirKg float64
	// LeakKgS is the infiltration air exchange when sealed, kg/s.
	LeakKgS float64
	// SolarPeak is the midday solar gain on the container, W. Parasol
	// sits outdoors under a solar panel roof, so this is modest.
	SolarPeak float64
	// MiscPower is the always-on non-IT, non-cooling load inside
	// (switches, sensors), W.
	MiscPower units.Watts
}

// Parasol returns the container model matching the paper's prototype: a
// 7'×12' container with 64 half-U servers in two racks, organized here
// as four pods of 16 with increasing recirculation exposure (pod A is
// next to the free-cooling outlet; pod D is in the far corner by the
// exhaust). The sealed cold aisle keeps even the worst pod's inlet
// mostly supply-dominated (paper §4.1: "the sealed cold aisle minimizes
// hot air recirculation").
func Parasol() *Container {
	return &Container{
		Pods: []Pod{
			{Name: "A", Servers: 16, Recirc: 0.05, LocalGain: 1.2},
			{Name: "B", Servers: 16, Recirc: 0.11, LocalGain: 1.4},
			{Name: "C", Servers: 16, Recirc: 0.17, LocalGain: 1.6},
			{Name: "D", Servers: 16, Recirc: 0.24, LocalGain: 1.8},
		},
		AirCap:    2.0e5,
		MassCap:   3.0e6,
		MassUA:    300,
		LeakUA:    110,
		AirKg:     23,
		LeakKgS:   0.008,
		SolarPeak: 450,
		MiscPower: 60,
	}
}

// Validate reports whether the container parameters are usable.
func (c *Container) Validate() error {
	if len(c.Pods) == 0 {
		return fmt.Errorf("physics: container has no pods")
	}
	for _, p := range c.Pods {
		if p.Servers <= 0 {
			return fmt.Errorf("physics: pod %s has %d servers", p.Name, p.Servers)
		}
		if p.Recirc < 0 || p.Recirc > 1 {
			return fmt.Errorf("physics: pod %s recirc %.2f out of [0,1]", p.Name, p.Recirc)
		}
	}
	if c.AirCap <= 0 || c.MassCap <= 0 || c.MassUA <= 0 || c.AirKg <= 0 {
		return fmt.Errorf("physics: non-positive capacitance or coupling")
	}
	return nil
}

// TotalServers returns the number of servers across all pods.
func (c *Container) TotalServers() int {
	n := 0
	for _, p := range c.Pods {
		n += p.Servers
	}
	return n
}

// State is the evolving physical state of the container.
type State struct {
	// Air is the cold-aisle supply air temperature (the fast node).
	Air units.Celsius
	// Mass is the thermal-mass node temperature.
	Mass units.Celsius
	// HotAisle is the slow hot-aisle air node behind the servers.
	// High-recirculation pods draw mostly from this node, which is why
	// they run warmer but steadier than pods washed by supply air.
	HotAisle units.Celsius
	// Abs is the absolute humidity of the inside air.
	Abs units.AbsHumidity
	// PodInlet are the per-pod inlet sensor temperatures.
	PodInlet []units.Celsius
	// Disk are the per-pod representative disk temperatures.
	Disk []units.Celsius
}

// NewState initializes the container in equilibrium with the outside.
func (c *Container) NewState(outside weather.Conditions) *State {
	s := &State{
		Air:      outside.Temp,
		Mass:     outside.Temp,
		HotAisle: outside.Temp + 4,
		Abs:      outside.Abs(),
		PodInlet: make([]units.Celsius, len(c.Pods)),
		Disk:     make([]units.Celsius, len(c.Pods)),
	}
	for i := range c.Pods {
		s.PodInlet[i] = outside.Temp
		s.Disk[i] = outside.Temp + 6
	}
	return s
}

// Clone deep-copies the state (used by simulators for what-if rollouts).
func (s *State) Clone() *State {
	c := *s
	c.PodInlet = append([]units.Celsius(nil), s.PodInlet...)
	c.Disk = append([]units.Celsius(nil), s.Disk...)
	return &c
}

// RelHumidity returns the inside relative humidity at the cold-aisle
// temperature.
func (s *State) RelHumidity() units.RelHumidity {
	return units.RelFromAbs(s.Air, s.Abs)
}

// Inputs are the boundary conditions for one integration step.
type Inputs struct {
	// Outside is the current outside air.
	Outside weather.Conditions
	// HourOfDay drives the solar gain (0–24, fractional).
	HourOfDay float64
	// PodPower is the electrical draw of each pod's servers, W; its
	// length must match the container's pod count.
	PodPower []units.Watts
	// PodDiskUtil is each pod's average disk utilization (0–1), for
	// the disk temperature model.
	PodDiskUtil []float64
	// Airflow is the outside-air mass flow from the cooling plant,
	// kg/s (zero when the damper is closed).
	Airflow float64
	// RecircFlow is internal circulation from the AC fan, kg/s.
	RecircFlow float64
	// HeatRemoval is the AC's sensible heat extraction, thermal W.
	HeatRemoval units.Watts
	// CoilTemp is the AC evaporator coil temperature for condensation;
	// only used when HeatRemoval > 0.
	CoilTemp units.Celsius
}

// ITPower sums the pod powers.
func (in Inputs) ITPower() units.Watts {
	var t units.Watts
	for _, p := range in.PodPower {
		t += p
	}
	return t
}

// solarGain returns the instantaneous solar load, W.
func (c *Container) solarGain(hourOfDay float64) float64 {
	x := math.Sin(math.Pi * (hourOfDay - 6.5) / 13)
	if hourOfDay < 6.5 || hourOfDay > 19.5 || x < 0 {
		return 0
	}
	return c.SolarPeak * math.Pow(x, 1.5)
}

// recircFraction is the share of server heat that reaches the cold
// aisle instead of being exhausted. Sealed modes recirculate everything
// (that is how the TKS and CoolAir warm the container); whenever the
// wind-tunnel is ventilating, the sealed cold aisle keeps recirculation
// small — the paper's partitions exist precisely to "minimize hot air
// recirculation during free cooling or AC operation" (§4.1).
func recircFraction(airflow float64) float64 {
	if airflow <= 0 {
		return 1
	}
	return 0.12 + 0.25*math.Exp(-airflow/0.15)
}

// Step integrates the container physics forward by dt seconds under the
// given boundary conditions, mutating the state in place.
func (c *Container) Step(s *State, in Inputs, dt float64) error {
	if len(in.PodPower) != len(c.Pods) {
		return fmt.Errorf("physics: %d pod powers for %d pods", len(in.PodPower), len(c.Pods))
	}
	itPower := float64(in.ITPower() + c.MiscPower)
	tout := float64(in.Outside.Temp)
	ta := float64(s.Air)
	tm := float64(s.Mass)

	solar := c.solarGain(in.HourOfDay)
	rec := recircFraction(in.Airflow)

	// Heat flows into the air node (W).
	qIT := rec * itPower
	qSolarAir := 0.3 * solar
	qMass := c.MassUA * (tm - ta)
	qVent := in.Airflow * units.AirSpecificHeat * (tout - ta)
	qLeak := c.LeakUA * (tout - ta)
	qAC := float64(in.HeatRemoval)

	dTa := (qIT + qSolarAir + qMass + qVent + qLeak - qAC) / c.AirCap * dt

	// Heat flows into the mass node: the exhaust share of server heat
	// partly warms the racks before leaving; solar mostly lands on the
	// envelope mass.
	qITMass := 0.15 * (1 - rec) * itPower
	qSolarMass := 0.7 * solar
	dTm := (qITMass + qSolarMass - c.MassUA*(tm-ta)) / c.MassCap * dt

	s.Air = units.Celsius(ta + dTa)
	s.Mass = units.Celsius(tm + dTm)

	// Moisture balance on absolute humidity: ventilation and envelope
	// infiltration both bring in outside air.
	wout := float64(in.Outside.Abs())
	w := float64(s.Abs)
	w += in.Airflow / c.AirKg * (wout - w) * dt
	w += c.LeakKgS / c.AirKg * (wout - w) * dt
	if qAC > 0 {
		// The evaporator coil condenses moisture when inside air's dew
		// point exceeds the coil temperature. The rate scales with the
		// circulated air and the excess over coil saturation.
		wsat := float64(units.SaturationAbsHumidity(in.CoilTemp))
		if w > wsat {
			flow := in.RecircFlow
			if flow <= 0 {
				flow = 0.5
			}
			condense := 0.6 * flow / c.AirKg * (w - wsat) * dt
			w -= condense
			if w < wsat {
				w = wsat
			}
		}
	}
	if w < 0 {
		w = 0
	}
	s.Abs = units.AbsHumidity(w)

	// Hot-aisle node: relaxes toward supply air plus the server heat
	// pickup. The pickup is set by the servers' own fans (a roughly
	// constant mass flow), not by the free-cooling airflow — the wind
	// tunnel carries the exhaust away but the servers pull their own
	// air. The node's ~10-minute time constant is what buffers the
	// high-recirculation pods against abrupt supply swings.
	const serverFlow = 0.45 // kg/s through 64 half-U servers
	dtHot := itPower / (serverFlow * units.AirSpecificHeat)
	hotTarget := float64(s.Air) + dtHot
	hotAlpha := 1 - math.Exp(-dt/600)
	s.HotAisle = units.Celsius(float64(s.HotAisle) + hotAlpha*(hotTarget-float64(s.HotAisle)))

	// Per-pod inlet temperatures. Each pod's target blends the supply
	// air with the hot-aisle node according to its recirculation
	// exposure, plus local heating from its own servers; the pod then
	// relaxes toward that target with a recirc-dependent time constant
	// (stagnant corners respond sluggishly).
	for i, p := range c.Pods {
		target := (1-p.Recirc)*float64(s.Air) + p.Recirc*float64(s.HotAisle)
		if p.Servers > 0 {
			util := float64(in.PodPower[i]) / (float64(p.Servers) * 30.0) // 30 W = max per server
			target += p.LocalGain * units.Clamp01(util)
		}
		tau := 60 + 400*p.Recirc // seconds
		alpha := 1 - math.Exp(-dt/tau)
		cur := float64(s.PodInlet[i])
		s.PodInlet[i] = units.Celsius(cur + alpha*(target-cur))

		// Disk temperature: first-order lag toward inlet + offset that
		// grows with disk utilization (Figure 1 shows disks ~10–15°C
		// above inlets at 50% disk utilization).
		du := 0.0
		if i < len(in.PodDiskUtil) {
			du = units.Clamp01(in.PodDiskUtil[i])
		}
		dTarget := float64(s.PodInlet[i]) + 8 + 9*du
		dAlpha := 1 - math.Exp(-dt/900)
		s.Disk[i] = units.Celsius(float64(s.Disk[i]) + dAlpha*(dTarget-float64(s.Disk[i])))
	}
	return nil
}

// HottestPod returns the index and temperature of the warmest pod inlet.
func (s *State) HottestPod() (int, units.Celsius) {
	best, bt := 0, s.PodInlet[0]
	for i, v := range s.PodInlet {
		if v > bt {
			best, bt = i, v
		}
	}
	return best, bt
}
