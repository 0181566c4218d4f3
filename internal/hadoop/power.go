package hadoop

import (
	"fmt"

	"coolair/internal/units"
)

// SetActiveTarget transitions server power states so that (at least)
// want servers are active, preferring pods in the current placement
// order. It implements the three transitions of the paper's Compute
// Configurer:
//
//  1. active → decommissioned for surplus servers that still hold
//     temporary data of running jobs;
//  2. active/decommissioned → sleep for surplus servers holding nothing
//     relevant (decommissioned servers also finish their tasks first);
//  3. sleep → active when more servers are required.
//
// Covering Subset servers never leave the active state, so the effective
// floor is the subset size.
func (c *Cluster) SetActiveTarget(want int) error {
	if want < 0 || want > len(c.Servers) {
		return fmt.Errorf("hadoop: active target %d out of range", want)
	}
	if c.tape != nil {
		if c.tape.enter(c, callSetActiveTarget, uint64(want)) {
			return nil
		}
		defer c.tape.leave(c)
	}
	covering := c.CoveringSubsetSize()
	if want < covering {
		want = covering
	}

	order := c.serverOrder()

	// Pass 1: wake sleepers (in placement order) until enough active.
	for _, s := range order {
		if c.active >= want {
			break
		}
		if s.State != Active {
			c.setState(s, Active)
		}
	}

	// Pass 2: surplus actives go down, least-preferred first.
	for i := len(order) - 1; i >= 0 && c.active > want; i-- {
		s := order[i]
		if s.State != Active || s.Covering {
			continue
		}
		if s.ntasks > 0 || s.holdCount > 0 {
			c.setState(s, Decommissioned)
		} else {
			c.setState(s, Sleep)
		}
	}

	// Pass 3: decommissioned servers that have drained fully can sleep.
	for _, s := range c.Servers {
		if s.State == Decommissioned && s.ntasks == 0 && s.holdCount == 0 {
			c.setState(s, Sleep)
		}
	}
	return nil
}

// ActivateAll forces every server active (the baseline system does no
// energy management of servers).
func (c *Cluster) ActivateAll() {
	if c.tape != nil {
		if c.tape.enter(c, callActivateAll) {
			return
		}
		defer c.tape.leave(c)
	}
	for _, s := range c.Servers {
		c.setState(s, Active)
	}
}

// ActiveServers counts servers in the active state.
func (c *Cluster) ActiveServers() int { return c.active }

// CoveringSubsetSize returns the number of Covering Subset servers.
func (c *Cluster) CoveringSubsetSize() int { return c.covering }

// Utilization returns the fraction of servers active — the paper's
// "datacenter utilization".
func (c *Cluster) Utilization() float64 {
	return float64(c.active) / float64(len(c.Servers))
}

// BusySlots counts occupied task slots across the cluster.
func (c *Cluster) BusySlots() int { return c.running }

// QueuedTasks returns the number of tasks waiting for a slot (pending
// maps, plus reduces whose map phase finished).
func (c *Cluster) QueuedTasks() int {
	n := 0
	for _, r := range c.pending {
		n += r.mapsLeft
		if r.mapPhaseDone {
			n += r.redsLeft
		}
	}
	return n
}

// SlotDemand is the total current demand in slots (busy + queued), the
// quantity CoolAir's Compute Optimizer sizes the active set from.
func (c *Cluster) SlotDemand() int {
	if c.tape != nil {
		return c.tape.slotDemand(c)
	}
	return c.BusySlots() + c.QueuedTasks()
}

// Server power draw: idle and busy bound an awake server's draw (paper:
// 22–30 W), each occupied slot adding slotPower; a sleeping server
// draws sleepPower (S3 standby).
const (
	idlePower  units.Watts = 22
	busyPower  units.Watts = 30
	sleepPower units.Watts = 1.5
	slotPower              = (busyPower - idlePower) / SlotsPerServer
)

// power returns the pod's IT draw from its counts. A sleeping server
// holds no tasks (it sleeps only once drained and is dispatched to only
// when active), so every server draws one of {1.5, 22, 26, 30} W. All
// are multiples of 0.5 W and every sum of them here stays far below
// 2^52 × 0.5 W, so each product and partial sum is exact in float64 and
// any association of the per-server draws gives the same bits: this
// formula, a whole-cluster sum of pod subtotals, and a server-order
// loop all agree exactly.
func (p *podCount) power() units.Watts {
	return units.Watts(p.servers-p.awake)*sleepPower +
		units.Watts(p.awake)*idlePower +
		units.Watts(p.busy)*slotPower
}

// PodPower returns the per-pod IT power draw.
func (c *Cluster) PodPower() []units.Watts {
	return c.PodPowerInto(make([]units.Watts, len(c.pod)))
}

// PodPowerInto fills dst (resized to the pod count) with the per-pod IT
// power draw and returns it, letting per-step callers reuse a scratch
// slice.
func (c *Cluster) PodPowerInto(dst []units.Watts) []units.Watts {
	if cap(dst) < len(c.pod) {
		dst = make([]units.Watts, len(c.pod))
	}
	dst = dst[:len(c.pod)]
	for i := range c.pod {
		dst[i] = c.pod[i].power()
	}
	return dst
}

// ITPower returns the total IT power draw (exact in any order; see
// podCount.power).
func (c *Cluster) ITPower() units.Watts {
	var t units.Watts
	for i := range c.pod {
		t += c.pod[i].power()
	}
	return t
}

// MaxITPower returns the draw with every server busy — the
// normalization basis for load fractions.
func (c *Cluster) MaxITPower() units.Watts { return c.maxIT }

// ITLoad returns the current IT power as a fraction of MaxITPower.
func (c *Cluster) ITLoad() float64 {
	return float64(c.ITPower()) / float64(c.maxIT)
}

// AccrueEnergy integrates IT energy over dt seconds; call once per
// simulation step.
func (c *Cluster) AccrueEnergy(dt float64) { c.itotal.Add(c.ITPower(), dt) }

// ITEnergy returns cumulative IT energy.
func (c *Cluster) ITEnergy() units.Joules { return c.itotal }

// PodActive reports, per pod, whether any server is active.
func (c *Cluster) PodActive() []bool {
	out := make([]bool, len(c.pod))
	for i := range c.pod {
		out[i] = c.pod[i].active > 0
	}
	return out
}

// PodDiskUtil estimates each pod's average disk utilization as the
// busy-slot fraction of its awake servers (sleeping disks are spun
// down and contribute nothing).
func (c *Cluster) PodDiskUtil() []float64 {
	return c.PodDiskUtilInto(make([]float64, len(c.pod)))
}

// PodDiskUtilInto fills dst (resized to the pod count) with each pod's
// disk utilization and returns it, letting per-step callers reuse a
// scratch slice.
func (c *Cluster) PodDiskUtilInto(dst []float64) []float64 {
	if cap(dst) < len(c.pod) {
		dst = make([]float64, len(c.pod))
	}
	dst = dst[:len(c.pod)]
	for i := range c.pod {
		p := &c.pod[i]
		dst[i] = 0
		if p.awake > 0 {
			dst[i] = float64(p.busy) / float64(p.awake*SlotsPerServer)
		}
	}
	return dst
}

// Completed returns the completion records so far.
func (c *Cluster) Completed() []JobRecord { return c.completed }

// ReserveCompleted ensures capacity for at least n more completion
// records, letting a run size the log once up front instead of growing
// it through repeated append doubling.
func (c *Cluster) ReserveCompleted(n int) {
	if n <= 0 || c.tape != nil && c.tape.replay || cap(c.completed)-len(c.completed) >= n {
		return
	}
	grown := make([]JobRecord, len(c.completed), len(c.completed)+n)
	copy(grown, c.completed)
	c.completed = grown
}

// PendingJobs returns the number of jobs not yet fully dispatched.
func (c *Cluster) PendingJobs() int { return len(c.pending) }

// InFlightJobs returns the number of submitted, unfinished jobs.
func (c *Cluster) InFlightJobs() int { return len(c.flight) }

// MaxPowerCycleRate returns the highest per-server rate of disk
// power-cycles per hour over the simulated span. The paper bounds this
// at 2.2 cycles/hour against the 8.5/hour load-unload budget.
func (c *Cluster) MaxPowerCycleRate() float64 {
	if c.elapsed <= 0 {
		return 0
	}
	return float64(c.maxCycles) / (c.elapsed / 3600)
}

// Now returns the cluster's internal clock (seconds advanced via Step).
func (c *Cluster) Now() float64 { return c.now }
