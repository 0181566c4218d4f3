package experiments

import (
	"reflect"
	"testing"

	"coolair/internal/core"
	"coolair/internal/sim"
	"coolair/internal/workload"
)

// TestSystemByName pins the full -system vocabulary: each name's
// configuration, and Deferrable derived from the version's temporal
// scheduler rather than stamped per call site.
func TestSystemByName(t *testing.T) {
	for _, tc := range []struct {
		names      []string
		want       string
		baseline   bool
		version    core.Version
		fidelity   sim.Fidelity
		deferrable bool
	}{
		{[]string{"baseline", "Baseline"}, "Baseline", true, 0, sim.RealSim, false},
		{[]string{"temperature"}, "Temperature", false, core.VersionTemperature, sim.SmoothSim, false},
		{[]string{"energy"}, "Energy", false, core.VersionEnergy, sim.SmoothSim, false},
		{[]string{"variation"}, "Variation", false, core.VersionVariation, sim.SmoothSim, false},
		{[]string{"all-nd", "allnd", "ALL-ND"}, "All-ND", false, core.VersionAllND, sim.SmoothSim, false},
		{[]string{"all-def", "alldef"}, "All-DEF", false, core.VersionAllDEF, sim.SmoothSim, true},
		{[]string{"energy-def"}, "Energy-DEF", false, core.VersionEnergyDEF, sim.SmoothSim, true},
	} {
		for _, name := range tc.names {
			s, ok := SystemByName(name)
			if !ok {
				t.Errorf("%q: not recognized", name)
				continue
			}
			if s.Name != tc.want || s.Baseline != tc.baseline || s.Fidelity != tc.fidelity || s.Deferrable != tc.deferrable ||
				(!tc.baseline && s.Version != tc.version) {
				t.Errorf("%q: got %+v, want name %s baseline %v version %v fidelity %v deferrable %v",
					name, s, tc.want, tc.baseline, tc.version, tc.fidelity, tc.deferrable)
			}
		}
	}
	for _, name := range []string{"", "all_nd", "coolair", "energy-nd"} {
		if _, ok := SystemByName(name); ok {
			t.Errorf("%q accepted", name)
		}
	}
}

// TestSystemWorkload pins the one place the 6-hour start deadline is
// applied: deferrable systems get it, everything else runs the base
// trace itself.
func TestSystemWorkload(t *testing.T) {
	base := workload.Nutch(8, 1)
	if got := BaselineSystem().Workload(base); got != base {
		t.Error("baseline changed the workload")
	}
	if got := CoolAirSystem(core.VersionAllND).Workload(base); got != base {
		t.Error("All-ND changed the workload")
	}
	def := CoolAirSystem(core.VersionAllDEF).Workload(base)
	if !reflect.DeepEqual(def, base.WithDeadlines(6*3600)) {
		t.Error("All-DEF workload is not the base trace with 6-hour deadlines")
	}
	if CoolAirSystem(core.VersionAllDEF).Workload(nil) != nil {
		t.Error("a nil (idle) workload must stay nil")
	}
}

func TestWorkloadByName(t *testing.T) {
	l := NewLab()
	for name, want := range map[string]*workload.Trace{"facebook": l.Facebook(), "Nutch": l.Nutch()} {
		if got, ok := l.WorkloadByName(name); !ok || got != want {
			t.Errorf("%q: got %v, %v", name, got, ok)
		}
	}
	if _, ok := l.WorkloadByName("hadoop"); ok {
		t.Error("unknown workload accepted")
	}
}

func TestRunDays(t *testing.T) {
	if got := RunDays(false, 3, 363); !reflect.DeepEqual(got, []int{363, 364, 0}) {
		t.Errorf("RunDays wrapping = %v", got)
	}
	if got := RunDays(true, 3, 363); !reflect.DeepEqual(got, sim.WeekdaySample()) {
		t.Errorf("RunDays year = %v, want the weekday sample", got)
	}
}
