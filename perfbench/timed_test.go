package main

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"coolair/internal/control"
	"coolair/internal/cooling"
	"coolair/internal/core"
	"coolair/internal/experiments"
	"coolair/internal/trace"
	"coolair/internal/weather"
)

var (
	testLabOnce sync.Once
	testLab     *experiments.Lab
)

// smallLab is a lab with a one-day training campaign, shared by the
// tests that need a trained Cooling Model.
func smallLab(t *testing.T) *experiments.Lab {
	t.Helper()
	testLabOnce.Do(func() {
		testLab = experiments.NewLab()
		testLab.Seed = 5
		testLab.TrainDays = 1
	})
	return testLab
}

// optional names the optional controller interfaces a value implements.
func optional(c control.Controller) []string {
	var out []string
	if _, ok := c.(control.Monitor); ok {
		out = append(out, "Monitor")
	}
	if _, ok := c.(control.DayPlanner); ok {
		out = append(out, "DayPlanner")
	}
	if _, ok := c.(control.TemporalScheduler); ok {
		out = append(out, "TemporalScheduler")
	}
	if _, ok := c.(trace.Traceable); ok {
		out = append(out, "Traceable")
	}
	if _, ok := c.(control.WorkerConfigurable); ok {
		out = append(out, "WorkerConfigurable")
	}
	sort.Strings(out)
	return out
}

// stub is a controller with no optional interface.
type stub struct{}

func (stub) Name() string    { return "stub" }
func (stub) Period() float64 { return 600 }
func (stub) Decide(control.Observation) (cooling.Command, error) {
	return cooling.Command{Mode: cooling.ModeClosed}, nil
}

func TestWrapTimedForwardsExactlyTheInnerOptionalInterfaces(t *testing.T) {
	lab := smallLab(t)
	_, coolair, err := lab.NewRun(weather.Newark, experiments.CoolAirSystem(core.VersionAllND))
	if err != nil {
		t.Fatal(err)
	}
	_, baseline, err := lab.NewRun(weather.Newark, experiments.BaselineSystem())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		inner control.Controller
	}{
		{"coolair", coolair},
		{"tks", baseline},
		{"guarded coolair", control.NewGuard(coolair, control.GuardConfig{})},
		{"guarded tks", control.NewGuard(baseline, control.GuardConfig{})},
		{"plain", stub{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var st callStats
			w, err := wrapTimed(tc.inner, &st)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, name := range optional(tc.inner) {
				if name != "WorkerConfigurable" {
					want = append(want, name)
				}
			}
			if got := optional(w); !reflect.DeepEqual(got, want) {
				t.Errorf("wrapper implements %v, inner %v (less WorkerConfigurable) wants %v", got, optional(tc.inner), want)
			}
			if _, ok := w.(control.WorkerConfigurable); ok {
				t.Error("wrapper implements control.WorkerConfigurable")
			}
			if w.Name() != tc.inner.Name() || w.Period() != tc.inner.Period() {
				t.Errorf("wrapper reports %q/%v, inner %q/%v", w.Name(), w.Period(), tc.inner.Name(), tc.inner.Period())
			}
		})
	}
}

func TestWrapTimedCountsDecideCalls(t *testing.T) {
	var st callStats
	w, err := wrapTimed(stub{}, &st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Decide(control.Observation{}); err != nil {
			t.Fatal(err)
		}
	}
	if st.decideCalls != 3 || len(st.decideSamples) != 3 {
		t.Errorf("decide calls %d, samples %d, want 3 and 3", st.decideCalls, len(st.decideSamples))
	}
}

// monitorOnly has an optional-interface combination no wrapper covers.
type monitorOnly struct{ stub }

func (monitorOnly) Observe(control.Observation) {}

func TestWrapTimedRejectsUncoveredCombination(t *testing.T) {
	if _, err := wrapTimed(monitorOnly{}, &callStats{}); err == nil {
		t.Error("a Monitor-only controller was wrapped; want an error, not a narrower controller")
	}
}
