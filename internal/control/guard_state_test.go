package control

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"testing"

	"coolair/internal/cooling"
	"coolair/internal/units"
)

// The run-state layout of the guard as written by earlier releases,
// when the guard kept private twins of these types and copied them
// field by field into GuardState. gob matches fields by name, so this is
// the file format a restarted daemon must still decode. GuardReport and
// cooling.Command are unchanged since then and appear as themselves.
type (
	legacySensorState struct {
		LastGood, LastGoodTime float64
		HasGood                bool
		LastRaw                float64
		HasRaw                 bool
		FlatSince              float64
	}
	legacyScalarState struct {
		LastGood float64
		HasGood  bool
	}
	legacyGuardState struct {
		Sensors                        []legacySensorState
		Outside, OutsideRH, InsideRH   legacyScalarState
		ConsecFails                    int
		FailSafeOn, FailSafeCompressor bool
		LastCmd                        cooling.Command
		HaveLast                       bool
		Report                         GuardReport
	}
)

func toLegacy(s GuardState) legacyGuardState {
	scalar := func(c ScalarGuardState) legacyScalarState { return legacyScalarState{c.LastGood, c.HasGood} }
	out := legacyGuardState{
		Outside: scalar(s.Outside), OutsideRH: scalar(s.OutsideRH), InsideRH: scalar(s.InsideRH),
		ConsecFails: s.ConsecFails, FailSafeOn: s.FailSafeOn, FailSafeCompressor: s.FailSafeCompressor,
		LastCmd: s.LastCmd, HaveLast: s.HaveLast, Report: s.Report,
	}
	for _, c := range s.Sensors {
		out.Sensors = append(out.Sensors, legacySensorState{c.LastGood, c.LastGoodTime, c.HasGood, c.LastRaw, c.HasRaw, c.FlatSince})
	}
	return out
}

// guardScenario is step i of a 20-period sensor and controller history
// that exercises every piece of guard state: a NaN inlet reading
// (substitution), an inlet sensor stuck from step 6 to 13 (flatline,
// then stale, then dead, then alive again), out-of-range outside and
// inside readings, and an inner controller that fails at steps 15–17.
func guardScenario(i int) Observation {
	t := float64(i) * 600
	drift := units.Celsius(0.05 * float64(i))
	obs := obsAt(t, 24+drift, 25+drift, 26+drift, 27+drift)
	switch {
	case i == 3 || i == 4:
		obs.PodInlet[1] = units.Celsius(math.NaN())
	case i >= 6 && i <= 13:
		obs.PodInlet[3] = 27.5
	}
	if i == 8 {
		obs.Outside.SetTemp(200)
	}
	if i == 9 {
		obs.InsideRH = units.RelHumidity(math.NaN())
	}
	return obs
}

// scenarioController fails at steps 15–17 and otherwise answers with a
// fan speed that depends on the hottest sanitized inlet, so a guard
// feeding it different readings decides differently.
func scenarioController() *scriptedController {
	return &scriptedController{decide: func(o Observation) (cooling.Command, error) {
		if step := int(o.Time / 600); step >= 15 && step <= 17 {
			return cooling.Command{}, errors.New("scripted failure")
		}
		hot, _ := o.MaxPodInlet()
		return cooling.Command{Mode: cooling.ModeFreeCooling, FanSpeed: math.Min(1, float64(hot-20)/10)}, nil
	}}
}

// TestGuardRestoresLegacyRunState encodes the guard's state in the
// legacy run-state layout at two points of the scenario (mid-flatline,
// and mid-failure-streak), restores it into a fresh guard, and requires
// the restored guard's next decisions and reports to match the guard
// that never stopped.
func TestGuardRestoresLegacyRunState(t *testing.T) {
	const steps = 20
	for _, at := range []int{10, 15} {
		live := NewGuard(scenarioController(), GuardConfig{})
		for i := 0; i <= at; i++ {
			if _, err := live.Decide(guardScenario(i)); err != nil {
				t.Fatal(err)
			}
		}
		snap := live.StateSnapshot()

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(toLegacy(snap)); err != nil {
			t.Fatal(err)
		}
		var decoded GuardState
		if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
			t.Fatalf("step %d: legacy layout does not decode: %v", at, err)
		}
		if !reflect.DeepEqual(decoded, snap) {
			t.Fatalf("step %d: decoded state %+v, want %+v", at, decoded, snap)
		}

		restored := NewGuard(scenarioController(), GuardConfig{})
		restored.RestoreState(decoded)
		if restored.Report() != live.Report() {
			t.Fatalf("step %d: restored report %+v, want %+v", at, restored.Report(), live.Report())
		}
		for i := at + 1; i < steps; i++ {
			want, err := live.Decide(guardScenario(i))
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Decide(guardScenario(i))
			if err != nil {
				t.Fatal(err)
			}
			if got != want || restored.FailSafeActive() != live.FailSafeActive() {
				t.Errorf("restored at %d, step %d: command %v (fail-safe %v), want %v (fail-safe %v)",
					at, i, got, restored.FailSafeActive(), want, live.FailSafeActive())
			}
		}
		if restored.Report() != live.Report() {
			t.Errorf("restored at %d: final report %+v, want %+v", at, restored.Report(), live.Report())
		}
	}

	// The scenario must actually reach the states it claims to cover.
	g := NewGuard(scenarioController(), GuardConfig{})
	for i := 0; i < steps; i++ {
		if _, err := g.Decide(guardScenario(i)); err != nil {
			t.Fatal(err)
		}
	}
	r := g.Report()
	if r.NaNRejects == 0 || r.RangeRejects == 0 || r.FlatlineRejects == 0 || r.Substitutions == 0 ||
		r.DeadSensorObs == 0 || r.DecideErrors == 0 || r.HoldFallbacks == 0 || r.FailSafeEngagements < 2 {
		t.Errorf("scenario misses a guard path: %+v", r)
	}
}
