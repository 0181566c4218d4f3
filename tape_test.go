package coolair_test

import (
	"context"
	"math"
	"testing"

	"coolair"
	"coolair/internal/control"
	"coolair/internal/core"
	"coolair/internal/experiments"
	"coolair/internal/faults"
	"coolair/internal/sim"
	"coolair/internal/weather"
)

// freeClock is a Clock that never waits.
type freeClock struct{}

func (freeClock) Pace(context.Context, float64) error { return nil }

// highLatitudeSite is the first world-grid site at |latitude| ≥ 45°.
func highLatitudeSite(t *testing.T) weather.Climate {
	t.Helper()
	for _, c := range weather.WorldGrid() {
		if math.Abs(c.Lat) >= 45 {
			return c
		}
	}
	t.Fatal("world grid has no site at |latitude| >= 45")
	return weather.Climate{}
}

// TestClusterTapeDifferential pins the cluster tape against the live
// cluster: for every standard system, the Figure 11 placement versions,
// All-DEF and a forecast-bias system, at Singapore, Newark and a
// high-latitude world-grid site, a run on the lab's tapes and a live run
// of the same cell give equal Result.Digest. A priming pass records the
// tapes first, so every non-deferrable taped cell must have replayed —
// without that check the test could pass with both runs live. All-DEF,
// whose release times read the forecast, must stay live.
func TestClusterTapeDifferential(t *testing.T) {
	l := experiments.NewLab()
	biased := experiments.CoolAirSystem(core.VersionAllND)
	biased.Name, biased.ForecastBias = "All-ND+5C", 5
	systems := append(experiments.StandardSystems(),
		experiments.CoolAirSystem(core.VersionVarLowRecirc),
		experiments.CoolAirSystem(core.VersionVarHighRecirc),
		experiments.CoolAirSystem(core.VersionAllDEF),
		biased,
	)
	climates := []weather.Climate{coolair.Singapore, coolair.Newark, highLatitudeSite(t)}
	days := experiments.YearDays(3)

	run := func(cl weather.Climate, sys experiments.System, taped bool) *sim.Result {
		t.Helper()
		env, ctrl, err := l.NewRun(cl, sys)
		if err != nil {
			t.Fatal(err)
		}
		if !taped {
			env.Tapes = nil
		}
		res, err := sim.Run(env, ctrl, sim.RunConfig{
			Days: days, Trace: sys.Workload(l.Facebook()), KeepAllActive: sys.Baseline, RecordSeries: true,
		})
		if err != nil {
			t.Fatalf("%s @ %s: %v", sys.Name, cl.Name, err)
		}
		return res
	}

	// Priming pass: record every tape at a site outside the comparison.
	for _, sys := range systems {
		run(coolair.Chad, sys, true)
	}
	for _, cl := range climates {
		for _, sys := range systems {
			live, taped := run(cl, sys, false), run(cl, sys, true)
			if live.ClusterPath() != sim.ClusterLive {
				t.Errorf("%s @ %s: run without a tape store reports %v", sys.Name, cl.Name, live.ClusterPath())
			}
			want := sim.ClusterReplayed
			if sys.Deferrable {
				want = sim.ClusterLive
			}
			if got := taped.ClusterPath(); got != want {
				t.Errorf("%s @ %s: taped run's cluster %v, want %v", sys.Name, cl.Name, got, want)
			}
			if a, b := live.Digest(), taped.Digest(); a != b {
				t.Errorf("%s @ %s: live digest %s, taped %s", sys.Name, cl.Name, a, b)
			}
		}
	}
}

// TestClusterTapeStaysLive pins the runs that must never touch a tape,
// even on a lab whose tape for the same cell is recorded: fault
// injection, a checkpoint resume, a paced clock and a controller that
// declares no server policy (a Guard).
func TestClusterTapeStaysLive(t *testing.T) {
	l := experiments.NewLab()
	sys := experiments.BaselineSystem()
	days := []int{150}
	cfg := func() sim.RunConfig {
		return sim.RunConfig{Days: days, Trace: l.Facebook(), KeepAllActive: true}
	}
	run := func(name string, cfg sim.RunConfig, wrap func(control.Controller) control.Controller) *sim.Result {
		t.Helper()
		env, ctrl, err := l.NewRun(coolair.Newark, sys)
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			ctrl = wrap(ctrl)
		}
		res, err := sim.Run(env, ctrl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	if p := run("record", cfg(), nil).ClusterPath(); p != sim.ClusterRecorded {
		t.Fatalf("first run on a fresh lab: cluster %v, want recorded", p)
	}
	if p := run("replay", cfg(), nil).ClusterPath(); p != sim.ClusterReplayed {
		t.Fatalf("second run: cluster %v, want replayed", p)
	}

	inj, err := faults.NewInjector(faults.Plan{Seed: 1, Faults: []faults.Fault{
		{Kind: faults.FanStuck, Start: 150*86400 + 3600, Duration: 3600, Magnitude: 0.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	faulted := cfg()
	faulted.Faults = inj

	var cp *sim.Checkpoint
	checkpointed := cfg()
	checkpointed.CheckpointSeconds = 6 * 3600
	checkpointed.Checkpoint = func(c *sim.Checkpoint) {
		if cp == nil {
			cp = c
		}
	}
	paced := cfg()
	paced.Clock = freeClock{}

	for _, tc := range []struct {
		name string
		cfg  *sim.RunConfig
		wrap func(control.Controller) control.Controller
	}{
		{"faults", &faulted, nil},
		{"checkpoint", &checkpointed, nil},
		{"clock", &paced, nil},
		{"guard", nil, func(c control.Controller) control.Controller {
			return control.NewGuard(c, control.GuardConfig{})
		}},
	} {
		c := cfg()
		if tc.cfg != nil {
			c = *tc.cfg
		}
		if p := run(tc.name, c, tc.wrap).ClusterPath(); p != sim.ClusterLive {
			t.Errorf("%s: cluster %v, want live", tc.name, p)
		}
	}
	if cp == nil {
		t.Fatal("checkpointed run produced no checkpoint")
	}
	resumed := cfg()
	resumed.Resume = cp
	if p := run("resume", resumed, nil).ClusterPath(); p != sim.ClusterLive {
		t.Errorf("resume: cluster %v, want live", p)
	}
}
