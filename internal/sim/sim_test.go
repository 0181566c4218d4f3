package sim

import (
	"math"
	"sync"
	"testing"

	"coolair/internal/control"
	"coolair/internal/cooling"
	"coolair/internal/core"
	"coolair/internal/hadoop"
	"coolair/internal/model"
	"coolair/internal/tks"
	"coolair/internal/weather"
	"coolair/internal/workload"
)

// trainedEnv builds and trains an environment once per fidelity and
// caches the model across tests (training is the expensive part).
var cachedModels = map[Fidelity]*model.Model{}

func trainedEnv(t *testing.T, cl weather.Climate, fid Fidelity) *Env {
	t.Helper()
	env, err := NewEnv(cl, fid)
	if err != nil {
		t.Fatal(err)
	}
	if m := cachedModels[fid]; m != nil {
		env.Model = m
		return env
	}
	tr := workload.Facebook(64, 1)
	if err := env.Train(4, tr, 42); err != nil {
		t.Fatal(err)
	}
	cachedModels[fid] = env.Model
	// Rebuild a fresh env so training transients don't leak into runs.
	fresh, err := NewEnv(cl, fid)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Model = env.Model
	return fresh
}

func newCoolAir(t *testing.T, env *Env, v core.Version) *core.CoolAir {
	t.Helper()
	if env.Model == nil {
		t.Fatal(ErrNoModel)
	}
	c, err := core.New(core.VersionOptions(v, core.DefaultBandConfig()),
		env.Model, env.Forecast, env.Plant, env.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBaselineDayRun(t *testing.T) {
	env, err := NewEnv(weather.Newark, RealSim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(env, tks.Baseline(), RunConfig{
		Days: []int{150}, Trace: workload.Facebook(64, 1),
		KeepAllActive: true, RecordSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Days != 1 {
		t.Fatalf("days = %d", res.Summary.Days)
	}
	// The baseline protects a 30°C setpoint: violations bounded.
	if res.Summary.AvgViolation > 3 {
		t.Errorf("baseline avg violation %0.2f°C too high", res.Summary.AvgViolation)
	}
	// PUE must include delivery overhead and some cooling energy.
	if res.Summary.PUE < 1.08 || res.Summary.PUE > 2.5 {
		t.Errorf("baseline PUE %0.3f implausible", res.Summary.PUE)
	}
	if len(res.Series) == 0 {
		t.Error("series not recorded")
	}
	// Inlets track within physical bounds.
	for _, p := range res.Series {
		if p.InletMax > 60 || p.InletMin < -20 {
			t.Fatalf("inlet out of bounds: %+v", p)
		}
	}
	if res.JobsSubmitted == 0 {
		t.Error("no jobs submitted")
	}
}

func TestBaselineKeepsServersActive(t *testing.T) {
	env, _ := NewEnv(weather.Newark, RealSim)
	_, err := Run(env, tks.Baseline(), RunConfig{
		Days: []int{10}, Trace: workload.Facebook(64, 1), KeepAllActive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := env.Cluster.ActiveServers(); got != 64 {
		t.Errorf("baseline should keep all 64 active, has %d", got)
	}
}

func TestTrainingProducesUsableModel(t *testing.T) {
	env := trainedEnv(t, weather.Newark, RealSim)
	if env.Model == nil {
		t.Fatal("no model")
	}
	if got := env.Model.Pods(); got != 4 {
		t.Errorf("model pods = %d", got)
	}
	if rank := env.Model.PodsByRecirc(); rank[0] != 0 || rank[3] != 3 {
		t.Errorf("recirc rank %v, want [0 1 2 3] for Parasol's layout", rank)
	}
}

func TestCoolAirManagesTemperature(t *testing.T) {
	env := trainedEnv(t, weather.Newark, SmoothSim)
	ca := newCoolAir(t, env, core.VersionAllND)
	res, err := Run(env, ca, RunConfig{
		Days: []int{150, 157, 164}, Trace: workload.Facebook(64, 1), RecordSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Summer days at Newark: CoolAir must keep violations tiny (paper:
	// < 0.5°C average).
	if res.Summary.AvgViolation > 0.5 {
		t.Errorf("All-ND avg violation %0.2f, want < 0.5", res.Summary.AvgViolation)
	}
	if ca.Decisions() == 0 {
		t.Error("optimizer never ran")
	}
	b := ca.Band()
	if b.Width() < 4.9 || b.Width() > 5.1 {
		t.Errorf("band width %0.1f, want 5", b.Width())
	}
	if res.JobsCompleted == 0 {
		t.Error("no jobs completed under CoolAir")
	}
}

func TestCoolAirReducesVariationVsBaseline(t *testing.T) {
	// The headline comparison, scaled down: several winter+spring days
	// at Newark, worst-sensor daily ranges under baseline vs All-ND on
	// the smooth infrastructure.
	days := []int{0, 14, 28, 42, 90, 104}
	trace := workload.Facebook(64, 1)

	envB, _ := NewEnv(weather.Newark, SmoothSim)
	resB, err := Run(envB, tks.Baseline(), RunConfig{Days: days, Trace: trace, KeepAllActive: true})
	if err != nil {
		t.Fatal(err)
	}

	envC := trainedEnv(t, weather.Newark, SmoothSim)
	ca := newCoolAir(t, envC, core.VersionAllND)
	resC, err := Run(envC, ca, RunConfig{Days: days, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}

	// On this small day subset the max is noisy: require the average
	// strictly better and the max no more than 1°C worse (the full-year
	// comparison lives in the experiments harness).
	if resC.Summary.MaxWorstDailyRange >= resB.Summary.MaxWorstDailyRange+1 {
		t.Errorf("All-ND max daily range %0.1f should not exceed baseline %0.1f by 1°C",
			resC.Summary.MaxWorstDailyRange, resB.Summary.MaxWorstDailyRange)
	}
	if resC.Summary.AvgWorstDailyRange >= resB.Summary.AvgWorstDailyRange {
		t.Errorf("All-ND avg daily range %0.1f should beat baseline %0.1f",
			resC.Summary.AvgWorstDailyRange, resB.Summary.AvgWorstDailyRange)
	}
	t.Logf("baseline: avg=%0.1f max=%0.1f PUE=%0.3f | All-ND: avg=%0.1f max=%0.1f PUE=%0.3f",
		resB.Summary.AvgWorstDailyRange, resB.Summary.MaxWorstDailyRange, resB.Summary.PUE,
		resC.Summary.AvgWorstDailyRange, resC.Summary.MaxWorstDailyRange, resC.Summary.PUE)

	// The reliability annotation must be populated, and All-ND's disk
	// variation-lens risk must not exceed the baseline's.
	if resC.DiskProfile.MeanDiskTemp <= 0 || resB.DiskProfile.MeanDiskTemp <= 0 {
		t.Fatal("disk profiles not populated")
	}
	// Disk ranges also carry load-driven swing, so allow a small margin
	// on this short day subset.
	if resC.DiskReliability.VariationLens > resB.DiskReliability.VariationLens+0.1 {
		t.Errorf("All-ND variation-lens risk %0.2f should not exceed baseline %0.2f",
			resC.DiskReliability.VariationLens, resB.DiskReliability.VariationLens)
	}
	if resC.DiskReliability.CycleBudgetFraction > 1 {
		t.Errorf("cycle budget exceeded: %0.2f", resC.DiskReliability.CycleBudgetFraction)
	}
}

func TestCoolAirSleepsIdleServers(t *testing.T) {
	env := trainedEnv(t, weather.Newark, SmoothSim)
	ca := newCoolAir(t, env, core.VersionAllND)
	_, err := Run(env, ca, RunConfig{Days: []int{100}, Trace: workload.Facebook(64, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// The Compute Manager shrinks the active set conservatively (to
	// avoid power-cycle churn), but it must have slept servers at some
	// point during the day.
	if got := env.Cluster.ActiveServers(); got >= 64 {
		t.Errorf("CoolAir left all %d servers active", got)
	}
	slept := false
	for _, s := range env.Cluster.Servers {
		if s.State != hadoop.Active {
			slept = true
		}
	}
	if !slept {
		t.Error("no server ever left the active state")
	}
}

func TestPowerCycleBudget(t *testing.T) {
	// Paper §4.2: no disk gets power-cycled more than 2.2 times/hour on
	// average under CoolAir's worst workloads.
	env := trainedEnv(t, weather.Newark, SmoothSim)
	ca := newCoolAir(t, env, core.VersionAllND)
	res, err := Run(env, ca, RunConfig{Days: []int{100, 101}, Trace: workload.Facebook(64, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxPowerCycleRate > 2.2 {
		t.Errorf("max power-cycle rate %0.2f/h exceeds the paper's 2.2", res.MaxPowerCycleRate)
	}
}

func TestHeldOutModelValidation(t *testing.T) {
	// Figure 5 end-to-end: validate the trained model against held-out
	// snapshots from a baseline run on days never seen in training.
	env := trainedEnv(t, weather.Newark, RealSim)
	res, err := Run(env, tks.Baseline(), RunConfig{
		Days: []int{120, 170}, Trace: workload.Facebook(64, 1),
		KeepAllActive: true, CollectSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots) < 1000 {
		t.Fatalf("only %d snapshots", len(res.Snapshots))
	}
	val := model.Validate(env.Model, res.Snapshots)
	if f := model.FractionWithin(val.Errs2MinSteady, 1.0); f < 0.85 {
		t.Errorf("2-min steady within 1°C = %0.2f (paper: 0.95)", f)
	}
	if f := model.FractionWithin(val.Errs10Min, 2.5); f < 0.7 {
		t.Errorf("10-min within 2.5°C = %0.2f", f)
	}
}

func TestWeekdaySample(t *testing.T) {
	days := WeekdaySample()
	if len(days) != 52 {
		t.Fatalf("%d days", len(days))
	}
	if days[0] != 0 || days[51] != 357 {
		t.Errorf("sample endpoints %d..%d", days[0], days[51])
	}
}

func TestRunRejectsSubStepPeriod(t *testing.T) {
	env, _ := NewEnv(weather.Newark, RealSim)
	bad := badPeriodController{}
	if _, err := Run(env, bad, RunConfig{Days: []int{0}}); err == nil {
		t.Error("sub-step controller period should error")
	}
}

type badPeriodController struct{}

func (badPeriodController) Name() string    { return "bad" }
func (badPeriodController) Period() float64 { return 1 }
func (badPeriodController) Decide(control.Observation) (cooling.Command, error) {
	return cooling.Command{Mode: cooling.ModeClosed}, nil
}

func TestFidelityString(t *testing.T) {
	if RealSim.String() != "real-sim" || SmoothSim.String() != "smooth-sim" {
		t.Error("fidelity strings")
	}
}

func TestEnvValidation(t *testing.T) {
	if _, err := NewEnv(weather.Climate{Name: "bad", Lat: 99}, RealSim); err == nil {
		t.Error("invalid climate should error")
	}
}

func TestDayMath(t *testing.T) {
	if dayOf(86400*3+100) != 3 {
		t.Error("dayOf")
	}
	if h := hourOfDay(86400 + 3600*6); math.Abs(h-6) > 1e-9 {
		t.Errorf("hourOfDay = %v", h)
	}
}

func TestRunDeterminism(t *testing.T) {
	// Identical environments, controllers, and traces must produce
	// bit-identical results — the property that makes every experiment
	// in this repository reproducible.
	run := func() *Result {
		env, err := NewEnv(weather.Santiago, RealSim)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(env, tks.Baseline(), RunConfig{
			Days: []int{60, 67}, Trace: workload.Facebook(64, 9), KeepAllActive: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Summary != b.Summary {
		t.Errorf("summaries differ:\n%+v\n%+v", a.Summary, b.Summary)
	}
	if a.JobsCompleted != b.JobsCompleted {
		t.Errorf("jobs completed differ: %d vs %d", a.JobsCompleted, b.JobsCompleted)
	}
}

func TestEvaporativePlantReducesHotDryCooling(t *testing.T) {
	// The §2 adiabatic option: at a hot-arid site, attaching an
	// evaporative stage lets free cooling serve hours that otherwise
	// need the compressor.
	day := []int{100}
	tr := workload.Facebook(64, 1)

	plain, err := NewEnv(weather.Chad, RealSim)
	if err != nil {
		t.Fatal(err)
	}
	resPlain, err := Run(plain, tks.Baseline(), RunConfig{Days: day, Trace: tr, KeepAllActive: true})
	if err != nil {
		t.Fatal(err)
	}

	evap, _ := NewEnv(weather.Chad, RealSim)
	evap.Plant.Evap = cooling.DefaultEvaporativeCooler()
	resEvap, err := Run(evap, tks.Baseline(), RunConfig{Days: day, Trace: tr, KeepAllActive: true})
	if err != nil {
		t.Fatal(err)
	}
	if resEvap.Summary.CoolingKWh >= resPlain.Summary.CoolingKWh {
		t.Errorf("evaporative stage should cut cooling energy at Chad: %0.1f vs %0.1f kWh",
			resEvap.Summary.CoolingKWh, resPlain.Summary.CoolingKWh)
	}
	t.Logf("Chad day cooling: plain %0.1f kWh, evaporative %0.1f kWh",
		resPlain.Summary.CoolingKWh, resEvap.Summary.CoolingKWh)
}

// TestNewEnvConcurrent builds environments for a mix of climates from
// many goroutines at once. Run with -race it proves the shared TMY
// cache behind NewEnv is safe for parallel campaign grids, and it pins
// the sharing itself: every Env of one climate must see the same
// synthesized series.
func TestNewEnvConcurrent(t *testing.T) {
	climates := []weather.Climate{weather.Newark, weather.Santiago, weather.Singapore}
	const perClimate = 6
	series := make([][]*weather.Series, len(climates))
	errs := make([][]error, len(climates))
	var wg sync.WaitGroup
	for i := range climates {
		series[i] = make([]*weather.Series, perClimate)
		errs[i] = make([]error, perClimate)
		for j := 0; j < perClimate; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				env, err := NewEnv(climates[i], SmoothSim)
				if err != nil {
					errs[i][j] = err
					return
				}
				series[i][j] = env.Series
				// Exercise reads that race with any synthesis bug.
				env.Series.DayMean(100)
				env.outside()
			}(i, j)
		}
	}
	wg.Wait()
	for i := range climates {
		for j := 0; j < perClimate; j++ {
			if errs[i][j] != nil {
				t.Fatalf("NewEnv(%s): %v", climates[i].Name, errs[i][j])
			}
			if series[i][j] != series[i][0] {
				t.Errorf("%s env %d got a different series instance", climates[i].Name, j)
			}
		}
	}
}
