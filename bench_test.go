// Benchmarks regenerating scaled-down versions of every table and figure
// in the paper's evaluation. Each benchmark runs the same harness the
// cmd/coolair-experiments binary uses at full scale, over fewer sampled
// days and sites so `go test -bench=.` completes in minutes. The figure
// ids in the names map to DESIGN.md's experiment index.
package coolair_test

import (
	"sync"
	"testing"

	"coolair"
	"coolair/internal/cooling"
	"coolair/internal/core"
	"coolair/internal/experiments"
	"coolair/internal/hadoop"
	"coolair/internal/model"
	"coolair/internal/physics"
	"coolair/internal/sim"
	"coolair/internal/trace"
	"coolair/internal/trace/series"
	"coolair/internal/units"
	"coolair/internal/weather"
	"coolair/internal/workload"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

// lab returns a shared Lab whose Cooling Models are trained once; the
// training cost is excluded from every benchmark via b.ResetTimer.
func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab = experiments.NewLab()
		if _, err := benchLab.Model(coolair.RealSim); err != nil {
			b.Fatal(err)
		}
		if _, err := benchLab.Model(coolair.SmoothSim); err != nil {
			b.Fatal(err)
		}
	})
	return benchLab
}

// benchDays is the scaled-down year sampling for benchmarks.
const benchDays = 4

// twoSites keeps grid benchmarks to one cold and one hot location.
func twoSites() []weather.Climate {
	return []weather.Climate{weather.Newark, weather.Singapore}
}

func BenchmarkFig1DiskTemps(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := l.RunFig1()
		if err != nil {
			b.Fatal(err)
		}
		if r.CorrelationDiskInlet() < 0.5 {
			b.Fatal("disk/inlet correlation collapsed")
		}
	}
}

func BenchmarkFig5ModelValidation(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunFig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6BaselineSim(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunFig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7CoolAirRuns(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.RunFig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchYearStudy(b *testing.B, check func(*experiments.YearStudy)) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := l.RunYearStudy(twoSites(), nil, benchDays, l.Facebook())
		if err != nil {
			b.Fatal(err)
		}
		check(st)
	}
}

func BenchmarkFig8Violations(b *testing.B) {
	benchYearStudy(b, func(st *experiments.YearStudy) {
		_ = st.Fig8Table()
	})
}

func BenchmarkFig9Ranges(b *testing.B) {
	benchYearStudy(b, func(st *experiments.YearStudy) {
		_ = st.Fig9Table()
	})
}

func BenchmarkFig10PUE(b *testing.B) {
	benchYearStudy(b, func(st *experiments.YearStudy) {
		_ = st.Fig10Table()
	})
}

func BenchmarkFig11Placement(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunPlacementStudy(twoSites(), benchDays); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12World(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := l.RunWorldStudy(8, benchDays)
		if err != nil {
			b.Fatal(err)
		}
		_ = st.Fig12Table()
	}
}

func BenchmarkFig13WorldPUE(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := l.RunWorldStudy(8, benchDays)
		if err != nil {
			b.Fatal(err)
		}
		_ = st.Fig13Table()
	}
}

func BenchmarkCostOfManaging(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunCostStudy(twoSites(), benchDays); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTemporalScheduling(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunTemporalStudy(twoSites()[:1], benchDays); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxTempSensitivity(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunMaxTempStudy(twoSites()[:1], benchDays); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForecastAccuracy(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunForecastStudy(twoSites()[:1], benchDays); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNutchWorkload(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RunYearStudy(twoSites(), nil, benchDays, l.Nutch()); err != nil {
			b.Fatal(err)
		}
	}
}

// decisionBenchSetup builds a primed controller and a realistic midday
// observation for the per-period decision benchmarks.
func decisionBenchSetup(b *testing.B) (*core.CoolAir, coolair.Observation) {
	b.Helper()
	l := lab(b)
	m, err := l.Model(coolair.SmoothSim)
	if err != nil {
		b.Fatal(err)
	}
	env, err := coolair.NewEnv(coolair.Newark, coolair.SmoothSim)
	if err != nil {
		b.Fatal(err)
	}
	env.Model = m
	ca, err := core.New(core.VersionOptions(core.VersionAllND, core.DefaultBandConfig()),
		m, env.Forecast, env.Plant, env.Cluster)
	if err != nil {
		b.Fatal(err)
	}
	// Prime the monitor history and a realistic observation.
	if _, err := coolair.Run(env, ca, coolair.RunConfig{Days: []int{150}, Trace: l.Facebook(), CollectSnapshots: true}); err != nil {
		b.Fatal(err)
	}
	obs := coolair.Observation{
		Day: 150, HourOfDay: 12,
		PodInlet:  []coolair.Celsius{26, 27, 27.5, 28},
		PodActive: []bool{true, true, true, true},
		InsideRH:  55, Utilization: 0.5, ITLoad: 0.5,
	}
	return ca, obs
}

// BenchmarkCoolAirDecision isolates the optimizer's per-period cost:
// candidate enumeration, horizon prediction, and utility scoring.
func BenchmarkCoolAirDecision(b *testing.B) {
	ca, obs := decisionBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.Decide(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoolAirDecisionTraced is the same decision loop with a ring
// flight recorder attached. The record path copies a fixed-size
// DecisionRecord held on the controller into the preallocated ring, so
// allocs/op must stay at zero and ns/op within a few percent of the
// untraced benchmark; the baseline gate enforces the allocation bound.
func BenchmarkCoolAirDecisionTraced(b *testing.B) {
	ca, obs := decisionBenchSetup(b)
	ring := coolair.NewTraceRing(0, 0)
	ca.SetRecorder(ring)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.Decide(obs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(ring.Decisions()) == 0 {
		b.Fatal("recorder captured nothing")
	}
}

// BenchmarkWorldThroughput is the tentpole number for the world sweep:
// the Figure 12/13 study (8 sites × 2 systems × benchDays sampled days)
// reported as simulated site-days per second of wall clock — the metric
// cmd/coolair-world prints for its full-grid runs. The lab keeps one
// cluster tape per system (sim.TapeStore): the first iteration records
// each system's cluster at its first site and replays it at the other
// seven, and later iterations replay it everywhere, as every study after
// the first does on a long-lived lab.
func BenchmarkWorldThroughput(b *testing.B) {
	l := lab(b)
	const sites = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := l.RunWorldStudy(sites, benchDays)
		if err != nil {
			b.Fatal(err)
		}
		if len(st.Sites) != sites {
			b.Fatalf("swept %d sites, want %d", len(st.Sites), sites)
		}
	}
	b.ReportMetric(float64(sites*2*benchDays*b.N)/b.Elapsed().Seconds(), "site-days/s")
}

// BenchmarkClusterReplay isolates the live cluster layer of the sweep:
// one Facebook trace day replayed through a fresh all-active Parasol
// cluster at the physics step, with the per-step cluster calls sim.Run
// makes (pod power and disk utilization for the physics, Step, energy
// accrual). The cluster has no tape, so every task is simulated. It
// reports ns/step beside ns/op.
func BenchmarkClusterReplay(b *testing.B) {
	tr, sizes := clusterDayTrace(), parasolPods()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := clusterDay(b, tr, sizes, nil)
		if len(c.Completed()) == 0 {
			b.Fatal("no job completed")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*clusterDaySteps), "ns/step")
}

// BenchmarkClusterTapeReplay is BenchmarkClusterReplay's day on a cluster
// that replays a tape of it (recorded once, outside the timer): the cost
// a taped world-sweep cell pays for its cluster. It reports ns/step.
func BenchmarkClusterTapeReplay(b *testing.B) {
	tr, sizes := clusterDayTrace(), parasolPods()
	rec, err := hadoop.NewCluster(sizes)
	if err != nil {
		b.Fatal(err)
	}
	if err := rec.Record(); err != nil {
		b.Fatal(err)
	}
	clusterDay(b, tr, sizes, rec)
	tape, err := rec.EndTape()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := hadoop.NewCluster(sizes)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Replay(tape); err != nil {
			b.Fatal(err)
		}
		clusterDay(b, tr, sizes, c)
		if _, err := c.EndTape(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*clusterDaySteps), "ns/step")
	b.ReportMetric(float64(tape.Bytes()), "tape-bytes")
}

// clusterDaySteps is one day of physics steps.
const clusterDaySteps = 86400 / sim.PhysicsStepSeconds

// parasolPods returns the Parasol container's pod sizes.
func parasolPods() []int {
	pods := physics.Parasol().Pods
	sizes := make([]int, len(pods))
	for i, p := range pods {
		sizes[i] = p.Servers
	}
	return sizes
}

// clusterDayTrace is the trace the cluster benchmarks replay.
func clusterDayTrace() *workload.Trace { return workload.Facebook(64, experiments.NewLab().Seed) }

// clusterDay drives one trace day through c (a fresh all-active cluster
// of the given pod sizes when c is nil) with the per-step calls sim.Run
// makes, and returns the cluster.
func clusterDay(b *testing.B, tr *workload.Trace, sizes []int, c *hadoop.Cluster) *hadoop.Cluster {
	if c == nil {
		var err error
		if c, err = hadoop.NewCluster(sizes); err != nil {
			b.Fatal(err)
		}
	}
	const dt = sim.PhysicsStepSeconds
	var power [8]units.Watts
	var disk [8]float64
	c.ActivateAll()
	next := 0
	for s := 0; s < clusterDaySteps; s++ {
		for now := float64(s) * dt; next < len(tr.Jobs) && tr.Jobs[next].Arrival <= now; next++ {
			c.Submit(tr.Jobs[next])
		}
		c.PodPowerInto(power[:0])
		c.PodDiskUtilInto(disk[:0])
		c.Step(dt)
		c.AccrueEnergy(dt)
	}
	return c
}

// BenchmarkPredictWindow isolates one horizon prediction — the unit of
// work the optimizer repeats once per candidate regime per period — as
// a one-candidate PredictWindowBatch.
func BenchmarkPredictWindow(b *testing.B) {
	l := lab(b)
	m, err := l.Model(coolair.SmoothSim)
	if err != nil {
		b.Fatal(err)
	}
	plant := cooling.SmoothPlant()
	if _, err := plant.Step(cooling.Command{Mode: cooling.ModeFreeCooling, FanSpeed: 0.5}, 120); err != nil {
		b.Fatal(err)
	}
	sched, err := plant.PreviewSchedule(cooling.Command{Mode: cooling.ModeFreeCooling, FanSpeed: 0.7},
		model.ModelStepSeconds, model.HorizonSteps)
	if err != nil {
		b.Fatal(err)
	}
	pods := m.Pods()
	state := model.PredictorState{
		PodTemp:         make([]units.Celsius, pods),
		PodTempPrev:     make([]units.Celsius, pods),
		OutsideTemp:     18,
		OutsideTempPrev: 17.8,
		InsideAbs:       units.AbsFromRel(26, 50),
		OutsideAbs:      units.AbsFromRel(18, 60),
		Utilization:     0.5,
		ITLoad:          0.5,
		Mode:            cooling.ModeFreeCooling,
		PrevMode:        cooling.ModeFreeCooling,
		FanSpeed:        0.5,
		CompSpeed:       0,
	}
	for p := 0; p < pods; p++ {
		state.PodTemp[p] = units.Celsius(26 + float64(p))
		state.PodTempPrev[p] = units.Celsius(25.8 + float64(p))
	}
	var sc model.BatchScratch
	skip := []bool{false}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.PredictWindowBatch(&sc, state, sched, len(sched), skip); err != nil {
			b.Fatal(err)
		}
	}
	if sc.Failed(0) {
		b.Fatal("prediction failed")
	}
}

// BenchmarkSeriesAppend isolates the time-series store's append: one
// sample into the raw ring plus its rollup cascade. The store is
// fixed-memory by construction, so the append path must not allocate —
// the baseline gate enforces 0 allocs/op.
func BenchmarkSeriesAppend(b *testing.B) {
	db := series.NewDB(series.FleetConfig())
	id := db.Register("bench_metric")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Append(id, float64(i), 25+float64(i%7))
	}
}

// BenchmarkSeriesCollectTick is the full telemetry tee on the sim hot
// path: a tick record copied into the flight-recorder ring, fanned into
// the per-metric series store, and an SLO engine observation (throttled
// to one evaluation per simulated minute, so its query cost amortizes
// to ~0 per tick). This is the per-tick overhead coolair-serve adds
// over the bare ring.
func BenchmarkSeriesCollectTick(b *testing.B) {
	ring := trace.NewRing(0, 0)
	db := series.NewDB(series.FleetConfig())
	eng := series.NewEngine(db, nil, ring.Metrics(), 0)
	c := series.NewCollector(ring, db, eng)
	rec := trace.TickRecord{
		OutsideTemp: 20, OutsideRH: 55, InletMin: 22, InletMax: 28,
		InsideRH: 45, CoolingW: 1500, ITW: 90e3, Utilization: 0.4,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Time = float64(i)
		c.RecordTick(&rec)
	}
}

// BenchmarkTMYGeneration measures one weather-year synthesis — the cost
// the TMY cache amortizes across environment constructions.
func BenchmarkTMYGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := weather.GenerateTMY(weather.Newark)
		if len(s.Temp) != weather.HoursPerYear {
			b.Fatal("short series")
		}
	}
}
