package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coolair/internal/core"
	"coolair/internal/experiments"
	"coolair/internal/hadoop"
	"coolair/internal/model"
	"coolair/internal/physics"
	"coolair/internal/sim"
	"coolair/internal/units"
	"coolair/internal/weather"
	"coolair/internal/workload"
)

const (
	// worldSites and worldDays size one world-sweep grid pass: 32 sites
	// × {Baseline, All-ND} × 4 sampled days = 256 site-days.
	worldSites = 32
	worldDays  = 4
	// nutchDays sizes one nutch-deferrable pass: 5 locations ×
	// {Baseline, All-ND, All-DEF} × 16 sampled days = 240 site-days.
	nutchDays = 16
	// setupReps is how many cold set-ups an untraced run times; setup_s
	// is their median.
	setupReps = 5
	// minRounds is the fewest timed grid passes a run makes, however
	// short --seconds is.
	minRounds = 3
	// deferSlack is the start-deadline slack Lab.Run gives deferrable
	// systems (All-DEF): six hours.
	deferSlack = 6 * 3600
	// completedFloor is the least share of submitted jobs the cluster
	// must finish inside their metered day.
	completedFloor = 0.9
	// replayDays is how many days of the trace the standalone cluster
	// replay steps through; the per-step time is the median over days.
	replayDays = 20
)

// fidelities are the two cooling-plant fidelities the lab trains a
// model for at set-up.
var fidelities = []sim.Fidelity{sim.RealSim, sim.SmoothSim}

// simSpec is one batch-simulation workload: every (climate, system)
// cell over the sampled days, on one workload trace.
type simSpec struct {
	name     string
	climates []weather.Climate
	systems  []experiments.System
	days     []int
	nutch    bool // replay the Nutch trace instead of Facebook's
	// rangeShape checks the paper's headline shape: All-ND's mean max
	// daily range is below Baseline's.
	rangeShape bool
}

// worldSweep is an evenly spaced subsample of the world grid whose
// offset comes from the seed, each site under Baseline and All-ND on the
// Facebook trace (the paper's Figures 12 and 13).
func worldSweep(seed int64) simSpec {
	grid := weather.WorldGrid()
	stride := len(grid) / worldSites
	off := int(seed % int64(stride))
	if off < 0 {
		off += stride
	}
	cls := make([]weather.Climate, worldSites)
	for i := range cls {
		cls[i] = grid[off+i*len(grid)/worldSites]
	}
	return simSpec{
		name:       "world-sweep",
		climates:   cls,
		systems:    []experiments.System{experiments.BaselineSystem(), experiments.CoolAirSystem(core.VersionAllND)},
		days:       experiments.YearDays(worldDays),
		rangeShape: true,
	}
}

// nutchDeferrable is the five study locations under Baseline, All-ND
// and All-DEF (six-hour start deadlines) on the Nutch trace.
func nutchDeferrable() simSpec {
	var systems []experiments.System
	for _, name := range []string{"baseline", "all-nd", "all-def"} {
		s, ok := experiments.SystemByName(name)
		if !ok {
			panic("unknown system " + name) // the names are constants above
		}
		systems = append(systems, s)
	}
	return simSpec{
		name:     "nutch-deferrable",
		climates: weather.StudyLocations(),
		systems:  systems,
		days:     experiments.YearDays(nutchDays),
		nutch:    true,
	}
}

// siteDays is the simulated site-days one grid pass covers.
func (s simSpec) siteDays() int { return len(s.climates) * len(s.systems) * len(s.days) }

func (s simSpec) trace(l *experiments.Lab) *workload.Trace {
	if s.nutch {
		return l.Nutch()
	}
	return l.Facebook()
}

// newLab is the sim workloads' set-up: a lab on the seed, both traces
// generated and both fidelities' Cooling Models trained cold.
func newLab(seed int64) (*experiments.Lab, error) {
	l := experiments.NewLab()
	l.Seed = seed
	l.Workers = runtime.NumCPU()
	l.Facebook()
	l.Nutch()
	for _, fid := range fidelities {
		if _, err := l.Model(fid); err != nil {
			return nil, fmt.Errorf("train %s model: %w", fid, err)
		}
	}
	return l, nil
}

// cellOut is one cell's outcome. The timing fields are filled on traced
// passes only.
type cellOut struct {
	system               string
	baseline             bool
	period               float64 // controller period, seconds
	digest               string
	maxRange, pue        float64
	submitted, completed int
	err                  error

	newRun, run time.Duration
	calls       callStats
}

// digest fingerprints what a run simulated: its metrics summary and job
// counts. fmt prints floats in their shortest exact form, so equal
// digests mean bit-identical summaries.
func digest(res *sim.Result) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v|%d|%d", res.Summary, res.JobsSubmitted, res.JobsCompleted)))
	return hex.EncodeToString(h[:8])
}

// grid is one workload's cells bound to a lab, ready to run repeatedly.
type grid struct {
	lab               *experiments.Lab
	spec              simSpec
	trace, deferrable *workload.Trace
}

func newGrid(lab *experiments.Lab, spec simSpec) *grid {
	tr := spec.trace(lab)
	return &grid{lab: lab, spec: spec, trace: tr, deferrable: tr.WithDeadlines(deferSlack)}
}

// runCell assembles one cell through Lab.NewRun and runs it with
// sim.Run, exactly as Lab.Run would; traced wraps the controller in the
// timing decorator.
func (g *grid) runCell(cl weather.Climate, sys experiments.System, traced bool) cellOut {
	out := cellOut{system: sys.Name, baseline: sys.Baseline}
	start := time.Now()
	env, ctrl, err := g.lab.NewRun(cl, sys)
	out.newRun = time.Since(start)
	if err != nil {
		out.err = fmt.Errorf("%s @ %s: new run: %w", sys.Name, cl.Name, err)
		return out
	}
	out.period = ctrl.Period()
	if traced {
		if ctrl, err = wrapTimed(ctrl, &out.calls); err != nil {
			out.err = err
			return out
		}
	}
	cfg := sim.RunConfig{Days: g.spec.days, Trace: g.trace, KeepAllActive: sys.Baseline}
	if sys.Deferrable {
		cfg.Trace = g.deferrable
	}
	start = time.Now()
	res, err := sim.Run(env, ctrl, cfg)
	out.run = time.Since(start)
	if err != nil {
		out.err = fmt.Errorf("%s @ %s: %w", sys.Name, cl.Name, err)
		return out
	}
	out.digest = digest(res)
	out.maxRange, out.pue = res.Summary.MaxWorstDailyRange, res.Summary.PUE
	out.submitted, out.completed = res.JobsSubmitted, res.JobsCompleted
	return out
}

// pass runs every cell once on runtime.NumCPU() workers and returns the
// outcomes in grid order (climate-major) with the pass's wall time.
func (g *grid) pass(traced bool) ([]cellOut, time.Duration) {
	type cell struct {
		cl  weather.Climate
		sys experiments.System
	}
	var cells []cell
	for _, cl := range g.spec.climates {
		for _, sys := range g.spec.systems {
			cells = append(cells, cell{cl, sys})
		}
	}
	out := make([]cellOut, len(cells))
	workers := min(runtime.NumCPU(), len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				out[i] = g.runCell(cells[i].cl, cells[i].sys, traced)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// checkPass counts each cell as one operation: it fails on a run error or
// a digest that differs from the reference pass's.
func checkPass(t *tally, label string, ref, got []cellOut) {
	for i, c := range got {
		if c.err != nil {
			t.check(false, "%s: %v", label, c.err)
			continue
		}
		t.check(c.digest == ref[i].digest, "%s: cell %d (%s) digest %s, reference %s",
			label, i, c.system, c.digest, ref[i].digest)
	}
}

// outcome is what the reference pass simulated.
type outcome struct {
	baseRange, ndRange, basePUE, ndPUE float64
	completedRatio                     float64
}

func summarize(cells []cellOut) outcome {
	var o outcome
	var nBase, nND, sub, done int
	for _, c := range cells {
		sub += c.submitted
		done += c.completed
		switch {
		case c.baseline:
			o.baseRange += c.maxRange
			o.basePUE += c.pue
			nBase++
		case c.system == core.VersionAllND.String():
			o.ndRange += c.maxRange
			o.ndPUE += c.pue
			nND++
		}
	}
	if nBase > 0 {
		o.baseRange /= float64(nBase)
		o.basePUE /= float64(nBase)
	}
	if nND > 0 {
		o.ndRange /= float64(nND)
		o.ndPUE /= float64(nND)
	}
	if sub > 0 {
		o.completedRatio = float64(done) / float64(sub)
	}
	return o
}

// referenceGap prints the simulated outcome beside the paper's world
// averages.
func referenceGap(o outcome) {
	fmt.Fprintf(os.Stderr, "simulated mean max daily range  Baseline %.2f C -> All-ND %.2f C   (paper, world average: 18.6 -> 12.1 C)\n", o.baseRange, o.ndRange)
	fmt.Fprintf(os.Stderr, "simulated mean PUE              Baseline %.4f -> All-ND %.4f   (paper, world average: 1.08 -> 1.09)\n", o.basePUE, o.ndPUE)
	fmt.Fprintln(os.Stderr, "The model is unvalidated against hardware (synthetic TMY weather, lumped container physics): the difference above is a gap, not an error figure.")
}

// runSim runs one batch-simulation workload. An untraced run times
// setupReps cold set-ups, one warm-up pass that fixes the reference
// digests and the simulated outcome, then timed passes for seconds. A
// traced run replaces the timed passes with alternating untraced and
// traced passes plus the standalone layer probes. Set-ups and timed
// passes are scaled to the reference host speed (see refTimed); the raw
// figures go to standard error.
func runSim(spec simSpec, seed int64, seconds time.Duration, traced bool) (*result, error) {
	reps := setupReps
	if traced {
		reps = 1
	}
	var setups, rawSetups []float64
	var lab *experiments.Lab
	for i := 0; i < reps; i++ {
		var err error
		raw, scaled := refTimed(func() { lab, err = newLab(seed) })
		if err != nil {
			return nil, err
		}
		rawSetups = append(rawSetups, raw)
		setups = append(setups, scaled)
	}
	g := newGrid(lab, spec)

	var t tally
	ref, _ := g.pass(false)
	for _, c := range ref {
		t.check(c.err == nil, "warm-up pass: %v", c.err)
	}
	o := summarize(ref)
	if spec.rangeShape {
		t.check(o.ndRange < o.baseRange, "shape: All-ND mean max range %.2f C is not below Baseline's %.2f C", o.ndRange, o.baseRange)
	}
	t.check(o.completedRatio >= completedFloor, "jobs completed ratio %.3f below floor %.2f", o.completedRatio, completedFloor)
	referenceGap(o)

	if traced {
		return tracedSim(g, ref, o, &t, seconds)
	}

	// Peak RSS is read after a fixed number of timed passes, so it
	// covers the same work however many passes the time allows.
	var rates, rawRates []float64
	var rss float64
	siteDays := float64(spec.siteDays())
	deadline := time.Now().Add(seconds)
	for len(rates) < minRounds || time.Now().Before(deadline) {
		var cells []cellOut
		raw, scaled := refTimed(func() { cells, _ = g.pass(false) })
		checkPass(&t, fmt.Sprintf("pass %d", len(rates)+1), ref, cells)
		rawRates = append(rawRates, siteDays/raw)
		rates = append(rates, siteDays/scaled)
		if len(rates) == minRounds {
			rss = selfMaxRSSMiB()
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d timed passes of %d site-days; site-days/s raw %v, at the reference host speed %v\n",
		spec.name, len(rates), spec.siteDays(), roundAll(rawRates), roundAll(rates))
	fmt.Fprintf(os.Stderr, "%s: set-up seconds raw %v, at the reference host speed %v\n", spec.name, roundAll(rawSetups), roundAll(setups))
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setups), "s"},
			"site_days_per_s": {median(rates), "site-days/s"},
			"max_rss_mb":      {rss, "MiB"},
			"sim_max_range_c": {o.ndRange, "C"},
			"sim_pue":         {o.ndPUE, "ratio"},
		},
	}, nil
}

// layerRound is one traced pass's per-layer sums (over cells, so busy
// time across workers, not wall time).
type layerRound struct {
	run, newRun, coreTotal, tksTotal time.Duration
	core, tks                        callStats
	steps                            float64 // physics steps behind the Decide calls
}

func collectRound(cells []cellOut) layerRound {
	var r layerRound
	for i := range cells {
		c := &cells[i]
		r.run += c.run
		r.newRun += c.newRun
		if c.baseline {
			r.tks.add(&c.calls)
		} else {
			r.core.add(&c.calls)
		}
		r.steps += float64(c.calls.decideCalls) * c.period / sim.PhysicsStepSeconds
	}
	return r
}

// tracedSim is the traced run of a sim workload: the training-campaign
// replica, the standalone cluster replay, then alternating untraced and
// traced grid passes until seconds have passed. Per-layer times are the
// median over traced passes; Decide percentiles pool every traced call.
func tracedSim(g *grid, ref []cellOut, o outcome, t *tally, seconds time.Duration) (*result, error) {
	m := map[string]metric{}
	var collectAll, fitAll float64
	for _, fid := range fidelities {
		collect, fit, same, err := trainReplica(g.lab, fid)
		if err != nil {
			return nil, err
		}
		t.check(same, "training replica for %s: saved model differs from Lab.Model's", fid)
		m["sim.collect_training_s."+fid.String()] = metric{collect.Seconds(), "s"}
		m["model.fit_s."+fid.String()] = metric{fit.Seconds(), "s"}
		collectAll += collect.Seconds()
		fitAll += fit.Seconds()
	}
	m["sim.collect_training_s"] = metric{collectAll, "s"}
	m["model.fit_s"] = metric{fitAll, "s"}

	stepUS, err := replayCluster(g.trace, replayDays)
	if err != nil {
		return nil, err
	}
	m["hadoop.replay_step_us"] = metric{stepUS, "us"}

	var plainWall, tracedWall, allocMB, gcs, speeds []float64
	var rounds []layerRound
	siteDays := float64(g.spec.siteDays())
	deadline := time.Now().Add(seconds)
	for len(rounds) < minRounds || time.Now().Before(deadline) {
		// Alternate which of the pair runs first, so drift in the host's
		// speed does not bias the overhead.
		tracedFirst := len(rounds)%2 == 1
		speeds = append(speeds, hostSpeed(calibChunks))
		if tracedFirst {
			r, wall := tracedPass(g, ref, t, len(rounds)+1)
			rounds = append(rounds, r)
			tracedWall = append(tracedWall, wall)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cells, wall := g.pass(false)
		runtime.ReadMemStats(&after)
		checkPass(t, fmt.Sprintf("untraced pass %d", len(plainWall)+1), ref, cells)
		plainWall = append(plainWall, wall.Seconds())
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)/siteDays)
		gcs = append(gcs, float64(after.NumGC-before.NumGC))
		if !tracedFirst {
			r, wall := tracedPass(g, ref, t, len(rounds)+1)
			rounds = append(rounds, r)
			tracedWall = append(tracedWall, wall)
		}
	}
	var decides []time.Duration
	for _, r := range rounds {
		decides = append(decides, r.core.decideSamples...)
	}

	med := func(f func(layerRound) float64) float64 {
		v := make([]float64, len(rounds))
		for i, r := range rounds {
			v[i] = f(r)
		}
		return median(v)
	}
	substrate := func(r layerRound) time.Duration { return r.run - r.core.total() - r.tks.total() }
	runS := med(func(r layerRound) float64 { return r.run.Seconds() })
	substrateS := med(func(r layerRound) float64 { return substrate(r).Seconds() })
	decideS := med(func(r layerRound) float64 { return r.core.decide.Seconds() })
	p50, _ := percentile(micros(decides), 0.50)
	p99, ok99 := percentile(micros(decides), 0.99)
	if !ok99 {
		return nil, fmt.Errorf("only %d Decide samples: too few for a p99", len(decides))
	}
	for name, v := range map[string]metric{
		"sim.run_s":                     {runS, "s"},
		"sim.substrate_s":               {substrateS, "s"},
		"sim.substrate_us_per_step":     {med(func(r layerRound) float64 { return 1e6 * substrate(r).Seconds() / r.steps }), "us"},
		"hadoop.jobs_completed_ratio":   {o.completedRatio, "ratio"},
		"core.decide_s":                 {decideS, "s"},
		"core.decide_calls":             {med(func(r layerRound) float64 { return float64(r.core.decideCalls) }), "count"},
		"core.decide_p50_us":            {p50, "us"},
		"core.decide_p99_us":            {p99, "us"},
		"core.decide_share":             {decideS / runS, "ratio"},
		"core.observe_s":                {med(func(r layerRound) float64 { return r.core.observe.Seconds() }), "s"},
		"core.start_day_s":              {med(func(r layerRound) float64 { return r.core.startDay.Seconds() }), "s"},
		"core.schedule_day_s":           {med(func(r layerRound) float64 { return r.core.scheduleDay.Seconds() }), "s"},
		"tks.decide_s":                  {med(func(r layerRound) float64 { return r.tks.decide.Seconds() }), "s"},
		"tks.decide_calls":              {med(func(r layerRound) float64 { return float64(r.tks.decideCalls) }), "count"},
		"experiments.new_run_s":         {med(func(r layerRound) float64 { return r.newRun.Seconds() }), "s"},
		"runtime.alloc_mb_per_site_day": {median(allocMB), "MiB"},
		"runtime.gc_cycles":             {median(gcs), "count"},
		"trace.overhead_ratio":          {median(tracedWall)/median(plainWall) - 1, "ratio"},
		"host.calib_chunks_per_s":       {median(speeds), "1/s"},
	} {
		m[name] = v
	}
	printShares(g.spec.name, m)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// tracedPass runs one traced grid pass, checks its digests against the
// reference pass and returns its per-layer sums and wall seconds.
func tracedPass(g *grid, ref []cellOut, t *tally, n int) (layerRound, float64) {
	cells, wall := g.pass(true)
	checkPass(t, fmt.Sprintf("traced pass %d", n), ref, cells)
	return collectRound(cells), wall.Seconds()
}

// printShares prints each layer's share of sim.Run time and the Amdahl
// ceiling a layer-only speed-up implies.
func printShares(name string, m map[string]metric) {
	run := m["sim.run_s"].Value
	rows := []struct{ label, key string }{
		{"substrate (cluster, physics, metrics)", "sim.substrate_s"},
		{"core.Decide", "core.decide_s"},
		{"core.Observe", "core.observe_s"},
		{"core.StartDay", "core.start_day_s"},
		{"core.ScheduleDay", "core.schedule_day_s"},
		{"tks.Decide", "tks.decide_s"},
	}
	fmt.Fprintf(os.Stderr, "%s: share of sim.Run time (%.3f s per traced pass, summed over cells)\n", name, run)
	for _, r := range rows {
		share := m[r.key].Value / run
		ceiling := 1 / (1 - share)
		fmt.Fprintf(os.Stderr, "  %-38s %6.1f%%   Amdahl ceiling %.2fx\n", r.label, 100*share, ceiling)
	}
}

// trainReplica re-runs Lab's training campaign for one fidelity from the
// same public calls (two collection campaigns, Newark then Chad, and one
// fit), timing collection and fitting, and reports whether the fitted
// model persists to the same content as the lab's.
func trainReplica(lab *experiments.Lab, fid sim.Fidelity) (collect, fit time.Duration, same bool, err error) {
	tr := lab.Facebook()
	ctx := context.Background()
	start := time.Now()
	envN, err := sim.NewEnv(weather.Newark, fid)
	if err != nil {
		return 0, 0, false, err
	}
	logN, err := envN.CollectTrainingDataContext(ctx, lab.TrainDays, tr, lab.Seed)
	if err != nil {
		return 0, 0, false, err
	}
	envC, err := sim.NewEnv(weather.Chad, fid)
	if err != nil {
		return 0, 0, false, err
	}
	logC, err := envC.CollectTrainingDataContext(ctx, (lab.TrainDays+1)/2, tr, lab.Seed+1)
	if err != nil {
		return 0, 0, false, err
	}
	if err := logN.Append(logC); err != nil {
		return 0, 0, false, err
	}
	collect = time.Since(start)
	start = time.Now()
	m, err := model.Fit(logN, model.LearnerOptions{Seed: lab.Seed})
	if err != nil {
		return 0, 0, false, err
	}
	fit = time.Since(start)

	ref, err := lab.Model(fid)
	if err != nil {
		return 0, 0, false, err
	}
	a, err := persisted(m)
	if err != nil {
		return 0, 0, false, err
	}
	b, err := persisted(ref)
	if err != nil {
		return 0, 0, false, err
	}
	return collect, fit, reflect.DeepEqual(a, b), nil
}

// persisted is what model.Save keeps of m, read back with model.Load.
// Save's bytes themselves are not comparable: gob writes maps in
// iteration order, so two saves of one model differ byte for byte.
func persisted(m *model.Model) (*model.Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return model.Load(&buf)
}

// replayCluster steps a fresh all-active Parasol cluster through days of
// the trace at the physics step, with the per-step calls sim.Run makes
// into the cluster, and returns the median per-day microseconds per
// step.
func replayCluster(tr *workload.Trace, days int) (float64, error) {
	cont := physics.Parasol()
	sizes := make([]int, len(cont.Pods))
	for i, p := range cont.Pods {
		sizes[i] = p.Servers
	}
	c, err := hadoop.NewCluster(sizes)
	if err != nil {
		return 0, err
	}
	c.ActivateAll()
	jobs := append([]workload.Job(nil), tr.Jobs...)
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Arrival < jobs[b].Arrival })
	var power []units.Watts
	var disk []float64
	steps := int(86400 / sim.PhysicsStepSeconds)
	perDay := make([]float64, days)
	for d := range perDay {
		next := 0
		start := time.Now()
		for s := 0; s < steps; s++ {
			now := float64(s) * sim.PhysicsStepSeconds
			for next < len(jobs) && jobs[next].Arrival <= now {
				j := jobs[next]
				j.ID += d * 1_000_000 // distinct ids per replayed day, as sim.Run does
				c.Submit(j)
				next++
			}
			power = c.PodPowerInto(power)
			disk = c.PodDiskUtilInto(disk)
			c.Step(sim.PhysicsStepSeconds)
			c.AccrueEnergy(sim.PhysicsStepSeconds)
		}
		perDay[d] = float64(time.Since(start)) / float64(time.Microsecond) / float64(steps)
	}
	return median(perDay), nil
}
