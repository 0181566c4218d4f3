package core

import (
	"fmt"
	"math"
	"time"

	"coolair/internal/control"
	"coolair/internal/cooling"
	"coolair/internal/hadoop"
	"coolair/internal/model"
	"coolair/internal/trace"
	"coolair/internal/units"
	"coolair/internal/weather"
)

// TemporalPolicy selects how (and whether) deferrable jobs are
// temporally scheduled.
type TemporalPolicy int

const (
	// TemporalNone runs jobs at arrival.
	TemporalNone TemporalPolicy = iota
	// TemporalBandAware is CoolAir's scheduler (§3.3): pack load into
	// hours whose outside forecast falls within the temperature band,
	// skipping days where the band slid or never overlaps the forecast.
	TemporalBandAware
	// TemporalCoolestHours is the prior-work energy scheduler the paper
	// compares against (Energy-DEF): run jobs in the coldest in-deadline
	// hours regardless of variation.
	TemporalCoolestHours
)

// Options assembles one CoolAir variant. Use the Version constructors in
// versions.go for the paper's named configurations.
type Options struct {
	Name    string
	Utility UtilityConfig
	Band    BandConfig
	// FixedBand, if non-nil, replaces forecast-driven band selection
	// (used by the Var-Low/High-Recirc ablations, Figure 11).
	FixedBand *Band
	// HighRecircFirst places load on high-recirculation pods first
	// (CoolAir's placement); false selects low-recirculation pods first
	// (the prior-work, energy-ideal placement).
	HighRecircFirst bool
	Temporal        TemporalPolicy
	// ManageServers lets the Compute Manager sleep surplus servers.
	ManageServers bool
	// PeriodSeconds is the optimizer cadence (default 600 = 10 min).
	PeriodSeconds float64
}

func (o Options) withDefaults() Options {
	if o.PeriodSeconds == 0 {
		o.PeriodSeconds = 600
	}
	if o.Band == (BandConfig{}) {
		o.Band = DefaultBandConfig()
	}
	if o.Name == "" {
		o.Name = "coolair"
	}
	return o
}

// CoolAir is the complete runtime manager. It implements
// control.Controller, control.Monitor, and control.DayPlanner.
type CoolAir struct {
	opts     Options
	model    *model.Model
	forecast weather.Forecaster
	plant    *cooling.Plant
	cluster  *hadoop.Cluster

	band     Band
	haveBand bool
	day      int

	prevSnap, curSnap model.Snapshot
	haveSnaps         int

	activeTarget int
	decisions    int
	degrade      DegradeReport

	// Steady-state scratch for the allocation-free decision loop. Decide
	// and Observe run on a single goroutine per instance (the control
	// loop), so plain struct-held buffers suffice — no sync.Pool. See
	// DESIGN.md, "Scratch buffers and Into APIs" and §11 "Batched
	// candidate evaluation".
	menu       []cooling.Command // cached candidate regimes (plant-dependent, immutable)
	cands      candidateSet      // the menu in SoA form, built once at New
	schedArena []cooling.Command // flat preview arena: candidate i fills [i*H, (i+1)*H)
	skip       []bool            // per-candidate preview-failure mask
	batch      model.BatchScratch
	powers     []units.Watts // per-step predicted cooling power of the current candidate
	powBuf     []float64     // power-model feature scratch
	powMemo    []powerMemoEntry
	curState   model.PredictorState
	snapBuf    [2][]units.Celsius // ping-pong pod-temperature buffers for Observe
	snapFlip   int

	// Flight recorder. rec is nil when tracing is off; drec is the
	// struct-held scratch record — CoolAir itself lives on the heap, so
	// passing &c.drec to the Recorder never escapes a stack value and the
	// record path stays allocation-free (BenchmarkCoolAirDecisionTraced).
	rec  trace.Recorder
	drec trace.DecisionRecord
	// spans is the recorder's SpanRecorder facet, type-asserted once at
	// SetRecorder so the hot path tests a plain nil instead of doing an
	// interface assertion per decision. Nil when the recorder does not
	// collect phase latencies.
	spans trace.SpanRecorder
}

// SetRecorder implements trace.Traceable: subsequent decisions emit
// trace.DecisionRecords to r (nil turns tracing off). If r also
// implements trace.SpanRecorder, decisions additionally report
// per-phase latencies (forecast, band, enumerate, predict, penalty).
func (c *CoolAir) SetRecorder(r trace.Recorder) {
	c.rec = r
	c.spans = nil
	if sr, ok := r.(trace.SpanRecorder); ok {
		c.spans = sr
	}
}

// DegradeReport counts the graceful-degradation paths CoolAir took
// instead of aborting: days planned without a usable forecast, candidate
// regimes skipped because their model prediction failed, and decisions
// where every candidate failed and the current plant state was held.
type DegradeReport struct {
	ForecastFallbackDays int
	SkippedCandidates    int
	HoldDecisions        int
}

// New assembles a CoolAir instance. The plant must be the same object
// the simulator actuates, so regime previews start from the true device
// state; cluster may be nil when CoolAir only manages cooling.
func New(opts Options, m *model.Model, f weather.Forecaster, plant *cooling.Plant, cluster *hadoop.Cluster) (*CoolAir, error) {
	if m == nil || f == nil || plant == nil {
		return nil, fmt.Errorf("core: model, forecast, and plant are required")
	}
	opts = opts.withDefaults()
	c := &CoolAir{opts: opts, model: m, forecast: f, plant: plant, cluster: cluster, day: -1}
	// The candidate menu depends only on the installed plant's
	// granularity, so build it once instead of per decision — both in
	// command form (diagnostics) and in the SoA form the batched
	// evaluator sweeps.
	c.menu = c.candidates()
	n := len(c.menu)
	c.cands = candidateSet{
		modes: make([]cooling.Mode, n),
		fans:  make([]float64, n),
		comps: make([]float64, n),
	}
	for i, cmd := range c.menu {
		c.cands.modes[i] = cmd.Mode
		c.cands.fans[i] = cmd.FanSpeed
		c.cands.comps[i] = cmd.CompressorSpeed
	}
	c.schedArena = make([]cooling.Command, n*model.HorizonSteps)
	c.skip = make([]bool, n)
	c.powers = make([]units.Watts, 0, model.HorizonSteps)
	c.powBuf = make([]float64, 0, 4)
	c.powMemo = make([]powerMemoEntry, 0, n*model.HorizonSteps)
	if cluster != nil {
		order := c.placementOrder()
		if err := cluster.SetPlacementOrder(order); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// placementOrder derives the pod preference from the model's
// recirculation ranking and the version's placement direction.
func (c *CoolAir) placementOrder() []int {
	order := c.model.PodsByRecirc()
	if c.opts.HighRecircFirst {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	return order
}

// Name implements control.Controller.
func (c *CoolAir) Name() string { return c.opts.Name }

// Period implements control.Controller.
func (c *CoolAir) Period() float64 { return c.opts.PeriodSeconds }

// Band returns the currently selected temperature band.
func (c *CoolAir) Band() Band { return c.band }

// StartDay implements control.DayPlanner: select the day's band. When
// the forecast is unavailable (NaN day mean — e.g. the weather service
// is down), the band degrades by layer instead of corrupting the
// optimizer: yesterday's band carries over, or the paper's default band
// when no day has been planned yet (§3.2).
func (c *CoolAir) StartDay(day int) {
	c.day = day
	if c.opts.FixedBand != nil {
		c.band = *c.opts.FixedBand
		c.haveBand = true
		return
	}
	b, ok := c.bandForDay(day)
	if !ok {
		c.degrade.ForecastFallbackDays++
		if !c.haveBand {
			c.band = DefaultBand(c.opts.Band)
			c.haveBand = true
		}
		return
	}
	c.band = b
	c.haveBand = true
}

// bandForDay selects the band from the forecast, reporting failure when
// the forecast is unusable.
func (c *CoolAir) bandForDay(day int) (Band, bool) {
	timing := c.spans != nil
	var mark time.Time
	if timing {
		mark = time.Now()
	}
	mean := float64(c.forecast.DayMeanForecast(day))
	if timing {
		now := time.Now()
		c.spans.RecordSpan(trace.PhaseForecast, now.Sub(mark).Seconds())
		mark = now
	}
	if math.IsNaN(mean) || math.IsInf(mean, 0) {
		return Band{}, false
	}
	b := SelectBand(c.opts.Band, c.forecast, day)
	if timing {
		c.spans.RecordSpan(trace.PhaseBand, time.Since(mark).Seconds())
	}
	return b, true
}

// Degradations returns the degradation paths taken so far.
func (c *CoolAir) Degradations() DegradeReport { return c.degrade }

// Observe implements control.Monitor: maintain the 2-minute snapshot
// pair the learned models' lag features require. The two snapshots
// ping-pong between struct-held pod-temperature buffers: the buffer
// being overwritten is always the one the outgoing prev snapshot used,
// which nothing references once the pair rotates.
func (c *CoolAir) Observe(obs control.Observation) {
	snap := snapshotFromObservationInto(c.snapBuf[c.snapFlip], obs)
	c.snapBuf[c.snapFlip] = snap.PodTemp
	c.snapFlip = 1 - c.snapFlip
	if c.haveSnaps == 0 {
		c.curSnap = snap
		c.haveSnaps = 1
		return
	}
	c.prevSnap = c.curSnap
	c.curSnap = snap
	if c.haveSnaps < 2 {
		c.haveSnaps = 2
	}
}

// snapshotFromObservation converts a sensor observation into the
// Modeler's snapshot form (absolute humidity recovered at the coolest
// pod, where the cold-aisle humidity sensor hangs).
func snapshotFromObservation(obs control.Observation) model.Snapshot {
	return snapshotFromObservationInto(nil, obs)
}

// snapshotFromObservationInto builds the snapshot with the pod
// temperatures copied into buf (reused via buf[:0]; nil allocates).
func snapshotFromObservationInto(buf []units.Celsius, obs control.Observation) model.Snapshot {
	coolest := units.Celsius(25)
	if len(obs.PodInlet) > 0 {
		coolest = obs.PodInlet[0]
		for _, v := range obs.PodInlet[1:] {
			if v < coolest {
				coolest = v
			}
		}
	}
	return model.Snapshot{
		Time:        obs.Time,
		Mode:        obs.Mode,
		FanSpeed:    obs.FanSpeed,
		CompSpeed:   obs.CompressorSpeed,
		OutsideTemp: obs.Outside.Temp,
		OutsideAbs:  obs.Outside.Abs(),
		PodTemp:     append(buf[:0], obs.PodInlet...),
		InsideAbs:   units.AbsFromRel(coolest, obs.InsideRH),
		Utilization: obs.Utilization,
		ITLoad:      obs.ITLoad,
	}
}

// Decide implements control.Controller: run the Compute Manager, then
// the Cooling Optimizer.
func (c *CoolAir) Decide(obs control.Observation) (cooling.Command, error) {
	if c.day < 0 {
		c.StartDay(obs.Day)
	}
	c.decisions++

	if c.cluster != nil && c.opts.ManageServers {
		c.manageServers()
	}

	recording := c.rec != nil
	if recording {
		c.beginDecisionRecord(obs)
	}

	// Before two monitoring snapshots exist the models cannot run;
	// fail safe to the current plant mode.
	if c.haveSnaps < 2 {
		hold := cooling.Command{
			Mode: obs.Mode, FanSpeed: obs.FanSpeed, CompressorSpeed: obs.CompressorSpeed,
		}
		if recording {
			c.emitDecision(-1, true, hold)
		}
		return hold, nil
	}

	model.StateFromSnapshotsInto(&c.curState, c.prevSnap, c.curSnap)
	state := c.curState
	const horizon = model.HorizonSteps // 5 × 2 min = the 10-minute optimizer period

	// Phase spans: one observation per phase per decision. time.Now
	// performs no allocation, so the traced hot path stays at 0
	// allocs/op with spans enabled.
	timing := c.spans != nil
	var mark time.Time

	// Sweep 1 — enumerate: preview every candidate's effective schedule
	// into the SoA arena. A candidate whose preview fails is masked out,
	// not fatal: losing one regime from the menu degrades the decision,
	// aborting it would stall the control loop.
	if timing {
		mark = time.Now()
	}
	n := len(c.cands.modes)
	for i := 0; i < n; i++ {
		dst := c.schedArena[i*horizon : i*horizon : (i+1)*horizon]
		_, err := c.plant.PreviewScheduleInto(dst, c.candidate(i), model.ModelStepSeconds, horizon)
		c.skip[i] = err != nil
	}
	if timing {
		c.spans.RecordSpan(trace.PhaseEnumerate, time.Since(mark).Seconds())
	}

	// Sweep 2 — predict: one batched pass over every surviving
	// candidate's rollout chain. A whole-batch error is the condition
	// every serial prediction would have failed with, so it degrades
	// every candidate rather than aborting the decision.
	if timing {
		mark = time.Now()
	}
	allFailed := c.model.PredictWindowBatch(&c.batch, state, c.schedArena, horizon, c.skip) != nil
	if timing {
		c.spans.RecordSpan(trace.PhasePredict, time.Since(mark).Seconds())
	}

	// Sweep 3 — score: fused power prediction + penalty accumulation,
	// serial and in menu order so the power memo and the winner rule
	// stay deterministic for any worker count. Per-candidate float
	// accumulation order is exactly the old serial loop's, bit for bit.
	var best cooling.Command
	scored := 0
	bestPen := math.Inf(1)
	bestPow := math.Inf(1)
	winner := int32(-1)
	var scoreMark, penMark time.Time
	var penSec float64
	if timing {
		scoreMark = time.Now()
	}
	c.powMemo = c.powMemo[:0]
	for i := 0; i < n; i++ {
		cmd := c.candidate(i)
		// When recording, reserve the candidate's slot up front so skipped
		// candidates appear in the trace too (with Skipped set).
		var crec *trace.CandidateRecord
		if recording && int(c.drec.NumCandidates) < trace.MaxCandidates {
			crec = &c.drec.Candidates[c.drec.NumCandidates]
			c.drec.NumCandidates++
			*crec = trace.CandidateRecord{
				Mode:      int32(cmd.Mode),
				FanSpeed:  cmd.FanSpeed,
				CompSpeed: cmd.CompressorSpeed,
			}
		}
		if c.skip[i] || allFailed || c.batch.Failed(i) {
			c.degrade.SkippedCandidates++
			if crec != nil {
				crec.Skipped = true
			}
			continue
		}
		sched := c.schedArena[i*horizon : (i+1)*horizon]
		rollout := c.batch.Rollout(i)
		// Predict each step's cooling power once: the utility's energy
		// term and the tie-break below share the same values, and the
		// memo dedupes the many identical post-ramp schedule steps
		// across candidates.
		c.powers = c.powers[:0]
		pow := 0.0
		for _, s := range sched {
			w := c.predictPowerMemo(s)
			c.powers = append(c.powers, w)
			pow += float64(w)
		}
		// The Detail variant mirrors every term into the record without
		// reordering the score's accumulation, so pen is bit-identical to
		// the untraced call (the golden-digest equivalence test).
		if timing {
			penMark = time.Now()
		}
		var pen float64
		if crec != nil {
			pen = c.opts.Utility.PenaltyWithPowersDetail(c.band, state, rollout, sched, obs.PodActive, c.powers, &crec.Terms)
		} else {
			pen = c.opts.Utility.PenaltyWithPowers(c.band, state, rollout, sched, obs.PodActive, c.powers)
		}
		if timing {
			penSec += time.Since(penMark).Seconds()
		}
		if math.IsNaN(pen) {
			c.degrade.SkippedCandidates++
			if crec != nil {
				*crec = trace.CandidateRecord{
					Mode:      int32(cmd.Mode),
					FanSpeed:  cmd.FanSpeed,
					CompSpeed: cmd.CompressorSpeed,
					Skipped:   true,
				}
			}
			continue
		}
		if crec != nil {
			crec.Penalty = pen
			last := rollout[len(rollout)-1]
			np := len(last.PodTemp)
			if np > trace.MaxPods {
				np = trace.MaxPods
			}
			crec.NumPods = int32(np)
			for p := 0; p < np; p++ {
				crec.PodTemp[p] = float64(last.PodTemp[p])
			}
			crec.RH = float64(last.RelHumidity())
			crec.PowerW = pow / float64(len(sched))
		}
		scored++
		// Pick the lowest penalty; break ties toward lower energy.
		if pen < bestPen-1e-9 || (math.Abs(pen-bestPen) <= 1e-9 && pow < bestPow) {
			best, bestPen, bestPow = cmd, pen, pow
			if crec != nil {
				winner = c.drec.NumCandidates - 1
			}
		}
	}
	if timing {
		c.spans.RecordSpan(trace.PhasePenalty, penSec)
		c.spans.RecordSpan(trace.PhaseScore, time.Since(scoreMark).Seconds())
	}
	if scored == 0 {
		// Every candidate failed: hold the current plant state rather
		// than abort — the same stance as the pre-warm-up path.
		c.degrade.HoldDecisions++
		hold := cooling.Command{
			Mode: obs.Mode, FanSpeed: obs.FanSpeed, CompressorSpeed: obs.CompressorSpeed,
		}
		if recording {
			c.emitDecision(-1, true, hold)
		}
		return hold, nil
	}
	if recording {
		c.emitDecision(winner, false, best)
	}
	return best, nil
}

// beginDecisionRecord resets the struct-held record scratch and fills
// the parts known before scoring. Allocation-free: the record is a value
// field on the heap-resident CoolAir.
func (c *CoolAir) beginDecisionRecord(obs control.Observation) {
	c.drec = trace.DecisionRecord{
		Time:          obs.Time,
		Day:           int32(obs.Day),
		Source:        trace.SourceController,
		PeriodSeconds: c.opts.PeriodSeconds,
		Winner:        -1,
	}
	if c.haveBand {
		c.drec.BandLo = float64(c.band.Lo)
		c.drec.BandHi = float64(c.band.Hi)
	}
	if hot, ok := obs.MaxPodInlet(); ok {
		c.drec.ActualHottest = float64(hot)
	} else {
		c.drec.ActualHottest = math.NaN()
	}
}

// emitDecision completes the scratch record with the outcome and hands
// it to the recorder (which copies it before returning).
func (c *CoolAir) emitDecision(winner int32, hold bool, cmd cooling.Command) {
	c.drec.Winner = winner
	c.drec.Hold = hold
	c.drec.Mode = int32(cmd.Mode)
	c.drec.FanSpeed = cmd.FanSpeed
	c.drec.CompSpeed = cmd.CompressorSpeed
	c.rec.RecordDecision(&c.drec)
}

// candidateSet is the candidate menu in struct-of-arrays form: modes,
// fan speeds, and compressor speeds in parallel arrays, indexed by
// candidate. The batched decision sweeps address candidates by index
// against this set and the parallel schedule arena / skip mask.
type candidateSet struct {
	modes []cooling.Mode
	fans  []float64
	comps []float64
}

// candidate reassembles candidate i's command from the SoA menu.
func (c *CoolAir) candidate(i int) cooling.Command {
	return cooling.Command{
		Mode:            c.cands.modes[i],
		FanSpeed:        c.cands.fans[i],
		CompressorSpeed: c.cands.comps[i],
	}
}

// powerMemoEntry memoizes one power-model evaluation within a decision.
// The key compares the command's float speeds by bit pattern
// (math.Float64bits) — exact, NaN-safe, and free of float equality.
type powerMemoEntry struct {
	mode      cooling.Mode
	fan, comp uint64
	w         units.Watts
}

// predictPowerMemo returns the predicted cooling power for cmd, reusing
// any evaluation already made this decision. Schedules converge to
// their ramp targets after a step or two, so the ~70 per-step lookups
// of a decision collapse to a handful of distinct model evaluations;
// the linear scan over a few dozen 32-byte entries is cheaper than
// hashing. The memo is reset at the start of every scoring sweep.
func (c *CoolAir) predictPowerMemo(cmd cooling.Command) units.Watts {
	f := math.Float64bits(cmd.FanSpeed)
	p := math.Float64bits(cmd.CompressorSpeed)
	for i := range c.powMemo {
		e := &c.powMemo[i]
		if e.mode == cmd.Mode && e.fan == f && e.comp == p {
			return e.w
		}
	}
	w := c.model.PredictPowerBuf(c.powBuf, cmd)
	c.powMemo = append(c.powMemo, powerMemoEntry{mode: cmd.Mode, fan: f, comp: p, w: w})
	return w
}

// candidates enumerates the regimes the optimizer scores, matching the
// installed plant's granularity. New computes it once and caches it on
// c.menu — the menu depends only on the plant's device capabilities,
// which never change after construction.
func (c *CoolAir) candidates() []cooling.Command {
	out := []cooling.Command{
		{Mode: cooling.ModeClosed},
		{Mode: cooling.ModeACFan},
	}
	var fanSpeeds []float64
	if c.plant.FC.MinSpeed <= 0.05 {
		fanSpeeds = []float64{0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1}
	} else {
		fanSpeeds = []float64{0.15, 0.25, 0.4, 0.6, 0.8, 1}
	}
	for _, s := range fanSpeeds {
		out = append(out, cooling.Command{Mode: cooling.ModeFreeCooling, FanSpeed: s})
	}
	if c.plant.AC.VariableSpeed {
		for _, s := range []float64{0.25, 0.5, 0.75, 1} {
			out = append(out, cooling.Command{Mode: cooling.ModeACCool, CompressorSpeed: s})
		}
	} else {
		out = append(out, cooling.Command{Mode: cooling.ModeACCool, CompressorSpeed: 1})
	}
	return out
}

// manageServers sizes the active set to the current slot demand plus
// headroom, never below the Covering Subset. Growth is immediate
// (queued work must not wait), but shrinking is rate-limited so a lull
// between job waves doesn't sleep half the cluster only to wake it ten
// minutes later — which would both burn disk power cycles and whipsaw
// the thermal load the Cooling Model has to predict.
func (c *CoolAir) manageServers() {
	demand := c.cluster.SlotDemand()
	servers := (demand + hadoop.SlotsPerServer - 1) / hadoop.SlotsPerServer
	want := servers + 3 // headroom for arrivals within the period
	if want > len(c.cluster.Servers) {
		want = len(c.cluster.Servers)
	}
	const shrinkPerPeriod = 2
	switch {
	case c.activeTarget == 0, want >= c.activeTarget:
		c.activeTarget = want
	case want < c.activeTarget-shrinkPerPeriod:
		c.activeTarget -= shrinkPerPeriod
	default:
		c.activeTarget = want
	}
	// SetActiveTarget enforces the covering-subset floor itself.
	_ = c.cluster.SetActiveTarget(c.activeTarget)
}

// Decisions returns how many times the optimizer ran (diagnostics).
func (c *CoolAir) Decisions() int { return c.decisions }
