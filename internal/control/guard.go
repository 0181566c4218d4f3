package control

import (
	"log/slog"
	"math"
	"slices"
	"time"

	"coolair/internal/cooling"
	"coolair/internal/trace"
	"coolair/internal/units"
	"coolair/internal/workload"
)

// GuardConfig tunes the sanitation and degradation thresholds of a
// Guard. The zero value picks the defaults below.
type GuardConfig struct {
	// MinValid / MaxValid bound plausible inlet and outside readings
	// (defaults −40°C and 60°C); anything outside is rejected.
	MinValid, MaxValid units.Celsius
	// MaxRatePerMinute is the fastest physically plausible change of one
	// sensor (default 3°C/min); faster jumps are rejected as glitches.
	MaxRatePerMinute float64
	// QuorumBand is the widest deviation from the median of the pod
	// sensors a reading may show (default 15°C) once at least three
	// sensors report finite values.
	QuorumBand units.Celsius
	// FlatlineSeconds is how long a bit-identical reading is tolerated
	// before the sensor is declared stuck (default 1800 s). Real inlet
	// temperatures never hold a float64 exactly constant.
	FlatlineSeconds float64
	// StalenessSeconds is the budget during which a rejected sensor is
	// served from its last-known-good value (default 1800 s); past it
	// the sensor counts as dead and the guard degrades.
	StalenessSeconds float64
	// MaxConsecFailures is K: after this many consecutive Decide
	// failures (errors or invalid commands, each already retried once)
	// the guard switches to the fail-safe policy (default 3).
	MaxConsecFailures int
	// FailSafeSetpoint / FailSafeCycleLow parameterize the fail-safe
	// regime: TKS-style hottest-sensor thresholding with the compressor
	// starting above the setpoint and stopping below setpoint−cycle-low
	// (defaults 28°C and 2°C).
	FailSafeSetpoint units.Celsius
	FailSafeCycleLow units.Celsius
}

// WithDefaults returns the config with zero fields replaced by the
// documented defaults (exported so tests and callers can compute timing
// expectations from the effective values).
func (c GuardConfig) WithDefaults() GuardConfig {
	if c.MinValid == 0 && c.MaxValid == 0 {
		c.MinValid, c.MaxValid = -40, 60
	}
	if c.MaxRatePerMinute == 0 {
		c.MaxRatePerMinute = 3
	}
	if c.QuorumBand == 0 {
		c.QuorumBand = 15
	}
	if c.FlatlineSeconds == 0 {
		c.FlatlineSeconds = 1800
	}
	if c.StalenessSeconds == 0 {
		c.StalenessSeconds = 1800
	}
	if c.MaxConsecFailures == 0 {
		c.MaxConsecFailures = 3
	}
	if c.FailSafeSetpoint == 0 {
		c.FailSafeSetpoint = 28
	}
	if c.FailSafeCycleLow == 0 {
		c.FailSafeCycleLow = 2
	}
	return c
}

// GuardReport counts every intervention the guard made over a run. It
// is a comparable value (all fields are scalars), so two reports from
// identical runs compare equal with ==.
type GuardReport struct {
	// Observations sanitized (Observe and Decide share the cache, so
	// an observation seen by both counts once).
	Observations int
	// Sensor rejections by cause.
	NaNRejects      int
	RangeRejects    int
	RateRejects     int
	QuorumRejects   int
	FlatlineRejects int
	// Substitutions of last-known-good values within the staleness
	// budget, and sensor-observations served while dead (budget blown).
	Substitutions int
	DeadSensorObs int
	// Decide-path interventions.
	DecideErrors    int
	DecideRetries   int
	InvalidCommands int
	HoldFallbacks   int
	// Fail-safe accounting: engagement transitions, decisions served by
	// the fail-safe policy, and the first time it engaged (−1 if never).
	FailSafeEngagements int
	FailSafeDecisions   int
	FirstFailSafeTime   float64
}

// Guard wraps any Controller with a sanitation and graceful-degradation
// layer: observations are range/rate/quorum-checked with last-known-good
// substitution before the inner controller sees them, returned commands
// are validated (with one retry, then a hold of the previous command),
// and when sensors go irrecoverably stale or the inner controller keeps
// failing, the guard degrades to a dependable fail-safe regime — the
// role the commercial TKS controller plays for Parasol (paper §4).
//
// Guard implements Controller, Monitor, DayPlanner, and
// TemporalScheduler, forwarding each to the inner controller when it
// implements the corresponding interface.
type Guard struct {
	inner Controller
	cfg   GuardConfig

	// st is the guard's dynamic state — sensor health, fail-safe
	// posture, the last good command, and the intervention report — in
	// the exported form StateSnapshot hands out and RestoreState takes.
	st GuardState

	// cache of the last sanitized observation, keyed by its timestamp
	// (Observe and Decide both see each control-period snapshot).
	cachedTime float64
	cached     sanitized
	haveCache  bool

	// Flight recorder: interventions are annotated as SourceGuard
	// records. drec is struct-held scratch so emitting stays
	// allocation-free (the Guard itself lives on the heap).
	rec  trace.Recorder
	drec trace.DecisionRecord
	// spans, when non-nil, receives the guard's own overhead per decision
	// (total Decide wall time minus time inside the inner controller) as
	// the PhaseGuard span. innerSec is per-decision scratch for that
	// subtraction.
	spans    trace.SpanRecorder
	innerSec float64

	// log, when non-nil, receives structured warnings for interventions:
	// retries, holds, and fail-safe engage/exit.
	log *slog.Logger
}

// SetRecorder implements trace.Traceable: the guard annotates its
// interventions to r and forwards the recorder to the inner controller
// when that is traceable, so one call wires the whole controller stack.
// A recorder that also implements trace.SpanRecorder additionally
// receives the guard-overhead phase span per decision.
func (g *Guard) SetRecorder(r trace.Recorder) {
	g.rec = r
	g.spans = nil
	if sr, ok := r.(trace.SpanRecorder); ok {
		g.spans = sr
	}
	if t, ok := g.inner.(trace.Traceable); ok {
		t.SetRecorder(r)
	}
}

// SetLogger attaches a structured logger for intervention warnings (nil
// disables logging). Logging happens only on the rare intervention
// paths, never per healthy decision.
func (g *Guard) SetLogger(l *slog.Logger) { g.log = l }

// sanitized is the outcome of sanitizing one observation.
type sanitized struct {
	obs Observation
	// alive flags pods whose reading this period is trustworthy (fresh
	// or within the staleness budget).
	alive []bool
	// anyDead reports that at least one pod sensor has blown its
	// staleness budget — the degradation trigger.
	anyDead bool
}

// NewGuard wraps inner with the guard layer.
func NewGuard(inner Controller, cfg GuardConfig) *Guard {
	return &Guard{inner: inner, cfg: cfg.WithDefaults()}
}

// Name implements Controller.
func (g *Guard) Name() string { return "guarded(" + g.inner.Name() + ")" }

// Period implements Controller.
func (g *Guard) Period() float64 { return g.inner.Period() }

// Inner returns the wrapped controller.
func (g *Guard) Inner() Controller { return g.inner }

// Report returns the interventions counted so far.
func (g *Guard) Report() GuardReport {
	r := g.st.Report
	if r.FailSafeEngagements == 0 {
		r.FirstFailSafeTime = -1
	}
	return r
}

// FailSafeActive reports whether the guard is currently serving
// decisions from the fail-safe policy.
func (g *Guard) FailSafeActive() bool { return g.st.FailSafeOn }

// Observe implements Monitor: sanitize the snapshot (keeping the
// guard's sensor state fresh between decisions) and forward it when the
// inner controller monitors.
func (g *Guard) Observe(obs Observation) {
	s := g.sanitize(obs)
	if m, ok := g.inner.(Monitor); ok {
		m.Observe(s.obs)
	}
}

// StartDay implements DayPlanner, forwarding when the inner controller
// plans days.
func (g *Guard) StartDay(day int) {
	if p, ok := g.inner.(DayPlanner); ok {
		p.StartDay(day)
	}
}

// ScheduleDay implements TemporalScheduler. A non-scheduling inner
// controller gets the default schedule: every job at its arrival.
func (g *Guard) ScheduleDay(day int, jobs []workload.Job) []float64 {
	if s, ok := g.inner.(TemporalScheduler); ok {
		return s.ScheduleDay(day, jobs)
	}
	release := make([]float64, len(jobs))
	for i, j := range jobs {
		release[i] = j.Arrival
	}
	return release
}

// Decide implements Controller. The inner controller only sees
// sanitized observations; its commands only reach the caller after
// validation; and when the sensing layer or the controller itself is
// beyond salvage, the fail-safe regime takes over.
func (g *Guard) Decide(obs Observation) (cooling.Command, error) {
	if g.spans == nil {
		return g.decide(obs)
	}
	// PhaseGuard is the guard's own overhead: total Decide wall time
	// minus the time spent inside the inner controller (which reports
	// its phases itself). tryInner accumulates the inner time.
	start := time.Now()
	g.innerSec = 0
	cmd, err := g.decide(obs)
	if over := time.Since(start).Seconds() - g.innerSec; over >= 0 {
		g.spans.RecordSpan(trace.PhaseGuard, over)
	}
	return cmd, err
}

func (g *Guard) decide(obs Observation) (cooling.Command, error) {
	s := g.sanitize(obs)

	if s.anyDead {
		cmd := g.decideFailSafe(s)
		g.emitGuard(trace.GuardFailSafeSensor, s.obs, cmd)
		return cmd, nil
	}

	cmd, ok := g.tryInner(s.obs)
	retried := false
	if !ok {
		// One retry: transient state inside the controller (a model
		// hiccup, a scheduling edge) may clear on a second attempt.
		g.st.Report.DecideRetries++
		if g.log != nil {
			g.log.Warn("guard: retrying inner decision", "time", s.obs.Time)
		}
		cmd, ok = g.tryInner(s.obs)
		retried = true
	}
	if !ok {
		g.st.ConsecFails++
		if g.st.ConsecFails >= g.cfg.MaxConsecFailures {
			fs := g.decideFailSafe(s)
			g.emitGuard(trace.GuardFailSafeControl, s.obs, fs)
			return fs, nil
		}
		// Below K failures: hold the last good command (or stay closed
		// if there has never been one).
		g.st.Report.HoldFallbacks++
		held := cooling.Command{Mode: cooling.ModeClosed}
		if g.st.HaveLast {
			held = g.st.LastCmd
		}
		g.emitGuard(trace.GuardHold, s.obs, held)
		return held, nil
	}

	g.st.ConsecFails = 0
	g.exitFailSafe()
	g.st.LastCmd = cmd
	g.st.HaveLast = true
	if retried {
		g.emitGuard(trace.GuardRetry, s.obs, cmd)
	}
	return cmd, nil
}

// emitGuard annotates one guard intervention as a SourceGuard decision
// record (no candidates; the served command and the observed hottest
// inlet only). No-op when tracing is off.
func (g *Guard) emitGuard(action trace.GuardAction, obs Observation, cmd cooling.Command) {
	if g.rec == nil {
		return
	}
	g.drec = trace.DecisionRecord{
		Time:          obs.Time,
		Day:           int32(obs.Day),
		Source:        trace.SourceGuard,
		Guard:         action,
		PeriodSeconds: g.Period(),
		Winner:        -1,
		Mode:          int32(cmd.Mode),
		FanSpeed:      cmd.FanSpeed,
		CompSpeed:     cmd.CompressorSpeed,
	}
	if hot, ok := obs.MaxPodInlet(); ok {
		g.drec.ActualHottest = float64(hot)
	} else {
		g.drec.ActualHottest = math.NaN()
	}
	g.rec.RecordDecision(&g.drec)
}

// tryInner runs one inner Decide and validates the result.
func (g *Guard) tryInner(obs Observation) (cooling.Command, bool) {
	var mark time.Time
	timing := g.spans != nil
	if timing {
		mark = time.Now() //coolair:allow-wallclock span timing: innerSec feeds Decide's overhead span, never a decision
	}
	cmd, err := g.inner.Decide(obs)
	if timing {
		g.innerSec += time.Since(mark).Seconds() //coolair:allow-wallclock span timing: innerSec feeds Decide's overhead span, never a decision
	}
	if err != nil {
		g.st.Report.DecideErrors++
		if g.log != nil {
			g.log.Warn("guard: inner controller error", "time", obs.Time, "err", err)
		}
		return cooling.Command{}, false
	}
	if cmd.Validate() != nil {
		g.st.Report.InvalidCommands++
		if g.log != nil {
			g.log.Warn("guard: inner controller returned invalid command", "time", obs.Time)
		}
		return cooling.Command{}, false
	}
	return cmd, true
}

// decideFailSafe serves one decision from the fail-safe policy:
// TKS-style hottest-sensor compressor cycling on the surviving sensors,
// AC on flat-out when no sensor survives.
func (g *Guard) decideFailSafe(s sanitized) cooling.Command {
	if !g.st.FailSafeOn {
		g.st.FailSafeOn = true
		g.st.FailSafeCompressor = false
		g.st.Report.FailSafeEngagements++
		if g.st.Report.FailSafeEngagements == 1 {
			g.st.Report.FirstFailSafeTime = s.obs.Time
		}
		if g.log != nil {
			g.log.Warn("guard: fail-safe engaged", "time", s.obs.Time,
				"dead_sensors", s.anyDead, "consec_fails", g.st.ConsecFails)
		}
	}
	g.st.Report.FailSafeDecisions++

	hottest := math.Inf(-1)
	survivors := 0
	for i, ok := range s.alive {
		if !ok {
			continue
		}
		survivors++
		if v := float64(s.obs.PodInlet[i]); v > hottest {
			hottest = v
		}
	}
	if survivors == 0 {
		// Flying blind: the only dependable action is full AC.
		return cooling.Command{Mode: cooling.ModeACCool, CompressorSpeed: 1}
	}
	sp := float64(g.cfg.FailSafeSetpoint)
	if hottest > sp {
		g.st.FailSafeCompressor = true
	} else if hottest < sp-float64(g.cfg.FailSafeCycleLow) {
		g.st.FailSafeCompressor = false
	}
	if g.st.FailSafeCompressor {
		return cooling.Command{Mode: cooling.ModeACCool, CompressorSpeed: 1}
	}
	return cooling.Command{Mode: cooling.ModeACFan}
}

// exitFailSafe returns control to the inner controller once the
// degradation cause has cleared (sensors alive again, Decide healthy).
func (g *Guard) exitFailSafe() {
	if g.st.FailSafeOn {
		g.st.FailSafeOn = false
		g.st.FailSafeCompressor = false
		if g.log != nil {
			g.log.Warn("guard: fail-safe exited, inner controller healthy again")
		}
	}
}

// sanitize checks every sensor channel of the observation and returns
// the cleaned copy plus per-pod liveness. Results are cached by
// timestamp so Observe and a coincident Decide agree (and rate checks
// never see a zero dt).
func (g *Guard) sanitize(obs Observation) sanitized {
	// Observe and a coincident Decide pass the literal same timestamp;
	// exact equality is the cache key, not a tolerance check.
	if g.haveCache && obs.Time == g.cachedTime { //coolair:allow-floateq same-tick cache key

		return g.cached
	}
	g.st.Report.Observations++

	if len(g.st.Sensors) != len(obs.PodInlet) {
		g.st.Sensors = make([]SensorGuardState, len(obs.PodInlet))
	}
	out := obs
	out.PodInlet = append([]units.Celsius(nil), obs.PodInlet...)
	s := sanitized{obs: out, alive: make([]bool, len(obs.PodInlet))}

	med, nFinite := medianFinite(obs.PodInlet)
	for i := range obs.PodInlet {
		v := float64(obs.PodInlet[i])
		sg := &g.st.Sensors[i]
		good := g.acceptReading(sg, v, obs.Time, med, nFinite)
		if good {
			sg.LastGood = v
			sg.LastGoodTime = obs.Time
			sg.HasGood = true
			s.alive[i] = true
			continue
		}
		if sg.HasGood && obs.Time-sg.LastGoodTime <= g.cfg.StalenessSeconds {
			out.PodInlet[i] = units.Celsius(sg.LastGood)
			g.st.Report.Substitutions++
			s.alive[i] = true
			continue
		}
		// Budget blown: the sensor is dead. Feed the inner controller
		// the pod median (or the last good value as a final resort) so
		// it keeps receiving finite numbers, but flag the degradation.
		g.st.Report.DeadSensorObs++
		s.anyDead = true
		switch {
		case nFinite > 0:
			out.PodInlet[i] = units.Celsius(med)
		case sg.HasGood:
			out.PodInlet[i] = units.Celsius(sg.LastGood)
		default:
			out.PodInlet[i] = g.cfg.FailSafeSetpoint
		}
	}

	// SetTemp/SetRH (not direct field writes) drop the humidity-ratio
	// memo carried by the sample, so Abs() downstream of the guard
	// reflects the sanitized values rather than the raw reading.
	out.Outside.SetTemp(units.Celsius(g.sanitizeScalar(&g.st.Outside,
		float64(obs.Outside.Temp), float64(g.cfg.MinValid)-20, float64(g.cfg.MaxValid), 15)))
	out.Outside.SetRH(units.RelHumidity(g.sanitizeScalar(&g.st.OutsideRH,
		float64(obs.Outside.RH), 0, 100, 50)))
	out.InsideRH = units.RelHumidity(g.sanitizeScalar(&g.st.InsideRH,
		float64(obs.InsideRH), 0, 100, 50))

	s.obs = out
	g.cached = s
	g.cachedTime = obs.Time
	g.haveCache = true
	return s
}

// acceptReading applies the NaN, range, rate, quorum, and flatline
// checks to one pod reading.
func (g *Guard) acceptReading(sg *SensorGuardState, v, t, med float64, nFinite int) bool {
	defer func() {
		// Flatline bookkeeping runs on every reading, accepted or not:
		// a changed value re-arms the detector.
		if !sg.HasRaw || v != sg.LastRaw { //coolair:allow-floateq flatline = bit-identical reading

			sg.FlatSince = t
		}
		sg.LastRaw = v
		sg.HasRaw = true
	}()

	if math.IsNaN(v) || math.IsInf(v, 0) {
		g.st.Report.NaNRejects++
		return false
	}
	if v < float64(g.cfg.MinValid) || v > float64(g.cfg.MaxValid) {
		g.st.Report.RangeRejects++
		return false
	}
	if sg.HasGood && t > sg.LastGoodTime {
		rate := math.Abs(v-sg.LastGood) / (t - sg.LastGoodTime) * 60
		if rate > g.cfg.MaxRatePerMinute {
			g.st.Report.RateRejects++
			return false
		}
	}
	if nFinite >= 3 && math.Abs(v-med) > float64(g.cfg.QuorumBand) {
		g.st.Report.QuorumRejects++
		return false
	}
	if sg.HasRaw && v == sg.LastRaw && t-sg.FlatSince >= g.cfg.FlatlineSeconds { //coolair:allow-floateq flatline = bit-identical reading

		g.st.Report.FlatlineRejects++
		return false
	}
	return true
}

// sanitizeScalar cleans one scalar channel: NaN/Inf and out-of-range
// readings fall back to the last good value, or to fallback before any
// good reading exists.
func (g *Guard) sanitizeScalar(sg *ScalarGuardState, v, lo, hi, fallback float64) float64 {
	if !math.IsNaN(v) && !math.IsInf(v, 0) && v >= lo && v <= hi {
		sg.LastGood = v
		sg.HasGood = true
		return v
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		g.st.Report.NaNRejects++
	} else {
		g.st.Report.RangeRejects++
	}
	if sg.HasGood {
		g.st.Report.Substitutions++
		return sg.LastGood
	}
	return fallback
}

// medianFinite returns the median of the finite readings and how many
// there were.
func medianFinite(v []units.Celsius) (float64, int) {
	fin := make([]float64, 0, len(v))
	for _, x := range v {
		f := float64(x)
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			fin = append(fin, f)
		}
	}
	if len(fin) == 0 {
		return 0, 0
	}
	// Insertion sort: pod counts are tiny.
	for i := 1; i < len(fin); i++ {
		for j := i; j > 0 && fin[j] < fin[j-1]; j-- {
			fin[j], fin[j-1] = fin[j-1], fin[j]
		}
	}
	n := len(fin)
	if n%2 == 1 {
		return fin[n/2], n
	}
	return (fin[n/2-1] + fin[n/2]) / 2, n
}

// SensorGuardState is one pod sensor's sanitation state: its last
// accepted reading and when it was taken, and the last raw reading with
// the time it started repeating (the flatline detector).
type SensorGuardState struct {
	LastGood     float64
	LastGoodTime float64
	HasGood      bool
	LastRaw      float64
	HasRaw       bool
	FlatSince    float64
}

// ScalarGuardState is one scalar channel's sanitation state: range and
// NaN checks with last-known-good substitution (no quorum available).
type ScalarGuardState struct {
	LastGood float64
	HasGood  bool
}

// GuardState is the Guard's dynamic state, the same value the guard
// runs on: exported and gob-encodable so a run-state checkpoint
// restores sensor health, fail-safe posture, and the intervention
// report across a daemon restart (internal/store). Its gob field names
// are the run-state file format. The per-tick sanitized-observation
// cache is deliberately not part of it — it is recomputed on the next
// decision. FailSafeCompressor is the fail-safe policy's compressor
// cycle (on/off hysteresis).
type GuardState struct {
	Sensors            []SensorGuardState
	Outside            ScalarGuardState
	OutsideRH          ScalarGuardState
	InsideRH           ScalarGuardState
	ConsecFails        int
	FailSafeOn         bool
	FailSafeCompressor bool
	LastCmd            cooling.Command
	HaveLast           bool
	Report             GuardReport
}

// StateSnapshot captures the guard's dynamic state for checkpointing.
func (g *Guard) StateSnapshot() GuardState {
	s := g.st
	s.Sensors = slices.Clone(g.st.Sensors)
	return s
}

// RestoreState reinstates a snapshot taken by StateSnapshot. The
// sanitized-observation cache is dropped so the next Observe/Decide
// sanitizes afresh against the restored sensor history.
func (g *Guard) RestoreState(s GuardState) {
	g.st = s
	g.st.Sensors = slices.Clone(s.Sensors)
	g.haveCache = false
	g.cached = sanitized{}
	g.cachedTime = 0
}
