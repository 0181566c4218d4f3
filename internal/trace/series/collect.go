package series

import (
	"sync"

	"coolair/internal/trace"
)

// Standard metric names the Collector feeds. Dashboards and alert
// rules refer to these; anything else registered on the DB is also
// queryable, the Collector just doesn't populate it.
const (
	MetricInletMax    = "inlet_max_celsius"
	MetricInletMin    = "inlet_min_celsius"
	MetricOutside     = "outside_celsius"
	MetricOutsideRH   = "outside_rh_percent"
	MetricInsideRH    = "inside_rh_percent"
	MetricCoolingW    = "cooling_watts"
	MetricITW         = "it_watts"
	MetricUtilization = "utilization"
	MetricPredErr     = "prediction_abs_error_celsius"
	MetricWinnerPen   = "winner_penalty"
	MetricGuard       = "guard_interventions"
	MetricDecisionSec = "decision_seconds"
)

// StandardMetrics lists every metric the Collector feeds, in the order
// it registers them.
func StandardMetrics() []string {
	return []string{
		MetricInletMax, MetricInletMin, MetricOutside, MetricOutsideRH,
		MetricInsideRH, MetricCoolingW, MetricITW, MetricUtilization,
		MetricPredErr, MetricWinnerPen, MetricGuard, MetricDecisionSec,
	}
}

// Collector is a trace.Recorder/SpanRecorder that tees every record
// into a wrapped recorder (the site's ring) and folds the interesting
// scalars into a DB as time series — the seam that feeds the TSDB from
// the tick path without the trace package importing series. Optionally
// it drives an alert Engine at the tick cadence. All methods are
// allocation-free.
type Collector struct {
	next trace.Recorder
	span trace.SpanRecorder // next, when it also records spans
	db   *DB

	idInletMax, idInletMin, idOutside, idOutsideRH ID
	idInsideRH, idCoolingW, idITW, idUtil          ID
	idPredErr, idWinnerPen, idGuard, idDecisionSec ID

	mu     sync.Mutex
	pairer trace.PredictionPairer // feeds prediction_abs_error_celsius
	// spanAccum sums RecordSpan seconds since the last decision; flushed
	// into decision_seconds at each decision's sim time.
	spanAccum float64

	engine *Engine
}

// NewCollector wraps next (usually the site's *trace.Ring), registering
// the standard metrics on db. engine may be nil.
func NewCollector(next trace.Recorder, db *DB, engine *Engine) *Collector {
	c := &Collector{next: next, db: db, engine: engine}
	if sr, ok := next.(trace.SpanRecorder); ok {
		c.span = sr
	}
	c.idInletMax = db.Register(MetricInletMax)
	c.idInletMin = db.Register(MetricInletMin)
	c.idOutside = db.Register(MetricOutside)
	c.idOutsideRH = db.Register(MetricOutsideRH)
	c.idInsideRH = db.Register(MetricInsideRH)
	c.idCoolingW = db.Register(MetricCoolingW)
	c.idITW = db.Register(MetricITW)
	c.idUtil = db.Register(MetricUtilization)
	c.idPredErr = db.Register(MetricPredErr)
	c.idWinnerPen = db.Register(MetricWinnerPen)
	c.idGuard = db.Register(MetricGuard)
	c.idDecisionSec = db.Register(MetricDecisionSec)
	return c
}

// DB returns the store the collector feeds.
func (c *Collector) DB() *DB { return c.db }

// Engine returns the alert engine the collector drives (may be nil).
func (c *Collector) Engine() *Engine { return c.engine }

// RecordTick implements trace.Recorder: forward, then sample the
// simulator telemetry.
func (c *Collector) RecordTick(rec *trace.TickRecord) {
	if c.next != nil {
		c.next.RecordTick(rec)
	}
	t := rec.Time
	c.db.Append(c.idInletMax, t, rec.InletMax)
	c.db.Append(c.idInletMin, t, rec.InletMin)
	c.db.Append(c.idOutside, t, rec.OutsideTemp)
	c.db.Append(c.idOutsideRH, t, rec.OutsideRH)
	c.db.Append(c.idInsideRH, t, rec.InsideRH)
	c.db.Append(c.idCoolingW, t, rec.CoolingW)
	c.db.Append(c.idITW, t, rec.ITW)
	c.db.Append(c.idUtil, t, rec.Utilization)
	if c.engine != nil {
		c.engine.Observe(t)
	}
}

// RecordDecision implements trace.Recorder: forward, then sample the
// decision-derived series. guard_interventions is 1 on an intervention
// record and 0 on a clean controller decision, so a window mean is the
// intervention fraction and a window sum the intervention count.
func (c *Collector) RecordDecision(rec *trace.DecisionRecord) {
	if c.next != nil {
		c.next.RecordDecision(rec)
	}
	t := rec.Time
	if rec.Source == trace.SourceGuard || rec.Guard != trace.GuardNone {
		c.db.Append(c.idGuard, t, 1)
	} else {
		c.db.Append(c.idGuard, t, 0)
	}
	if rec.Winner >= 0 && rec.Winner < rec.NumCandidates && int(rec.Winner) < trace.MaxCandidates {
		c.db.Append(c.idWinnerPen, t, rec.Candidates[rec.Winner].Penalty)
	}

	c.mu.Lock()
	if c.spanAccum > 0 {
		c.db.Append(c.idDecisionSec, t, c.spanAccum)
		c.spanAccum = 0
	}
	if _, err, ok := c.pairer.Pair(rec); ok {
		c.db.Append(c.idPredErr, t, err)
	}
	c.mu.Unlock()

	if c.engine != nil {
		c.engine.Observe(t)
	}
}

// RecordSpan implements trace.SpanRecorder: forward, then accumulate
// toward the next decision's decision_seconds sample.
func (c *Collector) RecordSpan(p trace.Phase, seconds float64) {
	if c.span != nil {
		c.span.RecordSpan(p, seconds)
	}
	c.mu.Lock()
	c.spanAccum += seconds
	c.mu.Unlock()
}
