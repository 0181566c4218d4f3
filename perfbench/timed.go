package main

import (
	"fmt"
	"time"

	"coolair/internal/control"
	"coolair/internal/cooling"
	"coolair/internal/trace"
	"coolair/internal/workload"
)

// callStats accumulates the time one controller spends inside each call
// sim.Run makes into it. One instance belongs to one cell, so it needs no
// lock.
type callStats struct {
	decide, observe, startDay, scheduleDay time.Duration
	decideCalls                            int
	// decideSamples holds every Decide duration, for percentiles.
	decideSamples []time.Duration
}

// total is the time spent inside the controller.
func (s *callStats) total() time.Duration {
	return s.decide + s.observe + s.startDay + s.scheduleDay
}

// add merges o into s.
func (s *callStats) add(o *callStats) {
	s.decide += o.decide
	s.observe += o.observe
	s.startDay += o.startDay
	s.scheduleDay += o.scheduleDay
	s.decideCalls += o.decideCalls
	s.decideSamples = append(s.decideSamples, o.decideSamples...)
}

// timed is the plain timing decorator: it times Decide and forwards
// Name and Period. It implements no optional interface, so sim.Run sees
// exactly the capabilities of the wrapper chosen by wrapTimed.
type timed struct {
	inner control.Controller
	st    *callStats
}

func (t *timed) Name() string    { return t.inner.Name() }
func (t *timed) Period() float64 { return t.inner.Period() }

func (t *timed) Decide(obs control.Observation) (cooling.Command, error) {
	start := time.Now()
	cmd, err := t.inner.Decide(obs)
	d := time.Since(start)
	t.st.decide += d
	t.st.decideCalls++
	t.st.decideSamples = append(t.st.decideSamples, d)
	return cmd, err
}

// timedTraceable adds trace.Traceable (the TKS baseline's only optional
// interface besides the worker knob the benchmark never forwards).
type timedTraceable struct{ *timed }

func (t timedTraceable) SetRecorder(r trace.Recorder) {
	t.inner.(trace.Traceable).SetRecorder(r)
}

// timedPlanner forwards and times every optional interface CoolAir and
// control.Guard implement: Monitor, DayPlanner, TemporalScheduler and
// trace.Traceable.
type timedPlanner struct{ *timed }

func (t timedPlanner) Observe(obs control.Observation) {
	start := time.Now()
	t.inner.(control.Monitor).Observe(obs)
	t.st.observe += time.Since(start)
}

func (t timedPlanner) StartDay(day int) {
	start := time.Now()
	t.inner.(control.DayPlanner).StartDay(day)
	t.st.startDay += time.Since(start)
}

func (t timedPlanner) ScheduleDay(day int, jobs []workload.Job) []float64 {
	start := time.Now()
	out := t.inner.(control.TemporalScheduler).ScheduleDay(day, jobs)
	t.st.scheduleDay += time.Since(start)
	return out
}

func (t timedPlanner) SetRecorder(r trace.Recorder) {
	t.inner.(trace.Traceable).SetRecorder(r)
}

// wrapTimed returns a decorator that times c's calls into st and
// implements exactly the optional interfaces c implements, apart from
// control.WorkerConfigurable, which no wrapper implements: the benchmark
// leaves RunConfig.DecisionWorkers at zero. A combination of optional
// interfaces no wrapper covers is an error, never a silently narrower
// controller.
func wrapTimed(c control.Controller, st *callStats) (control.Controller, error) {
	_, mon := c.(control.Monitor)
	_, plan := c.(control.DayPlanner)
	_, sched := c.(control.TemporalScheduler)
	_, rec := c.(trace.Traceable)
	base := &timed{inner: c, st: st}
	switch {
	case mon && plan && sched && rec:
		return timedPlanner{base}, nil
	case !mon && !plan && !sched && rec:
		return timedTraceable{base}, nil
	case !mon && !plan && !sched && !rec:
		return base, nil
	}
	return nil, fmt.Errorf("no timing wrapper for %T (monitor=%t planner=%t scheduler=%t traceable=%t)",
		c, mon, plan, sched, rec)
}
