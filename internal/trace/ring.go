package trace

import (
	"context"
	"sync"
)

// Default ring capacities: a 52-day paper year emits ~7500 decisions
// and ~37000 ticks at the 2-minute cadence; the defaults keep the most
// recent few days of full-cadence telemetry while bounding memory to a
// few megabytes.
const (
	DefaultDecisionCapacity = 4096
	DefaultTickCapacity     = 16384
)

// Ring is the flight-recorder Recorder: two preallocated circular
// buffers (decisions and ticks) that keep the most recent records,
// overwriting the oldest once full. The record path performs no
// allocation — each record is a single struct copy into its ring slot —
// and a mutex makes the ring safe to share across the concurrent runs
// of an experiment grid.
//
// Every append advances a per-kind sequence number, so readers can tail
// the ring live: Cursor marks a position, TailDecisions/TailTicks copy
// what arrived since (reporting records the ring overwrote before the
// reader caught up), and WaitForMore blocks until the cursor moves.
// That is the substrate of the serve plane's SSE stream.
type Ring struct {
	mu sync.Mutex

	dec     []DecisionRecord
	decHead int // index of the oldest record
	decLen  int

	tick     []TickRecord
	tickHead int
	tickLen  int

	// Total records ever appended per kind: the ring holds the seq range
	// (decSeq-decLen, decSeq].
	decSeq, tickSeq uint64

	// Overwrite accounting: how many records the ring has dropped to
	// make room (flight-recorder semantics — the newest survive).
	decDropped, tickDropped uint64

	// notify, when non-nil, is closed on the next append to wake
	// WaitForMore callers. It is created lazily by waiters, so the
	// record path stays allocation-free when nobody is tailing (closing
	// a channel does not allocate).
	notify chan struct{}

	reg *Registry

	// pairer feeds the prediction-error histogram.
	pairer   PredictionPairer
	haveMode bool
	lastMode int32
}

// NewRing creates a ring recorder with the given capacities (values
// ≤ 0 take the defaults) and a fresh metrics Registry.
func NewRing(decisionCap, tickCap int) *Ring {
	if decisionCap <= 0 {
		decisionCap = DefaultDecisionCapacity
	}
	if tickCap <= 0 {
		tickCap = DefaultTickCapacity
	}
	return &Ring{
		dec:  make([]DecisionRecord, decisionCap),
		tick: make([]TickRecord, tickCap),
		reg:  NewRegistry(),
	}
}

// Metrics returns the ring's counter/gauge/histogram registry.
func (r *Ring) Metrics() *Registry { return r.reg }

// wake releases any WaitForMore callers. Called with mu held.
func (r *Ring) wake() {
	if r.notify != nil {
		close(r.notify)
		r.notify = nil
	}
}

// RecordDecision implements Recorder: copy the record into the ring and
// fold it into the metrics registry. Allocation-free.
func (r *Ring) RecordDecision(rec *DecisionRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()

	if r.decLen < len(r.dec) {
		r.dec[(r.decHead+r.decLen)%len(r.dec)] = *rec
		r.decLen++
	} else {
		r.dec[r.decHead] = *rec
		r.decHead = (r.decHead + 1) % len(r.dec)
		r.decDropped++
		r.reg.RingDecisionsDropped.Inc()
	}
	r.decSeq++
	r.reg.RingDecisions.Set(float64(r.decLen))
	r.wake()

	if rec.Source == SourceGuard || rec.Guard != GuardNone {
		r.reg.GuardInterventionsTotal.Inc()
	} else {
		r.reg.DecisionsTotal.Inc()
	}
	if r.haveMode && rec.Mode != r.lastMode {
		r.reg.RegimeTransitionsTotal.Inc()
	}
	r.haveMode = true
	r.lastMode = rec.Mode
	r.reg.ActiveRegime.Set(float64(rec.Mode))
	if rec.Source == SourceController {
		r.reg.BandLoC.Set(rec.BandLo)
		r.reg.BandHiC.Set(rec.BandHi)
	}
	// Predicted-vs-realized: see PredictionPairer.
	if _, err, ok := r.pairer.Pair(rec); ok {
		r.reg.PredictionAbsError.Observe(err)
	}
}

// RecordTick implements Recorder. Allocation-free.
func (r *Ring) RecordTick(rec *TickRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tickLen < len(r.tick) {
		r.tick[(r.tickHead+r.tickLen)%len(r.tick)] = *rec
		r.tickLen++
	} else {
		r.tick[r.tickHead] = *rec
		r.tickHead = (r.tickHead + 1) % len(r.tick)
		r.tickDropped++
		r.reg.RingTicksDropped.Inc()
	}
	r.tickSeq++
	r.reg.TicksTotal.Inc()
	r.reg.RingTicks.Set(float64(r.tickLen))
	r.reg.InletMaxC.Set(rec.InletMax)
	r.reg.InletMinC.Set(rec.InletMin)
	r.reg.OutsideTempC.Set(rec.OutsideTemp)
	r.reg.OutsideRH.Set(rec.OutsideRH)
	r.reg.ActiveRegime.Set(float64(rec.Mode))
	r.reg.SimTimeSeconds.Set(rec.Time)
	r.wake()
}

// RestoreCursor seeds the ring's sequence counters from a checkpointed
// Cursor so record numbering (and SSE Last-Event-ID continuity)
// survives a daemon restart: clients reconnecting with a pre-crash id
// resume from the live end instead of replaying renumbered history.
// Only an empty ring accepts a restore — once records exist the
// numbering is already in use.
func (r *Ring) RestoreCursor(c Cursor) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.decSeq != 0 || r.tickSeq != 0 {
		return false
	}
	r.decSeq, r.tickSeq = c.Decisions, c.Ticks
	return true
}

// RecordSpan implements SpanRecorder, feeding the registry's per-phase
// latency histograms. Allocation-free (histograms are atomic; no lock).
func (r *Ring) RecordSpan(p Phase, seconds float64) { r.reg.RecordSpan(p, seconds) }

// Dropped reports how many decision and tick records the ring has
// overwritten to make room for newer ones.
func (r *Ring) Dropped() (decisions, ticks uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decDropped, r.tickDropped
}

// Cursor marks a position in the ring's append history: how many
// records of each kind had been appended when it was taken.
type Cursor struct {
	Decisions uint64
	Ticks     uint64
}

// Cursor returns the current end position (everything appended so far
// is before it). Tail from a zero Cursor to read the retained history.
func (r *Ring) Cursor() Cursor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Cursor{Decisions: r.decSeq, Ticks: r.tickSeq}
}

// TailDecisions copies into buf the decision records appended after
// position c (oldest first), up to len(buf). It returns the number
// copied, how many were overwritten before they could be read (the
// reader was slower than the writer), and the cursor to pass next time.
func (r *Ring) TailDecisions(c Cursor, buf []DecisionRecord) (n int, skipped uint64, next Cursor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next = c
	oldest := r.decSeq - uint64(r.decLen)
	seq := c.Decisions
	if seq > r.decSeq {
		// A cursor from another ring (or a decoded last-event-id beyond
		// our history) clamps to the live end rather than reading junk.
		seq = r.decSeq
	}
	if seq < oldest {
		skipped = oldest - seq
		seq = oldest
	}
	for seq < r.decSeq && n < len(buf) {
		idx := (r.decHead + int(seq-oldest)) % len(r.dec)
		buf[n] = r.dec[idx]
		n++
		seq++
	}
	next.Decisions = seq
	return n, skipped, next
}

// TailTicks is TailDecisions for tick records.
func (r *Ring) TailTicks(c Cursor, buf []TickRecord) (n int, skipped uint64, next Cursor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next = c
	oldest := r.tickSeq - uint64(r.tickLen)
	seq := c.Ticks
	if seq > r.tickSeq {
		seq = r.tickSeq
	}
	if seq < oldest {
		skipped = oldest - seq
		seq = oldest
	}
	for seq < r.tickSeq && n < len(buf) {
		idx := (r.tickHead + int(seq-oldest)) % len(r.tick)
		buf[n] = r.tick[idx]
		n++
		seq++
	}
	next.Ticks = seq
	return n, skipped, next
}

// WaitForMore blocks until at least one record has been appended after
// position c, or ctx ends (returning its error). Multiple goroutines
// may wait on the same ring.
func (r *Ring) WaitForMore(ctx context.Context, c Cursor) error {
	for {
		r.mu.Lock()
		if r.decSeq > c.Decisions || r.tickSeq > c.Ticks {
			r.mu.Unlock()
			return nil
		}
		if r.notify == nil {
			r.notify = make(chan struct{})
		}
		ch := r.notify
		r.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// Decisions returns the retained decision records, oldest first.
func (r *Ring) Decisions() []DecisionRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DecisionRecord, r.decLen)
	for i := 0; i < r.decLen; i++ {
		out[i] = r.dec[(r.decHead+i)%len(r.dec)]
	}
	return out
}

// Ticks returns the retained tick records, oldest first.
func (r *Ring) Ticks() []TickRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TickRecord, r.tickLen)
	for i := 0; i < r.tickLen; i++ {
		out[i] = r.tick[(r.tickHead+i)%len(r.tick)]
	}
	return out
}

// Snapshot drains the ring into a Data value (copies; the ring keeps
// recording).
func (r *Ring) Snapshot() *Data {
	return &Data{Decisions: r.Decisions(), Ticks: r.Ticks()}
}
