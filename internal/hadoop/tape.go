package hadoop

import (
	"errors"
	"fmt"
	"math"

	"coolair/internal/workload"
)

// A cluster tape lets many runs share one simulation of the cluster.
// Every per-tick aggregate (pod power, disk utilization, activity,
// utilization) is a read over the per-pod counts, so a run that makes
// the same calls into a fresh cluster as an earlier run sees the same
// counts after every call. Record keeps those counts on a Tape; Replay
// loads them back in place of the task simulation, and every accessor
// keeps reading the counts through the shared code, so a replay is
// bit-identical to a live run by construction.
//
// A replaying cluster checks each call it receives against a running
// hash of the recorded calls. A run whose calls diverge from the
// recording gets an error (TapeErr, EndTape), never a silently wrong
// trajectory.
//
// A replaying cluster runs no jobs: Completed, QueuedTasks, PendingJobs
// and InFlightJobs report nothing, and Servers keep their initial
// state. Callers that need completion counts keep them beside the tape.

// maxTapePod is the largest pod a tape frame holds: busy slots are
// stored in one byte.
const maxTapePod = math.MaxUint8 / SlotsPerServer

// Call tags, folded into the running hash ahead of each call's
// arguments.
const (
	callSubmit uint64 = iota + 1
	callStep
	callSetActiveTarget
	callActivateAll
	callSetPlacementOrder
)

// Frame parts a call's two-bit code announces. Step changes only busy
// counts; SetActiveTarget and ActivateAll change only power states.
const (
	partBusy  = 1 << iota // each pod's busy slots
	partPower             // each pod's awake and active servers, and the power-cycle growth
)

// Tape is one recorded cluster run. It is immutable once EndTape
// returns it, so any number of clusters may replay it concurrently.
type Tape struct {
	layout string
	// codes holds two bits per call: the frame parts that call changed.
	// A call that changed nothing (every Submit, most idle Steps) keeps
	// no frame.
	codes []uint64
	// data holds the frames in call order. A frame is the low byte of
	// the running call hash at its call, then its parts: each pod's busy
	// count; each pod's awake and active counts and the growth of the
	// worst per-server power-cycle count.
	data []uint8
	// demand is the value of every SlotDemand read; demandAt is the
	// number of calls made before the read.
	demand   []int
	demandAt []uint32
	calls    uint32
	hash     uint64
}

// Bytes is the memory the tape's records take.
func (t *Tape) Bytes() int {
	return len(t.data) + 8*len(t.codes) + 8*len(t.demand) + 4*len(t.demandAt)
}

// code returns call n's (1-based) frame parts.
func (t *Tape) code(n uint32) uint64 {
	i := n - 1
	return t.codes[i/32] >> (2 * (i % 32)) & 3
}

// tapeHead is a cluster's position on the tape it records or replays.
type tapeHead struct {
	tape   *Tape
	replay bool
	ended  bool
	hash   uint64
	calls  uint32
	// Replay cursors: the next frame byte and SlotDemand read.
	pos, read int
	// Recording state: the counts of the last frame kept.
	last       []podCount
	lastCycles int
	// err is a replay's first divergence.
	err error
}

// Layout names what a fresh cluster's trajectory depends on besides the
// calls it receives: the pod sizes (which fix the Covering Subset) and
// the placement order.
func (c *Cluster) Layout() string {
	sizes := make([]int, len(c.pod))
	for i := range c.pod {
		sizes[i] = c.pod[i].servers
	}
	return fmt.Sprintf("pods %v placement %v", sizes, c.placement)
}

// checkFresh reports an error unless the cluster is as NewCluster built
// it, up to its placement order: nothing submitted or stepped, every
// server active, no tape.
func (c *Cluster) checkFresh() error {
	if c.tape != nil {
		return errors.New("hadoop: cluster already records or replays a tape")
	}
	if c.elapsed != 0 || len(c.flight) > 0 || len(c.completed) > 0 || c.active != len(c.Servers) || c.maxCycles > 0 {
		return errors.New("hadoop: cluster is not fresh")
	}
	return nil
}

// Record makes the fresh cluster record its run onto a new tape, which
// EndTape returns.
func (c *Cluster) Record() error {
	if err := c.checkFresh(); err != nil {
		return err
	}
	for i := range c.pod {
		if c.pod[i].servers > maxTapePod {
			return fmt.Errorf("hadoop: pod %d has %d servers, a tape holds at most %d", i, c.pod[i].servers, maxTapePod)
		}
	}
	c.tape = &tapeHead{tape: &Tape{layout: c.Layout()}, last: append([]podCount(nil), c.pod...)}
	return nil
}

// Replay makes the fresh cluster replay t: each later call must match
// the recorded one, and loads the counts the recording had after it.
func (c *Cluster) Replay(t *Tape) error {
	if err := c.checkFresh(); err != nil {
		return err
	}
	if layout := c.Layout(); t.layout != layout {
		return fmt.Errorf("hadoop: tape recorded on %q, cluster is %q", t.layout, layout)
	}
	c.tape = &tapeHead{tape: t, replay: true}
	return nil
}

// EndTape ends the cluster's recording or replay. A recording returns
// its finished tape and leaves the cluster live. A replay returns the
// first divergence from the tape, if any — including a run that made
// fewer calls or SlotDemand reads than the recording — and leaves the
// cluster unable to take further calls: it holds counts but no jobs.
func (c *Cluster) EndTape() (*Tape, error) {
	h := c.tape
	if h == nil || h.ended {
		return nil, errors.New("hadoop: cluster has no tape to end")
	}
	h.ended = true
	t := h.tape
	if !h.replay {
		t.calls, t.hash = h.calls, h.hash
		// Drop append's slack: the tape outlives the run.
		t.codes = append([]uint64(nil), t.codes...)
		t.data = append([]uint8(nil), t.data...)
		t.demand = append([]int(nil), t.demand...)
		t.demandAt = append([]uint32(nil), t.demandAt...)
		c.tape = nil
		return t, nil
	}
	if h.err == nil && (h.calls != t.calls || h.hash != t.hash || h.read != len(t.demand)) {
		h.fail("run ended after %d calls and %d SlotDemand reads, the tape holds %d and %d",
			h.calls, h.read, t.calls, len(t.demand))
	}
	return nil, h.err
}

// TapeErr returns the first divergence of a replaying cluster from its
// tape, or nil.
func (c *Cluster) TapeErr() error {
	if c.tape == nil {
		return nil
	}
	return c.tape.err
}

func (h *tapeHead) fail(format string, args ...any) {
	if h.err == nil {
		h.err = fmt.Errorf("hadoop: replay diverged from the tape: "+format, args...)
	}
}

// mix folds one word into the running hash. The splitmix64 finalizer is
// a bijection, so two call streams that differ anywhere keep different
// hashes from there on.
func (h *tapeHead) mix(v uint64) {
	x := h.hash ^ v
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	h.hash = x
}

// enter folds one mutating call into the running hash. A replaying head
// then applies the call's recorded effect and returns true: the caller
// skips its live work. A recording head returns false, and the caller
// runs the call and then calls leave (unless the call, like Submit,
// changes no count).
func (h *tapeHead) enter(c *Cluster, words ...uint64) bool {
	for _, w := range words {
		h.mix(w)
	}
	h.calls++
	t := h.tape
	if !h.replay {
		if (h.calls-1)%32 == 0 {
			t.codes = append(t.codes, 0)
		}
		return false
	}
	switch {
	case h.err != nil:
		// Diverged already: hold the counts until the run reports it.
	case h.ended || h.calls > t.calls:
		h.fail("call %d runs past the end of the tape (%d calls)", h.calls, t.calls)
	default:
		code := t.code(h.calls)
		if code == 0 {
			break
		}
		f := t.data[h.pos:]
		if f[0] != uint8(h.hash) {
			h.fail("call %d differs from the recorded one", h.calls)
			break
		}
		f = f[1:]
		n := len(c.pod)
		if code&partBusy != 0 {
			c.running = 0
			for i := range c.pod {
				c.pod[i].busy = int(f[i])
				c.running += int(f[i])
			}
			f = f[n:]
			h.pos += n
		}
		if code&partPower != 0 {
			c.active = 0
			for i := range c.pod {
				p := &c.pod[i]
				p.awake, p.active = int(f[i]), int(f[n+i])
				c.active += p.active
			}
			c.maxCycles += int(f[2*n])
			h.pos += 2*n + 1
		}
		h.pos++
	}
	return true
}

// leave keeps a frame of the parts the recorded call changed.
func (h *tapeHead) leave(c *Cluster) {
	var code uint64
	if c.maxCycles != h.lastCycles {
		code |= partPower
	}
	for i := range c.pod {
		p, q := &c.pod[i], &h.last[i]
		if p.busy != q.busy {
			code |= partBusy
		}
		if p.awake != q.awake || p.active != q.active {
			code |= partPower
		}
	}
	if code == 0 {
		return
	}
	t := h.tape
	k := h.calls - 1
	t.codes[k/32] |= code << (2 * (k % 32))
	t.data = append(t.data, uint8(h.hash))
	if code&partBusy != 0 {
		for i := range c.pod {
			t.data = append(t.data, uint8(c.pod[i].busy))
		}
	}
	if code&partPower != 0 {
		for i := range c.pod {
			t.data = append(t.data, uint8(c.pod[i].awake))
		}
		for i := range c.pod {
			t.data = append(t.data, uint8(c.pod[i].active))
		}
		// One call sleeps each server at most once, so the worst
		// count grows by at most one per call.
		t.data = append(t.data, uint8(c.maxCycles-h.lastCycles))
		h.lastCycles = c.maxCycles
	}
	copy(h.last, c.pod)
}

// slotDemand records a live SlotDemand read, or returns the recorded one.
func (h *tapeHead) slotDemand(c *Cluster) int {
	t := h.tape
	if !h.replay {
		v := c.BusySlots() + c.QueuedTasks()
		t.demand = append(t.demand, v)
		t.demandAt = append(t.demandAt, h.calls)
		return v
	}
	if h.err != nil {
		return 0
	}
	if h.read >= len(t.demand) || t.demandAt[h.read] != h.calls {
		h.fail("SlotDemand read after call %d was not recorded", h.calls)
		return 0
	}
	v := t.demand[h.read]
	h.read++
	return v
}

// jobWords is a job's contribution to the call hash.
func jobWords(j workload.Job) [9]uint64 {
	return [9]uint64{
		callSubmit, uint64(j.ID), math.Float64bits(j.Arrival),
		uint64(j.Maps), math.Float64bits(j.MapDur), uint64(j.Reduces), math.Float64bits(j.RedDur),
		math.Float64bits(j.Deadline), math.Float64bits(j.InputMB),
	}
}
