// Package hadoop simulates the modified Hadoop cluster of the paper's
// prototype (§4.2): servers with three power states (active,
// decommissioned, sleep), a Covering Subset that always stays active so
// the full dataset remains available, slot-based MapReduce task
// execution, and disk power-cycle accounting.
//
// The simulation is time-stepped: Submit enqueues jobs, Step advances
// task execution by dt seconds. CoolAir's Compute Configurer drives
// power states through SetActiveTarget, and its spatial placement
// through SetPlacementOrder.
package hadoop

import (
	"fmt"
	"math"
	"sort"

	"coolair/internal/units"
	"coolair/internal/workload"
)

// PowerState is a server's ACPI-style power state.
type PowerState int

const (
	// Active servers run tasks at full readiness.
	Active PowerState = iota
	// Decommissioned servers finish running tasks and hold temporary
	// data of incomplete jobs, but accept no new tasks. It is the
	// intermediate stop on the way to sleep (paper §4.2).
	Decommissioned
	// Sleep is ACPI S3: near-zero power, disks spun down.
	Sleep
)

// String implements fmt.Stringer.
func (s PowerState) String() string {
	switch s {
	case Active:
		return "active"
	case Decommissioned:
		return "decommissioned"
	case Sleep:
		return "sleep"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// SlotsPerServer is the number of concurrent tasks a server runs (one
// map plus one reduce slot on the paper's 2-core Atom machines).
const SlotsPerServer = 2

// Server is one machine in the cluster.
//
// The Cluster keeps per-pod counts of busy slots, awake and active
// servers current at every dispatch, task finish and power-state
// change, so State must only change through the Cluster's own methods
// (SetActiveTarget, ActivateAll); the memoguard analyzer flags any
// write from outside this package.
//
//coolair:memoized
type Server struct {
	ID  int
	Pod int
	// Covering marks membership in the Covering Subset; such servers
	// never leave the active state.
	Covering bool
	State    PowerState

	// tasks are the server's slots (remaining seconds and owning job);
	// the first ntasks entries are in use. Inline value slots keep the
	// per-step advance walk free of pointer chasing and allocation.
	tasks  [SlotsPerServer]task
	ntasks int
	// holdCount counts the incomplete jobs whose temporary data lives on
	// this server's disk (membership itself is tracked per job, in
	// runningJob.holdBits, keyed by the dense server ID).
	holdCount int

	// powerCycles counts transitions into Sleep (disk spin-downs).
	powerCycles int
}

type task struct {
	job       *runningJob
	remaining float64
	reduce    bool
}

// runningJob tracks one submitted job through its map and reduce phases.
type runningJob struct {
	job          workload.Job
	mapsLeft     int // not yet dispatched
	mapsRunning  int
	redsLeft     int
	redsRunning  int
	started      bool
	startTime    float64
	finishTime   float64
	mapPhaseDone bool
	// holders lists the servers holding this job's temporary data, so
	// completion releases exactly those instead of sweeping the whole
	// cluster; holdBits is the same set as a server-ID bitmap, making
	// the does-this-server-already-hold-it dispatch check two ALU ops.
	holders  []*Server
	holdBits []uint64
}

func (r *runningJob) done() bool {
	return r.mapPhaseDone && r.redsLeft == 0 && r.redsRunning == 0
}

// Cluster is the simulated Hadoop deployment.
type Cluster struct {
	Servers []*Server

	pending []*runningJob // submitted, not yet fully dispatched
	// flight holds submitted, unfinished jobs in submission order.
	// Completion scans it in order, so job records land deterministically
	// (a map here would randomize the intra-step completion order).
	flight    []*runningJob
	completed []JobRecord
	// cursor indexes the first possibly-dispatchable job in pending.
	// Eligibility never turns back on for a skipped job (mapsLeft and
	// redsLeft never grow) except when a map phase completes — the only
	// event unlocking reduces — so nextTask resumes from the cursor
	// across steps instead of rescanning the blocked prefix, and the
	// task-advance walk sets cursorReset on every map-phase completion.
	cursor      int
	cursorReset bool
	// dirtyPending records that dispatch (or submission) may have left
	// fully-dispatched jobs in pending, so the end-of-step compaction
	// can be skipped on the steps that changed nothing.
	dirtyPending bool
	// running counts tasks currently occupying slots cluster-wide, so an
	// idle Step can skip the per-server advance walk.
	running int
	// freeJobs recycles completed job records (and their holder slices
	// and bitmaps) into later submissions.
	freeJobs []*runningJob

	// pod holds each pod's counts, and active counts active servers
	// cluster-wide. Dispatch, task finish and setState keep them
	// current, so every per-tick aggregate (power, disk utilization,
	// activity) is a read over pods instead of a scan over servers.
	pod      []podCount
	active   int
	covering int
	maxIT    units.Watts

	placement []int // pod preference order for new tasks
	// order caches serverOrder's result; it depends only on placement
	// and the immutable (Pod, ID) identity of each server, so it is
	// recomputed only when SetPlacementOrder installs a new preference.
	order []*Server

	now     float64
	itotal  units.Joules
	elapsed float64
	// maxCycles is the largest per-server power-cycle count.
	maxCycles int

	// tape is the tape the cluster records or replays (tape.go); nil for
	// a plain live cluster.
	tape *tapeHead
}

// JobRecord is the completion record of a finished job.
type JobRecord struct {
	Job        workload.Job
	Start, End float64
}

// podCount is one pod's share of the cluster's incremental counts.
type podCount struct {
	servers int
	awake   int // servers not in Sleep
	active  int // servers in Active
	busy    int // occupied task slots
}

// NewCluster builds a cluster with the given number of servers per pod.
// Every sixth server (spread evenly, as HDFS block placement would) is
// assigned to the Covering Subset — the smallest set storing a full copy
// of the dataset (paper §4.2). Per-server power draw ramps between
// idle and busy (22–30 W).
func NewCluster(podSizes []int) (*Cluster, error) {
	if len(podSizes) == 0 {
		return nil, fmt.Errorf("hadoop: no pods")
	}
	total := 0
	for pod, n := range podSizes {
		if n <= 0 {
			return nil, fmt.Errorf("hadoop: pod %d has %d servers", pod, n)
		}
		total += n
	}
	c := &Cluster{
		Servers:   make([]*Server, total),
		pod:       make([]podCount, len(podSizes)),
		placement: make([]int, len(podSizes)),
		active:    total,
		maxIT:     units.Watts(total) * busyPower,
	}
	// One contiguous slab backs every server, so the per-step walks
	// stride through memory instead of chasing scattered allocations.
	slab := make([]Server, total)
	id := 0
	for pod, n := range podSizes {
		c.pod[pod] = podCount{servers: n, awake: n, active: n}
		c.placement[pod] = pod
		for i := 0; i < n; i++ {
			s := &slab[id]
			*s = Server{ID: id, Pod: pod, Covering: id%6 == 0, State: Active}
			if s.Covering {
				c.covering++
			}
			c.Servers[id] = s
			id++
		}
	}
	return c, nil
}

// setState moves s into power state st, keeping the pod and cluster
// counts current. Every power-state change goes through here; a move
// into Sleep is one disk power cycle.
func (c *Cluster) setState(s *Server, st PowerState) {
	if s.State == st {
		return
	}
	p := &c.pod[s.Pod]
	switch s.State {
	case Active:
		p.active--
		c.active--
	case Sleep:
		p.awake++
	}
	switch st {
	case Active:
		p.active++
		c.active++
	case Sleep:
		p.awake--
		s.powerCycles++
		if s.powerCycles > c.maxCycles {
			c.maxCycles = s.powerCycles
		}
	}
	s.State = st
}

// Pods returns the number of pods.
func (c *Cluster) Pods() int { return len(c.pod) }

// SetPlacementOrder installs the pod preference order used when
// dispatching tasks and choosing which servers to keep active. CoolAir's
// Compute Optimizer passes pods ranked by recirculation (paper §3.3).
func (c *Cluster) SetPlacementOrder(podOrder []int) error {
	if len(podOrder) != len(c.pod) {
		return fmt.Errorf("hadoop: placement order has %d pods, want %d", len(podOrder), len(c.pod))
	}
	seen := make(map[int]bool, len(c.pod))
	for _, p := range podOrder {
		if p < 0 || p >= len(c.pod) || seen[p] {
			return fmt.Errorf("hadoop: invalid placement order %v", podOrder)
		}
		seen[p] = true
	}
	if c.tape != nil {
		words := make([]uint64, 1, 1+len(podOrder))
		words[0] = callSetPlacementOrder
		for _, p := range podOrder {
			words = append(words, uint64(p))
		}
		if c.tape.enter(c, words...) {
			return nil
		}
	}
	c.placement = append([]int(nil), podOrder...)
	c.order = nil
	return nil
}

// Submit enqueues a job for execution (dispatch happens in Step).
func (c *Cluster) Submit(j workload.Job) {
	if c.tape != nil {
		words := jobWords(j)
		if c.tape.enter(c, words[:]...) {
			return
		}
	}
	var r *runningJob
	if n := len(c.freeJobs); n > 0 {
		r = c.freeJobs[n-1]
		c.freeJobs = c.freeJobs[:n-1]
		holders, bits := r.holders[:0], r.holdBits
		for i := range bits {
			bits[i] = 0
		}
		*r = runningJob{job: j, mapsLeft: j.Maps, redsLeft: j.Reduces, holders: holders, holdBits: bits}
	} else {
		r = &runningJob{job: j, mapsLeft: j.Maps, redsLeft: j.Reduces}
	}
	c.pending = append(c.pending, r)
	c.flight = append(c.flight, r)
	c.dirtyPending = true
}

// serverOrder returns the servers in placement-preference order. The
// returned slice is cached (callers must not reorder it); Step and
// SetActiveTarget both walk it every scheduling round, so re-sorting on
// each call dominated their cost.
func (c *Cluster) serverOrder() []*Server {
	if c.order != nil {
		return c.order
	}
	rank := make([]int, len(c.pod))
	for i, p := range c.placement {
		rank[p] = i
	}
	out := make([]*Server, len(c.Servers))
	copy(out, c.Servers)
	sort.SliceStable(out, func(a, b int) bool {
		if rank[out[a].Pod] != rank[out[b].Pod] {
			return rank[out[a].Pod] < rank[out[b].Pod]
		}
		return out[a].ID < out[b].ID
	})
	c.order = out
	return out
}

// Step advances the cluster to time now+dt: finishes tasks, promotes map
// phases to reduce phases, and dispatches queued tasks onto active
// servers in placement order.
func (c *Cluster) Step(dt float64) {
	c.now += dt
	c.elapsed += dt
	if c.tape == nil {
		c.advance(dt)
		return
	}
	if c.tape.enter(c, callStep, math.Float64bits(dt)) {
		return
	}
	c.advance(dt)
	c.tape.leave(c)
}

// advance is Step's live work: it runs the cluster's tasks for dt
// seconds.
func (c *Cluster) advance(dt float64) {
	// 1. Advance running tasks in place. An idle cluster (overnight gaps
	// in the traces) skips the server walk outright.
	finished := false
	if c.running > 0 {
		for _, s := range c.Servers {
			if s.ntasks == 0 {
				continue
			}
			kept := 0
			for i := 0; i < s.ntasks; i++ {
				t := &s.tasks[i]
				t.remaining -= dt
				if t.remaining > 0 {
					if kept != i {
						s.tasks[kept] = *t
					}
					kept++
					continue
				}
				if t.reduce {
					t.job.redsRunning--
				} else {
					t.job.mapsRunning--
					if t.job.mapsLeft == 0 && t.job.mapsRunning == 0 {
						t.job.mapPhaseDone = true
						c.cursorReset = true
					}
				}
				t.job = nil
			}
			if done := s.ntasks - kept; done > 0 {
				c.pod[s.Pod].busy -= done
				c.running -= done
				finished = true
			}
			s.ntasks = kept
		}
	}

	// 2. Complete jobs whose phases are all done. Holds are released
	// only from the servers that actually acquired them, and the job
	// record is recycled (nothing references it once complete: all its
	// tasks finished, and pending dropped it when dispatch exhausted it).
	// A job's completion condition can only turn true through a task
	// finishing above — mapPhaseDone flips only there, and redsLeft
	// reaching zero at dispatch always leaves redsRunning > 0 — and every
	// prior step collected what had completed then, so the scan is skipped
	// when nothing finished this step.
	if finished {
		keptFlight := c.flight[:0]
		for _, r := range c.flight {
			if r.job.Reduces == 0 && r.mapPhaseDone || r.done() {
				r.finishTime = c.now
				c.completed = append(c.completed, JobRecord{Job: r.job, Start: r.startTime, End: c.now})
				for _, s := range r.holders {
					s.holdCount--
				}
				c.freeJobs = append(c.freeJobs, r)
				continue
			}
			keptFlight = append(keptFlight, r)
		}
		for i := len(keptFlight); i < len(c.flight); i++ {
			c.flight[i] = nil
		}
		c.flight = keptFlight
	}

	// 3. Dispatch queued work onto free slots of active servers. An
	// empty queue skips the placement walk.
	if len(c.pending) == 0 {
		return
	}
	order := c.serverOrder()
	if c.cursorReset {
		c.cursor = 0
		c.cursorReset = false
	}
	for _, s := range order {
		if s.State != Active || s.ntasks == SlotsPerServer {
			continue
		}
		before := s.ntasks
		for s.ntasks < SlotsPerServer {
			r, ok := c.nextTask(&s.tasks[s.ntasks])
			if !ok {
				break
			}
			s.ntasks++
			if r.holdBits == nil {
				r.holdBits = make([]uint64, (len(c.Servers)+63)/64)
			}
			if w, bit := s.ID>>6, uint64(1)<<(uint(s.ID)&63); r.holdBits[w]&bit == 0 {
				r.holdBits[w] |= bit
				s.holdCount++
				r.holders = append(r.holders, s)
			}
		}
		if added := s.ntasks - before; added > 0 {
			c.running += added
			c.pod[s.Pod].busy += added
			c.dirtyPending = true
		}
		if s.ntasks < SlotsPerServer {
			break // the queue ran dry
		}
	}
	// Drop fully-dispatched jobs from the pending queue.
	if c.dirtyPending {
		c.compactPending()
		c.dirtyPending = false
	}
}

// nextTask fills dst with the next dispatchable task — maps of the
// oldest pending job, then reduces once its map phase completed —
// returning the owning job. It resumes from the step's dispatch cursor:
// jobs skipped earlier in this dispatch phase cannot have become
// dispatchable since (see the cursor field), so the scan never revisits
// them.
func (c *Cluster) nextTask(dst *task) (*runningJob, bool) {
	for c.cursor < len(c.pending) {
		r := c.pending[c.cursor]
		if r.mapsLeft > 0 {
			r.mapsLeft--
			r.mapsRunning++
			if !r.started {
				r.started = true
				r.startTime = c.now
			}
			*dst = task{job: r, remaining: r.job.MapDur}
			return r, true
		}
		if r.mapPhaseDone && r.redsLeft > 0 {
			r.redsLeft--
			r.redsRunning++
			if !r.started {
				r.started = true
				r.startTime = c.now
			}
			*dst = task{job: r, remaining: r.job.RedDur, reduce: true}
			return r, true
		}
		c.cursor++
	}
	return nil, false
}

func (c *Cluster) compactPending() {
	kept := c.pending[:0]
	removedBelow := 0
	for i, r := range c.pending {
		if r.mapsLeft > 0 || r.redsLeft > 0 {
			kept = append(kept, r)
		} else if i < c.cursor {
			removedBelow++
		}
	}
	for i := len(kept); i < len(c.pending); i++ {
		c.pending[i] = nil
	}
	c.pending = kept
	// Keep the cursor on the same job after the prefix shrank.
	c.cursor -= removedBelow
}
