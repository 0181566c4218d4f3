package hadoop

import (
	"math"
	"math/rand"
	"testing"

	"coolair/internal/units"
	"coolair/internal/workload"
)

// The reference aggregates below are the full-scan loops the Cluster's
// incremental counts replaced. They walk every server in ID order and
// derive each value from the server's own state, so they are slow and
// obviously correct; the tests require the fast reads to match them bit
// for bit.

// refServerPower is one server's draw, ramping from idle to busy with
// its occupied slots.
func refServerPower(s *Server) units.Watts {
	if s.State == Sleep {
		return 1.5 // S3 standby
	}
	const idle, busy = 22, 30
	frac := float64(s.ntasks) / SlotsPerServer
	return idle + units.Watts(frac*float64(busy-idle))
}

func refPodPower(c *Cluster) []units.Watts {
	out := make([]units.Watts, c.Pods())
	for _, s := range c.Servers {
		out[s.Pod] += refServerPower(s)
	}
	return out
}

func refITPower(c *Cluster) units.Watts {
	var t units.Watts
	for _, s := range c.Servers {
		t += refServerPower(s)
	}
	return t
}

func refMaxITPower(c *Cluster) units.Watts {
	var t units.Watts
	for range c.Servers {
		t += 30
	}
	return t
}

// refPodDiskUtil is the busy-slot fraction of each pod's awake servers.
func refPodDiskUtil(c *Cluster) []float64 {
	busy := make([]int, c.Pods())
	slots := make([]int, c.Pods())
	for _, s := range c.Servers {
		if s.State == Sleep {
			continue
		}
		busy[s.Pod] += s.ntasks
		slots[s.Pod] += SlotsPerServer
	}
	out := make([]float64, c.Pods())
	for p := range out {
		if slots[p] > 0 {
			out[p] = float64(busy[p]) / float64(slots[p])
		}
	}
	return out
}

func refPodActive(c *Cluster) []bool {
	out := make([]bool, c.Pods())
	for _, s := range c.Servers {
		if s.State == Active {
			out[s.Pod] = true
		}
	}
	return out
}

func refActiveServers(c *Cluster) int {
	n := 0
	for _, s := range c.Servers {
		if s.State == Active {
			n++
		}
	}
	return n
}

func refBusySlots(c *Cluster) int {
	n := 0
	for _, s := range c.Servers {
		n += s.ntasks
	}
	return n
}

// sameBits reports whether two floats are the same IEEE-754 value.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// oracle drives a Cluster and checks it against the reference
// aggregates and the conservation laws after every operation. It counts
// what it submitted, and it counts finished tasks itself by reading the
// slots before each Step, so the task ledger does not trust the
// cluster's own counters.
type oracle struct {
	t testing.TB
	c *Cluster

	nextID         int
	submittedJobs  int
	submittedTasks int
	finishedTasks  int
	energy         units.Joules

	powerBuf []units.Watts
	diskBuf  []float64
}

func newOracle(t testing.TB, podSizes []int) *oracle {
	t.Helper()
	c, err := NewCluster(podSizes)
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{t: t, c: c}
	o.check("new cluster")
	return o
}

func (o *oracle) submit(j workload.Job) {
	o.nextID++
	j.ID = o.nextID
	o.c.Submit(j)
	o.submittedJobs++
	o.submittedTasks += j.Maps + j.Reduces
	o.check("submit")
}

func (o *oracle) step(dt float64) {
	for _, s := range o.c.Servers {
		for i := 0; i < s.ntasks; i++ {
			if s.tasks[i].remaining-dt <= 0 {
				o.finishedTasks++
			}
		}
	}
	o.c.Step(dt)
	o.energy.Add(refITPower(o.c), dt)
	o.c.AccrueEnergy(dt)
	if got := o.c.ITEnergy(); !sameBits(float64(got), float64(o.energy)) {
		o.t.Fatalf("t=%g: ITEnergy %v, reference Σ ITPower·dt %v", o.c.Now(), float64(got), float64(o.energy))
	}
	o.check("step")
}

// transition applies a power-state operation and checks that the disk
// power-cycle counters grew by exactly the observed moves into Sleep.
func (o *oracle) transition(what string, apply func()) {
	before := make([]PowerState, len(o.c.Servers))
	cyclesBefore := 0
	for i, s := range o.c.Servers {
		before[i] = s.State
		cyclesBefore += s.powerCycles
	}
	apply()
	slept, cycles := 0, 0
	for i, s := range o.c.Servers {
		if before[i] != Sleep && s.State == Sleep {
			slept++
		}
		cycles += s.powerCycles
	}
	if grown := cycles - cyclesBefore; grown != slept {
		o.t.Fatalf("%s: power cycles grew by %d, %d servers fell asleep", what, grown, slept)
	}
	o.check(what)
}

func (o *oracle) setActiveTarget(want int) {
	o.transition("SetActiveTarget", func() {
		if err := o.c.SetActiveTarget(want); err != nil {
			o.t.Fatal(err)
		}
	})
	floor := o.c.CoveringSubsetSize()
	if want > floor {
		floor = want
	}
	if got := o.c.ActiveServers(); got != floor {
		o.t.Fatalf("SetActiveTarget(%d): %d active, want %d", want, got, floor)
	}
}

func (o *oracle) activateAll() { o.transition("ActivateAll", o.c.ActivateAll) }

func (o *oracle) setPlacementOrder(order []int) {
	if err := o.c.SetPlacementOrder(order); err != nil {
		o.t.Fatal(err)
	}
	o.check("SetPlacementOrder")
}

// drain wakes every server and steps until every submitted job has
// completed.
func (o *oracle) drain(dt float64, maxSteps int) {
	o.activateAll()
	for i := 0; o.c.InFlightJobs() > 0; i++ {
		if i == maxSteps {
			o.t.Fatalf("%d jobs still in flight after %d drain steps", o.c.InFlightJobs(), maxSteps)
		}
		o.step(dt)
	}
	if got := len(o.c.Completed()); got != o.submittedJobs {
		o.t.Fatalf("drained: %d jobs completed, %d submitted", got, o.submittedJobs)
	}
}

// check compares every aggregate read with its reference and checks
// task and job conservation.
func (o *oracle) check(after string) {
	t, c := o.t, o.c
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after %s at t=%g: "+format, append([]any{after, c.Now()}, args...)...)
	}

	for _, s := range c.Servers {
		if s.State == Sleep && s.ntasks > 0 {
			fail("sleeping server %d runs %d tasks", s.ID, s.ntasks)
		}
		if s.Covering && s.State != Active {
			fail("covering server %d is %v", s.ID, s.State)
		}
	}

	o.powerBuf = c.PodPowerInto(o.powerBuf)
	for p, want := range refPodPower(c) {
		if !sameBits(float64(o.powerBuf[p]), float64(want)) {
			fail("PodPowerInto[%d] = %v, reference %v", p, float64(o.powerBuf[p]), float64(want))
		}
	}
	if got, want := c.ITPower(), refITPower(c); !sameBits(float64(got), float64(want)) {
		fail("ITPower = %v, reference %v", float64(got), float64(want))
	}
	if got, want := c.MaxITPower(), refMaxITPower(c); !sameBits(float64(got), float64(want)) {
		fail("MaxITPower = %v, reference %v", float64(got), float64(want))
	}
	o.diskBuf = c.PodDiskUtilInto(o.diskBuf)
	for p, want := range refPodDiskUtil(c) {
		if !sameBits(o.diskBuf[p], want) {
			fail("PodDiskUtilInto[%d] = %v, reference %v", p, o.diskBuf[p], want)
		}
	}
	gotActive := c.PodActive()
	for p, want := range refPodActive(c) {
		if gotActive[p] != want {
			fail("PodActive[%d] = %v, reference %v", p, gotActive[p], want)
		}
	}
	active := refActiveServers(c)
	if got := c.ActiveServers(); got != active {
		fail("ActiveServers = %d, reference %d", got, active)
	}
	if got, want := c.Utilization(), float64(active)/float64(len(c.Servers)); !sameBits(got, want) {
		fail("Utilization = %v, reference %v", got, want)
	}

	running := refBusySlots(c)
	if got := c.BusySlots(); got != running {
		fail("BusySlots = %d, reference %d", got, running)
	}
	queued := 0
	for _, r := range c.pending {
		queued += r.mapsLeft + r.redsLeft
	}
	if o.submittedTasks != o.finishedTasks+running+queued {
		fail("tasks: submitted %d != completed %d + running %d + queued %d",
			o.submittedTasks, o.finishedTasks, running, queued)
	}
	if o.submittedJobs != len(c.Completed())+c.InFlightJobs() {
		fail("jobs: submitted %d != completed %d + in flight %d",
			o.submittedJobs, len(c.Completed()), c.InFlightJobs())
	}
}

// scriptOp is one decoded script operation.
type scriptOp struct {
	kind  byte // 's'tep, 'j'ob, 't'arget, 'a'ctivate all, 'p'lacement
	job   workload.Job
	want  int
	order []int
}

// scriptOps decodes a byte script into cluster operations for a cluster
// of the given pod and server counts. Each byte is an operation, some
// taking one or two argument bytes:
//
//	op%16 in 0..7   Step(30)
//	op%16 in 8..11  Submit a SWIM-like job (two argument bytes)
//	op%16 in 12..13 SetActiveTarget (one argument byte)
//	op%16 == 14     ActivateAll
//	op%16 == 15     SetPlacementOrder (one argument byte)
func scriptOps(pods, servers int, script []byte) []scriptOp {
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	var ops []scriptOp
	for len(script) > 0 {
		switch op := next() % 16; {
		case op < 8:
			ops = append(ops, scriptOp{kind: 's'})
		case op < 12:
			ops = append(ops, scriptOp{kind: 'j', job: scriptJob(next(), next())})
		case op < 14:
			ops = append(ops, scriptOp{kind: 't', want: int(next()) % (servers + 1)})
		case op == 14:
			ops = append(ops, scriptOp{kind: 'a'})
		default:
			ops = append(ops, scriptOp{kind: 'p', order: scriptOrder(pods, next())})
		}
	}
	return ops
}

// run runs a byte script (see scriptOps; the pod layout is already
// decoded) through the oracle, checking every operation. A finished
// script is drained: every server wakes and the cluster steps until
// every job has completed.
func (o *oracle) run(script []byte) {
	for _, op := range scriptOps(o.c.Pods(), len(o.c.Servers), script) {
		switch op.kind {
		case 's':
			o.step(30)
		case 'j':
			o.submit(op.job)
		case 't':
			o.setActiveTarget(op.want)
		case 'a':
			o.activateAll()
		default:
			o.setPlacementOrder(op.order)
		}
	}
	o.drain(30, 1_000_000)
}

// scriptPods decodes a pod layout: 1–4 pods of 1–16 servers.
func scriptPods(script []byte) (sizes []int, rest []byte) {
	if len(script) == 0 {
		return []int{1}, nil
	}
	n := 1 + int(script[0]%4)
	script = script[1:]
	for i := 0; i < n; i++ {
		size := 1
		if len(script) > 0 {
			size += int(script[0] % 16)
			script = script[1:]
		}
		sizes = append(sizes, size)
	}
	return sizes, script
}

// scriptJob decodes a SWIM-like job: mostly small, with a heavy tail of
// map counts, zero to three reduces, and task durations that may be
// zero (such a task finishes on the next Step).
func scriptJob(a, b byte) workload.Job {
	maps := 1 + int(a%8)
	if a >= 224 {
		maps = 1 + int(a) // the tail: up to 256 maps
	}
	return workload.Job{
		Maps:    maps,
		MapDur:  15 * float64(b>>2&7),
		Reduces: int(b & 3),
		RedDur:  30 * float64(b>>5),
	}
}

// scriptOrder decodes a pod preference order: a rotation, optionally
// reversed.
func scriptOrder(pods int, a byte) []int {
	order := make([]int, pods)
	for i := range order {
		order[i] = (i + int(a&0x7f)) % pods
	}
	if a&0x80 != 0 {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	return order
}

// TestClusterAggregatesMatchOracle interleaves random SWIM-like
// submissions with steps, active-set changes, wake-ups and placement
// changes on random pod layouts, and checks every aggregate against the
// full-scan reference, task and job conservation, power-cycle counts
// and energy = Σ ITPower·dt after every operation.
func TestClusterAggregatesMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 600)
		rng.Read(script)
		sizes, ops := scriptPods(script)
		o := newOracle(t, sizes)
		o.run(ops)
		if len(o.c.Completed()) == 0 {
			t.Errorf("seed %d: no job completed", seed)
		}
	}
}

// TestClusterOracleFacebookDay replays one Facebook trace day on the
// paper's 64-server layout while the active target follows demand, as
// CoolAir's Compute Configurer does every ten minutes.
func TestClusterOracleFacebookDay(t *testing.T) {
	if testing.Short() {
		t.Skip("full-day trace in short mode")
	}
	o := newOracle(t, []int{16, 16, 16, 16})
	o.setPlacementOrder([]int{2, 0, 3, 1})
	tr := workload.Facebook(64, 7)
	next := 0
	for step := 0; step < 2880; step++ {
		now := float64(step) * 30
		for next < len(tr.Jobs) && tr.Jobs[next].Arrival <= now {
			o.submit(tr.Jobs[next])
			next++
		}
		if step%20 == 0 {
			want := (o.c.SlotDemand() + SlotsPerServer - 1) / SlotsPerServer
			if want > len(o.c.Servers) {
				want = len(o.c.Servers)
			}
			o.setActiveTarget(want)
		}
		o.step(30)
	}
	o.drain(30, 100_000)
}

// FuzzClusterAggregates runs arbitrary operation scripts (see
// oracle.run) through the oracle. The checked-in corpus covers map-only
// jobs, zero-duration reduces, one-server pods, and jobs that finish
// while their server is decommissioned.
func FuzzClusterAggregates(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512] // bounds the drain on a one-server pod
		}
		sizes, ops := scriptPods(script)
		newOracle(t, sizes).run(ops)
	})
}
