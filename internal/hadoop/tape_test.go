package hadoop

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"coolair/internal/workload"
)

// reads is every count accessor of a cluster at one instant, floats
// kept as bits so that reflect.DeepEqual compares them bit for bit.
type reads struct {
	podPower, podDisk                     []uint64
	podActive                             []bool
	itPower, itLoad, utilization, energy  uint64
	maxIT, cycleRate, now                 uint64
	active, busy, demand, covering, npods int
}

func readAll(c *Cluster) reads {
	r := reads{
		itPower:     math.Float64bits(float64(c.ITPower())),
		itLoad:      math.Float64bits(c.ITLoad()),
		utilization: math.Float64bits(c.Utilization()),
		energy:      math.Float64bits(float64(c.ITEnergy())),
		maxIT:       math.Float64bits(float64(c.MaxITPower())),
		cycleRate:   math.Float64bits(c.MaxPowerCycleRate()),
		now:         math.Float64bits(c.Now()),
		active:      c.ActiveServers(),
		busy:        c.BusySlots(),
		demand:      c.SlotDemand(),
		covering:    c.CoveringSubsetSize(),
		npods:       c.Pods(),
		podActive:   c.PodActive(),
	}
	for _, w := range c.PodPowerInto(nil) {
		r.podPower = append(r.podPower, math.Float64bits(float64(w)))
	}
	for _, u := range c.PodDiskUtilInto(nil) {
		r.podDisk = append(r.podDisk, math.Float64bits(u))
	}
	return r
}

// applyOp runs one script operation as sim.Run would: a step accrues
// its energy after the cluster advances.
func applyOp(t testing.TB, c *Cluster, op scriptOp) {
	t.Helper()
	switch op.kind {
	case 's':
		c.Step(30)
		c.AccrueEnergy(30)
	case 'j':
		c.Submit(op.job)
	case 't':
		if err := c.SetActiveTarget(op.want); err != nil {
			t.Fatal(err)
		}
	case 'a':
		c.ActivateAll()
	default:
		if err := c.SetPlacementOrder(op.order); err != nil {
			t.Fatal(err)
		}
	}
}

// tapeScript decodes a fuzz script into a pod layout and an operation
// list, numbering the jobs and ending with the drain the aggregate
// oracle runs: every server wakes and the cluster steps until the live
// cluster has completed every job.
func tapeScript(t testing.TB, script []byte) ([]int, []scriptOp) {
	t.Helper()
	sizes, rest := scriptPods(script)
	probe, err := NewCluster(sizes)
	if err != nil {
		t.Fatal(err)
	}
	ops := scriptOps(len(sizes), len(probe.Servers), rest)
	for i := range ops {
		ops[i].job.ID = i + 1
	}
	ops = append(ops, scriptOp{kind: 'a'})
	for _, op := range ops {
		applyOp(t, probe, op)
	}
	for i := 0; probe.InFlightJobs() > 0; i++ {
		if i == 1_000_000 {
			t.Fatalf("%d jobs still in flight after %d drain steps", probe.InFlightJobs(), i)
		}
		probe.Step(30)
		ops = append(ops, scriptOp{kind: 's'})
	}
	return sizes, ops
}

// checkTapeReplay records ops on one fresh cluster and replays them on
// another, requiring every count accessor to read bit-identically after
// every operation, and the replay to end without divergence.
func checkTapeReplay(t testing.TB, sizes []int, ops []scriptOp) {
	t.Helper()
	rec, err := NewCluster(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(); err != nil {
		t.Fatal(err)
	}
	want := make([]reads, 0, len(ops)+1)
	want = append(want, readAll(rec))
	for _, op := range ops {
		applyOp(t, rec, op)
		want = append(want, readAll(rec))
	}
	tape, err := rec.EndTape()
	if err != nil {
		t.Fatal(err)
	}

	play, err := NewCluster(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := play.Replay(tape); err != nil {
		t.Fatal(err)
	}
	if got := readAll(play); !reflect.DeepEqual(got, want[0]) {
		t.Fatalf("fresh replay reads %+v, recording %+v", got, want[0])
	}
	for i, op := range ops {
		applyOp(t, play, op)
		if err := play.TapeErr(); err != nil {
			t.Fatalf("op %d (%c): %v", i, op.kind, err)
		}
		if got := readAll(play); !reflect.DeepEqual(got, want[i+1]) {
			t.Fatalf("after op %d (%c): replay reads\n  %+v\nrecording read\n  %+v", i, op.kind, got, want[i+1])
		}
	}
	if _, err := play.EndTape(); err != nil {
		t.Fatal(err)
	}
}

// aggregatesCorpus reads FuzzClusterAggregates' checked-in corpus.
func aggregatesCorpus(t testing.TB) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzClusterAggregates", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-[]byte corpus entry", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	if len(out) == 0 {
		t.Fatal("FuzzClusterAggregates corpus is empty")
	}
	return out
}

// FuzzClusterTape records arbitrary operation scripts (the aggregate
// oracle's script format, seeded with its corpus), replays them, and
// requires every count accessor to be bit-identical after every
// operation.
func FuzzClusterTape(f *testing.F) {
	for _, s := range aggregatesCorpus(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512] // bounds the drain on a one-server pod
		}
		sizes, ops := tapeScript(t, script)
		checkTapeReplay(t, sizes, ops)
	})
}

// facebookOps is one Facebook trace day as sim.Run drives a managed
// cluster: arrivals submitted at the physics step, and the active
// target resized from SlotDemand every ten minutes.
func facebookOps(tr *workload.Trace) []scriptOp {
	var ops []scriptOp
	next := 0
	for step := 0; step < 2880; step++ {
		for now := float64(step) * 30; next < len(tr.Jobs) && tr.Jobs[next].Arrival <= now; next++ {
			ops = append(ops, scriptOp{kind: 'j', job: tr.Jobs[next]})
		}
		if step%20 == 0 {
			ops = append(ops, scriptOp{kind: 'd'})
		}
		ops = append(ops, scriptOp{kind: 's'})
	}
	return ops
}

// runManaged applies facebookOps, sizing the active target from the
// cluster's own SlotDemand (as CoolAir's Compute Configurer does).
func runManaged(t testing.TB, c *Cluster, ops []scriptOp) {
	t.Helper()
	for _, op := range ops {
		if op.kind != 'd' {
			applyOp(t, c, op)
			continue
		}
		want := (c.SlotDemand()+SlotsPerServer-1)/SlotsPerServer + 3
		if want > len(c.Servers) {
			want = len(c.Servers)
		}
		if err := c.SetActiveTarget(want); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterTapeFacebookDay records a managed Facebook day and replays
// it: the demand-driven active target exercises frames, SlotDemand
// reads and power-cycle bumps together.
func TestClusterTapeFacebookDay(t *testing.T) {
	ops := facebookOps(workload.Facebook(64, 7))
	rec := newTestCluster(t)
	if err := rec.SetPlacementOrder([]int{3, 2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Record(); err != nil {
		t.Fatal(err)
	}
	runManaged(t, rec, ops)
	want := readAll(rec)
	tape, err := rec.EndTape()
	if err != nil {
		t.Fatal(err)
	}
	if rec.MaxPowerCycleRate() <= 0 {
		t.Fatal("the managed day slept no server; the power-cycle replay is untested")
	}

	play := newTestCluster(t)
	if err := play.SetPlacementOrder([]int{3, 2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := play.Replay(tape); err != nil {
		t.Fatal(err)
	}
	runManaged(t, play, ops)
	got := readAll(play)
	if _, err := play.EndTape(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay ends reading\n  %+v\nrecording ended reading\n  %+v", got, want)
	}
	t.Logf("tape: %d bytes for %d operations", tape.Bytes(), len(ops))
}

// recordedDay records a short managed run and returns its operations
// and tape.
func recordedDay(t *testing.T) ([]scriptOp, *Tape) {
	t.Helper()
	tr := workload.Facebook(64, 7)
	ops := facebookOps(tr)[:3000]
	c := newTestCluster(t)
	if err := c.Record(); err != nil {
		t.Fatal(err)
	}
	runManaged(t, c, ops)
	tape, err := c.EndTape()
	if err != nil {
		t.Fatal(err)
	}
	return ops, tape
}

// TestClusterTapeDivergence replays a tape under changed call sequences
// and requires each to end in a divergence error.
func TestClusterTapeDivergence(t *testing.T) {
	ops, tape := recordedDay(t)
	firstJob := -1
	for i, op := range ops {
		if op.kind == 'j' {
			firstJob = i
			break
		}
	}
	changedJob := append([]scriptOp(nil), ops...)
	changedJob[firstJob].job.MapDur++
	extraStep := append(append([]scriptOp(nil), ops[:firstJob]...), append([]scriptOp{{kind: 's'}}, ops[firstJob:]...)...)
	for _, tc := range []struct {
		name string
		ops  []scriptOp
	}{
		{"changed job", changedJob},
		{"extra step", extraStep},
		{"missing tail", ops[:len(ops)-1]},
		{"extra tail", append(append([]scriptOp(nil), ops...), scriptOp{kind: 's'})},
		{"demand read moved", append(append([]scriptOp(nil), ops...), scriptOp{kind: 'd'})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t)
			if err := c.Replay(tape); err != nil {
				t.Fatal(err)
			}
			runManaged(t, c, tc.ops)
			if _, err := c.EndTape(); err == nil {
				t.Fatal("replay under a changed call sequence ended without error")
			}
		})
	}

	// A diverged replay reports it mid-run too, on the first frame
	// after the changed call.
	c := newTestCluster(t)
	if err := c.Replay(tape); err != nil {
		t.Fatal(err)
	}
	runManaged(t, c, changedJob)
	if c.TapeErr() == nil {
		t.Error("TapeErr is nil after a changed call")
	}
	// A cluster that replayed a tape takes no further calls.
	same := newTestCluster(t)
	if err := same.Replay(tape); err != nil {
		t.Fatal(err)
	}
	runManaged(t, same, ops)
	if _, err := same.EndTape(); err != nil {
		t.Fatal(err)
	}
	same.Step(30)
	if same.TapeErr() == nil {
		t.Error("a call after the end of a replay was accepted")
	}
}

// TestClusterTapeNeedsFreshCluster covers the preconditions of Record
// and Replay: a fresh cluster, and for a replay the recording's layout.
func TestClusterTapeNeedsFreshCluster(t *testing.T) {
	_, tape := recordedDay(t)
	used := newTestCluster(t)
	used.Submit(workload.Job{ID: 1, Maps: 1, MapDur: 30})
	if err := used.Record(); err == nil {
		t.Error("Record accepted a cluster with a submitted job")
	}
	if err := used.Replay(tape); err == nil {
		t.Error("Replay accepted a cluster with a submitted job")
	}
	moved := newTestCluster(t)
	if err := moved.SetPlacementOrder([]int{1, 0, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := moved.Replay(tape); err == nil {
		t.Error("Replay accepted a cluster with another placement order")
	}
	big, err := NewCluster([]int{maxTapePod + 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := big.Record(); err == nil {
		t.Error("Record accepted a pod too large for a frame")
	}
	if _, err := newTestCluster(t).EndTape(); err == nil {
		t.Error("EndTape succeeded on a cluster with no tape")
	}
}
