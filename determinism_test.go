// Determinism guard for the optimizer hot path: the allocation-free
// decision loop must be behavior-preserving, so a full simulated day —
// model training, band selection, candidate scoring, physics — has to
// produce byte-identical results before and after any performance work.
// The golden digest in testdata/ is sim.Result.Digest of that day; the
// behaviour it pins dates from the original (allocating)
// implementation. See README "Performance".
package coolair_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"coolair"
	"coolair/internal/core"
	"coolair/internal/experiments"
	"coolair/internal/faults"
	"coolair/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden digests")

const goldenDigestPath = "testdata/golden_decision_digest.txt"

// runDecisionDay runs the canonical determinism scenario: one simulated
// day (day 150, Newark, Smooth-Sim, All-ND) with the recorded series on.
// rec, when non-nil, attaches a flight recorder to the run; inj, when
// non-nil, injects its fault plan.
func runDecisionDay(t testing.TB, l *experiments.Lab, rec coolair.TraceRecorder, inj *faults.Injector) *coolair.Result {
	t.Helper()
	m, err := l.Model(coolair.SmoothSim)
	if err != nil {
		t.Fatal(err)
	}
	env, err := coolair.NewEnv(coolair.Newark, coolair.SmoothSim)
	if err != nil {
		t.Fatal(err)
	}
	env.Model = m
	ca, err := core.New(core.VersionOptions(core.VersionAllND, core.DefaultBandConfig()),
		m, env.Forecast, env.Plant, env.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coolair.Run(env, ca, coolair.RunConfig{
		Days: []int{150}, Trace: l.Facebook(), RecordSeries: true, Recorder: rec, Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDecisionDeterminism runs the same day twice from fresh
// environments and requires bit-identical results, then compares the
// digest against the golden trace recorded before the allocation-free
// optimization. The golden comparison is restricted to amd64: Go's math
// routines (exp, log in the humidity conversions) carry per-architecture
// assembly whose last-ULP behavior may differ across ports, while runs
// on the same architecture are exactly reproducible.
func TestDecisionDeterminism(t *testing.T) {
	l := experiments.NewLab()
	first := runDecisionDay(t, l, nil, nil).Digest()
	second := runDecisionDay(t, l, nil, nil).Digest()
	if first != second {
		t.Fatalf("rerun produced a different trace:\n  first  %s\n  second %s", first, second)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestPath, []byte(first+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden digest updated: %s", first)
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is recorded on amd64; got %s (rerun identity still verified)", runtime.GOARCH)
	}
	want, err := os.ReadFile(goldenDigestPath)
	if err != nil {
		t.Fatalf("missing golden digest (run with -update to record): %v", err)
	}
	if got := first; got != strings.TrimSpace(string(want)) {
		t.Fatalf("trace diverged from the pre-optimization golden digest:\n  want %s\n  got  %s\n"+
			"the decision hot path must stay byte-identical; if a deliberate behavior change "+
			"is intended, rerun with -update and justify it in the commit", strings.TrimSpace(string(want)), got)
	}
}

// TestRestoredModelDeterminism pins the warm-boot contract: a model
// saved to the snapshot registry and restored by a second, fresh lab
// drives the canonical day to the exact digest a freshly trained model
// produces (on amd64, the same golden digest the determinism test
// guards). gob persists float64 bits exactly, so a registry hit is
// bit-identical to retraining — a restarted daemon that skips the
// campaign loses nothing.
func TestRestoredModelDeterminism(t *testing.T) {
	dir := t.TempDir()

	// First lab: no snapshot yet, so this trains and writes through.
	trainer := experiments.NewLab()
	reg, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	trainer.Store = reg
	res, err := trainer.ModelResult(context.Background(), coolair.SmoothSim)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored {
		t.Fatal("first lab restored a model from an empty registry")
	}
	trained := runDecisionDay(t, trainer, nil, nil).Digest()

	// Second lab: same key, fresh process state — must restore, not train.
	restorer := experiments.NewLab()
	reg2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	restorer.Store = reg2
	res2, err := restorer.ModelResult(context.Background(), coolair.SmoothSim)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Restored {
		t.Fatal("second lab trained despite a registry snapshot")
	}
	restored := runDecisionDay(t, restorer, nil, nil).Digest()

	if trained != restored {
		t.Fatalf("restored model diverged from the trained one:\n  trained  %s\n  restored %s", trained, restored)
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is recorded on amd64; got %s (trained/restored identity still verified)", runtime.GOARCH)
	}
	want, err := os.ReadFile(goldenDigestPath)
	if err != nil {
		t.Fatalf("missing golden digest (run TestDecisionDeterminism with -update to record): %v", err)
	}
	if restored != strings.TrimSpace(string(want)) {
		t.Fatalf("restored-model run diverged from the golden digest:\n  want %s\n  got  %s",
			strings.TrimSpace(string(want)), restored)
	}
}

// TestRecorderEquivalence pins that attaching a flight recorder is pure
// observation: the canonical day run with a ring recorder, with the
// explicit no-op recorder, and with no recorder at all must produce
// byte-identical results — and (on amd64) match the same golden digest
// the untraced determinism test guards. Recording mirrors the penalty
// accumulation into term buckets; any reordering of the float math would
// flip a tie-break somewhere in the 144 decisions and break this test.
func TestRecorderEquivalence(t *testing.T) {
	l := experiments.NewLab()
	ring := coolair.NewTraceRing(0, 0)
	traced := runDecisionDay(t, l, ring, nil).Digest()
	nop := runDecisionDay(t, l, coolair.NopRecorder{}, nil).Digest()
	bare := runDecisionDay(t, l, nil, nil).Digest()

	if traced != nop || nop != bare {
		t.Fatalf("recording changed the run:\n  ring %s\n  nop  %s\n  none %s", traced, nop, bare)
	}
	// The ring must actually have observed the run, or the equivalence is
	// vacuous: one decision per 10-minute period over the metered day plus
	// the warm-up, and one tick per model step over the metered day.
	if n := len(ring.Decisions()); n < 144 {
		t.Errorf("ring captured %d decisions, want >= 144", n)
	}
	if n := len(ring.Ticks()); n != 720 {
		t.Errorf("ring captured %d ticks, want 720", n)
	}
	if got := ring.Metrics().DecisionsTotal.Value(); got < 144 {
		t.Errorf("decisions_total = %d, want >= 144", got)
	}

	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is recorded on amd64; got %s (equivalence still verified)", runtime.GOARCH)
	}
	want, err := os.ReadFile(goldenDigestPath)
	if err != nil {
		t.Fatalf("missing golden digest (run TestDecisionDeterminism with -update to record): %v", err)
	}
	if traced != strings.TrimSpace(string(want)) {
		t.Fatalf("traced run diverged from the golden digest:\n  want %s\n  got  %s",
			strings.TrimSpace(string(want)), traced)
	}
}

// TestDecisionFaultPlanDeterminism pins determinism under an
// adversarial fault plan (spiking inlet sensors plus a stuck fan): the
// injector corrupts observations and actuations identically per step,
// so two faulted runs of the canonical day must match bit for bit
// through the degraded-candidate paths.
func TestDecisionFaultPlanDeterminism(t *testing.T) {
	day := 150 * 86400.0
	plan := faults.Plan{Seed: 9, Faults: []faults.Fault{
		{Kind: faults.SensorSpike, Target: faults.TargetPodInlet, Pod: faults.AllPods,
			Start: day + 2*3600, Duration: 8 * 3600, Magnitude: 3},
		{Kind: faults.FanStuck, Start: day + 6*3600, Duration: 6 * 3600, Magnitude: 0.15},
	}}
	l := experiments.NewLab()
	faulted := func() string {
		inj, err := faults.NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		return runDecisionDay(t, l, nil, inj).Digest()
	}
	first, second := faulted(), faulted()
	if first != second {
		t.Fatalf("faulted rerun produced a different trace:\n  first  %s\n  second %s", first, second)
	}
	// The plan must have actually perturbed the run, or the rerun
	// identity proves nothing beyond TestDecisionDeterminism: a faulted
	// day cannot match the clean (golden) digest.
	if clean := runDecisionDay(t, l, nil, nil).Digest(); first == clean {
		t.Fatal("fault plan left the run untouched; the determinism check is vacuous")
	}
}
