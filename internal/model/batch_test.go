package model

import (
	"math"
	"testing"

	"coolair/internal/cooling"
	"coolair/internal/units"
)

// batchSteps is the optimizer-window length used by the equivalence
// tests (the production path uses 5 model steps per 10-minute period).
const batchSteps = 5

// batchCandidates builds a mixed candidate set over the model's trained
// regimes: steady candidates, mode changes (direct horizon fits where
// available, chained fallback where not), and one deliberately invalid
// mode that must fail on both paths.
func batchCandidates(steps int) []cooling.Command {
	specs := []cooling.Command{
		{Mode: cooling.ModeClosed},
		{Mode: cooling.ModeFreeCooling, FanSpeed: 0.15},
		{Mode: cooling.ModeFreeCooling, FanSpeed: 0.6},
		{Mode: cooling.ModeFreeCooling, FanSpeed: 1},
		{Mode: cooling.ModeACFan},
		{Mode: cooling.ModeACCool, CompressorSpeed: 1},
		{Mode: cooling.Mode(97)}, // invalid: both paths chain-fall-back identically
		{Mode: cooling.ModeACCool, CompressorSpeed: 0.5},
	}
	arena := make([]cooling.Command, 0, len(specs)*steps)
	for _, c := range specs {
		for k := 0; k < steps; k++ {
			step := c
			if c.Mode == cooling.ModeFreeCooling {
				// Ramped fan schedules exercise the fanAvg feature.
				step.FanSpeed = c.FanSpeed * float64(k+1) / float64(steps)
			}
			arena = append(arena, step)
		}
	}
	return arena
}

// copyWindow deep-copies a scratch-backed prediction window so the
// scratch can be reused for the next candidate.
func copyWindow(w []PredictorState) []PredictorState {
	out := make([]PredictorState, len(w))
	for i, st := range w {
		out[i] = st
		out[i].PodTemp = append([]units.Celsius(nil), st.PodTemp...)
		out[i].PodTempPrev = append([]units.Celsius(nil), st.PodTempPrev...)
	}
	return out
}

// requireSameWindow asserts bit-for-bit equality of the fields the
// utility function consumes. Float comparisons go through Float64bits:
// the contract is exact bits, not tolerance.
func requireSameWindow(t *testing.T, cand int, serial, batch []PredictorState) {
	t.Helper()
	if len(serial) != len(batch) {
		t.Fatalf("candidate %d: window length %d vs %d", cand, len(serial), len(batch))
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for k := range serial {
		s, b := serial[k], batch[k]
		if len(s.PodTemp) != len(b.PodTemp) {
			t.Fatalf("candidate %d step %d: pod count %d vs %d", cand, k, len(s.PodTemp), len(b.PodTemp))
		}
		for p := range s.PodTemp {
			if bits(float64(s.PodTemp[p])) != bits(float64(b.PodTemp[p])) {
				t.Fatalf("candidate %d step %d pod %d: serial %v batch %v",
					cand, k, p, s.PodTemp[p], b.PodTemp[p])
			}
		}
		if bits(float64(s.InsideAbs)) != bits(float64(b.InsideAbs)) {
			t.Fatalf("candidate %d step %d: InsideAbs %v vs %v", cand, k, s.InsideAbs, b.InsideAbs)
		}
		if s.Mode != b.Mode || bits(s.FanSpeed) != bits(b.FanSpeed) || bits(s.CompSpeed) != bits(b.CompSpeed) {
			t.Fatalf("candidate %d step %d: command fields differ", cand, k)
		}
		if bits(float64(s.OutsideTemp)) != bits(float64(b.OutsideTemp)) ||
			bits(s.Utilization) != bits(b.Utilization) || bits(s.ITLoad) != bits(b.ITLoad) {
			t.Fatalf("candidate %d step %d: carried fields differ", cand, k)
		}
	}
}

// TestPredictWindowBatchMatchesSerial is the core metamorphic property
// of the batched evaluator: for every candidate, PredictWindowBatch
// produces exactly PredictWindowInto's window — bit for bit — and fails
// exactly where the serial call errors (direct horizon fits, chained
// fallbacks, and invalid modes alike). It also pins that a reused
// scratch leaks nothing between batches: a second, different batch
// through the same scratch must match its own serial reference, and
// the first batch must then reproduce exactly.
func TestPredictWindowBatchMatchesSerial(t *testing.T) {
	m, log := fitCampaign(t, 3, 1)
	snaps := log.Snapshots()
	start := StateFromSnapshots(snaps[50], snaps[51])
	arena := batchCandidates(batchSteps)

	// The second batch starts in another regime (so other transition
	// models resolve), has fewer candidates, and skips one.
	other := StateFromSnapshots(snaps[120], snaps[121])
	other.Mode, other.PrevMode = cooling.ModeFreeCooling, cooling.ModeFreeCooling
	otherArena := arena[2*batchSteps:]
	otherSkip := make([]bool, len(otherArena)/batchSteps)
	otherSkip[1] = true

	var psc PredictScratch
	var bsc BatchScratch
	check := func(pass string, start PredictorState, arena []cooling.Command, skip []bool) {
		t.Helper()
		n := len(arena) / batchSteps
		if err := m.PredictWindowBatch(&bsc, start, arena, batchSteps, skip); err != nil {
			t.Fatal(err)
		}
		if bsc.Candidates() != n {
			t.Fatalf("%s: Candidates() = %d, want %d", pass, bsc.Candidates(), n)
		}
		for i := 0; i < n; i++ {
			if skip[i] {
				continue
			}
			// Serial reference, one candidate at a time.
			w, err := m.PredictWindowInto(&psc, start, arena[i*batchSteps:(i+1)*batchSteps])
			if bsc.Failed(i) != (err != nil) {
				t.Fatalf("%s: candidate %d: batch failed=%v, serial err=%v", pass, i, bsc.Failed(i), err)
			}
			if err == nil {
				requireSameWindow(t, i, w, bsc.Rollout(i))
			}
		}
	}
	check("fresh scratch", start, arena, make([]bool, len(arena)/batchSteps))
	check("second batch", other, otherArena, otherSkip)
	check("first batch again", start, arena, make([]bool, len(arena)/batchSteps))
}

// TestPredictWindowBatchSkipMask pins the skip contract: masked
// candidates are left unevaluated (not failed), and the unmasked ones
// still produce exactly the serial windows.
func TestPredictWindowBatchSkipMask(t *testing.T) {
	m, log := fitCampaign(t, 3, 1)
	snaps := log.Snapshots()
	start := StateFromSnapshots(snaps[50], snaps[51])

	arena := batchCandidates(batchSteps)
	n := len(arena) / batchSteps
	skip := make([]bool, n)
	skip[0], skip[3], skip[6] = true, true, true

	var psc PredictScratch
	var sc BatchScratch
	if err := m.PredictWindowBatch(&sc, start, arena, batchSteps, skip); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if skip[i] {
			if sc.Failed(i) {
				t.Fatalf("skipped candidate %d reported failed", i)
			}
			continue
		}
		w, err := m.PredictWindowInto(&psc, start, arena[i*batchSteps:(i+1)*batchSteps])
		if err != nil {
			if !sc.Failed(i) {
				t.Fatalf("candidate %d: serial errored, batch succeeded", i)
			}
			continue
		}
		requireSameWindow(t, i, w, sc.Rollout(i))
	}
}

// TestPredictWindowBatchGeometryErrors pins the whole-batch error
// conditions (the misuse every serial call would have failed with).
func TestPredictWindowBatchGeometryErrors(t *testing.T) {
	m, log := fitCampaign(t, 2, 7)
	snaps := log.Snapshots()
	start := StateFromSnapshots(snaps[20], snaps[21])
	var sc BatchScratch
	arena := batchCandidates(batchSteps)

	if err := m.PredictWindowBatch(&sc, start, arena, 0, nil); err == nil {
		t.Error("zero steps should error")
	}
	if err := m.PredictWindowBatch(&sc, start, arena[:batchSteps+1], batchSteps, make([]bool, 2)); err == nil {
		t.Error("ragged arena should error")
	}
	if err := m.PredictWindowBatch(&sc, start, arena, batchSteps, make([]bool, 1)); err == nil {
		t.Error("short skip mask should error")
	}
	bad := start
	bad.PodTemp = bad.PodTemp[:2]
	if err := m.PredictWindowBatch(&sc, bad, arena, batchSteps, make([]bool, len(arena)/batchSteps)); err == nil {
		t.Error("pod-count mismatch should error")
	}
}
