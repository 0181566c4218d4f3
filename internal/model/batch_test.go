package model

import (
	"math"
	"testing"

	"coolair/internal/cooling"
	"coolair/internal/mlearn"
	"coolair/internal/units"
)

// batchSteps is the optimizer-window length used by the equivalence
// tests (the production path uses 5 model steps per 10-minute period).
const batchSteps = 5

// batchCandidates builds a mixed candidate set over the model's trained
// regimes: steady candidates, mode changes (direct horizon fits where
// available, chained fallback where not), and one invalid mode, which
// has no direct model and so chains on the "any model" fallback.
func batchCandidates(steps int) []cooling.Command {
	specs := []cooling.Command{
		{Mode: cooling.ModeClosed},
		{Mode: cooling.ModeFreeCooling, FanSpeed: 0.15},
		{Mode: cooling.ModeFreeCooling, FanSpeed: 0.6},
		{Mode: cooling.ModeFreeCooling, FanSpeed: 1},
		{Mode: cooling.ModeACFan},
		{Mode: cooling.ModeACCool, CompressorSpeed: 1},
		{Mode: cooling.Mode(97)}, // invalid: chains on the "any model" fallback
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

// oracleWindow is the naive reference for PredictWindowBatch: one
// candidate at a time, fresh allocations, and every rule spelled out
// inline. It reports whether the candidate took the direct horizon
// model (true) or the chained fallback.
func oracleWindow(m *Model, start PredictorState, sched []cooling.Command) ([]PredictorState, bool, error) {
	steps := len(sched)
	mode := sched[0].Mode

	// The plant adopts the commanded mode on the first step. The
	// interval is labelled a transition from the start mode when that
	// differs, from the previous mode when the start is itself the first
	// interval after a change, and steady otherwise.
	from := mode
	if mode != start.Mode {
		from = start.Mode
	} else if start.Mode != start.PrevMode {
		from = start.PrevMode
	}
	// Direct models: the exact transition, else the target's steady one.
	var temp []mlearn.Regressor
	var hum mlearn.Regressor
	for _, f := range []cooling.Mode{from, mode} {
		if !f.Valid() || !mode.Valid() {
			continue
		}
		i := int(f)*cooling.NumModes + int(mode)
		if temp == nil {
			temp = m.hTemp[i]
		}
		if hum == nil {
			hum = m.hHum[i]
		}
	}
	if temp == nil {
		states, err := m.Predict(start, sched, nil)
		return states, false, err
	}

	var fanSum, compSum float64
	for _, c := range sched {
		fanSum += c.FanSpeed
		compSum += c.CompressorSpeed
	}
	fanAvg := fanSum / float64(steps)
	compAvg := compSum / float64(steps)

	prev := Snapshot{PodTemp: start.PodTempPrev, OutsideTemp: start.OutsideTempPrev}
	cur := Snapshot{
		PodTemp: start.PodTemp, OutsideTemp: start.OutsideTemp,
		FanSpeed: start.FanSpeed, CompSpeed: start.CompSpeed,
		Utilization: start.Utilization, ITLoad: start.ITLoad,
		InsideAbs: start.InsideAbs, OutsideAbs: start.OutsideAbs,
	}
	end := PredictorState{
		PodTemp:         make([]units.Celsius, m.pods),
		PodTempPrev:     append([]units.Celsius(nil), start.PodTemp...),
		InsideAbs:       start.InsideAbs,
		OutsideTemp:     start.OutsideTemp,
		OutsideTempPrev: start.OutsideTemp,
		OutsideAbs:      start.OutsideAbs,
		Utilization:     start.Utilization,
		ITLoad:          start.ITLoad,
		Mode:            mode,
		PrevMode:        start.Mode,
		FanSpeed:        sched[steps-1].FanSpeed,
		CompSpeed:       sched[steps-1].CompressorSpeed,
	}
	for p := range end.PodTemp {
		y, err := mlearn.PredictChecked(temp[p], tempFeatures(prev, cur, fanAvg, compAvg, p))
		if err != nil {
			return nil, true, err
		}
		end.PodTemp[p] = units.Celsius(y)
	}
	if hum != nil {
		g, err := mlearn.PredictChecked(hum, humFeatures(cur, fanAvg, compAvg))
		if err != nil {
			return nil, true, err
		}
		if g < 0 {
			g = 0
		}
		end.InsideAbs = units.AbsHumidity(g / 1000)
	}

	// The path is the straight line from the start to the end state.
	states := make([]PredictorState, steps)
	for k := 0; k < steps-1; k++ {
		f := float64(k+1) / float64(steps)
		lerp := func(a, b float64) float64 { return a + (b-a)*f }
		st := PredictorState{
			PodTemp:     make([]units.Celsius, m.pods),
			InsideAbs:   units.AbsHumidity(lerp(float64(start.InsideAbs), float64(end.InsideAbs))),
			OutsideTemp: start.OutsideTemp,
			Utilization: start.Utilization,
			ITLoad:      start.ITLoad,
			Mode:        mode,
		}
		for p := range st.PodTemp {
			st.PodTemp[p] = units.Celsius(lerp(float64(start.PodTemp[p]), float64(end.PodTemp[p])))
		}
		states[k] = st
	}
	states[steps-1] = end
	return states, true, nil
}

// requireSameWindow asserts bit-for-bit equality of every state field.
// Float comparisons go through Float64bits: the contract is exact bits,
// not tolerance.
func requireSameWindow(t *testing.T, cand int, want, got []PredictorState) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("candidate %d: window length %d vs %d", cand, len(want), len(got))
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	sameTemps := func(a, b []units.Celsius) bool {
		if len(a) != len(b) {
			return false
		}
		for p := range a {
			if bits(float64(a[p])) != bits(float64(b[p])) {
				return false
			}
		}
		return true
	}
	for k := range want {
		w, g := want[k], got[k]
		if !sameTemps(w.PodTemp, g.PodTemp) {
			t.Fatalf("candidate %d step %d: PodTemp oracle %v batch %v", cand, k, w.PodTemp, g.PodTemp)
		}
		if !sameTemps(w.PodTempPrev, g.PodTempPrev) {
			t.Fatalf("candidate %d step %d: PodTempPrev oracle %v batch %v", cand, k, w.PodTempPrev, g.PodTempPrev)
		}
		if bits(float64(w.InsideAbs)) != bits(float64(g.InsideAbs)) {
			t.Fatalf("candidate %d step %d: InsideAbs %v vs %v", cand, k, w.InsideAbs, g.InsideAbs)
		}
		if w.Mode != g.Mode || w.PrevMode != g.PrevMode || bits(w.FanSpeed) != bits(g.FanSpeed) || bits(w.CompSpeed) != bits(g.CompSpeed) {
			t.Fatalf("candidate %d step %d: command fields differ", cand, k)
		}
		if bits(float64(w.OutsideTemp)) != bits(float64(g.OutsideTemp)) ||
			bits(float64(w.OutsideTempPrev)) != bits(float64(g.OutsideTempPrev)) ||
			bits(float64(w.OutsideAbs)) != bits(float64(g.OutsideAbs)) ||
			bits(w.Utilization) != bits(g.Utilization) || bits(w.ITLoad) != bits(g.ITLoad) {
			t.Fatalf("candidate %d step %d: carried fields differ", cand, k)
		}
	}
}

// TestPredictWindowBatchMatchesSerial is the core metamorphic property
// of the window predictor: for every candidate, PredictWindowBatch
// produces exactly the naive oracle's window — bit for bit — and fails
// exactly where the oracle errors. The candidates cover steady modes,
// ramped schedules, mode changes, starts right after a mode change, and
// an invalid mode; a model copy without direct fits for two modes forces
// the chained fallback. It
// also pins that a reused scratch leaks nothing between batches: a
// second, different batch through the same scratch must match its own
// oracle, and the first batch must then reproduce exactly.
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

	// chained has no direct models into free cooling or AC-cool.
	chained := *m
	for from := cooling.Mode(0); int(from) < cooling.NumModes; from++ {
		for _, to := range []cooling.Mode{cooling.ModeFreeCooling, cooling.ModeACCool} {
			i := int(from)*cooling.NumModes + int(to)
			chained.hTemp[i], chained.hHum[i] = nil, nil
		}
	}

	var sc BatchScratch
	paths := map[bool]int{}
	check := func(pass string, m *Model, start PredictorState, arena []cooling.Command, skip []bool) {
		t.Helper()
		n := len(arena) / batchSteps
		if err := m.PredictWindowBatch(&sc, start, arena, batchSteps, skip); err != nil {
			t.Fatal(err)
		}
		if sc.Candidates() != n {
			t.Fatalf("%s: Candidates() = %d, want %d", pass, sc.Candidates(), n)
		}
		for i := 0; i < n; i++ {
			if skip[i] {
				continue
			}
			w, direct, err := oracleWindow(m, start, arena[i*batchSteps:(i+1)*batchSteps])
			if sc.Failed(i) != (err != nil) {
				t.Fatalf("%s: candidate %d: batch failed=%v, oracle err=%v", pass, i, sc.Failed(i), err)
			}
			if err == nil {
				requireSameWindow(t, i, w, sc.Rollout(i))
			}
			paths[direct]++
		}
	}
	check("fresh scratch", m, start, arena, make([]bool, len(arena)/batchSteps))
	check("second batch", m, other, otherArena, otherSkip)
	// A start that is itself the first interval after a mode change
	// labels steady candidates as transitions from the previous mode.
	for prev := cooling.Mode(0); int(prev) < cooling.NumModes; prev++ {
		if prev != other.Mode {
			changed := other
			changed.PrevMode = prev
			check("after a change from "+prev.String(), m, changed, arena, make([]bool, len(arena)/batchSteps))
		}
	}
	check("chained fallback", &chained, start, arena, make([]bool, len(arena)/batchSteps))
	check("first batch again", m, start, arena, make([]bool, len(arena)/batchSteps))
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("direct/chained candidates = %d/%d, want both paths exercised", paths[true], paths[false])
	}
}

// TestPredictWindowBatchSkipMask pins the skip contract: masked
// candidates are left unevaluated (not failed), and the unmasked ones
// still produce exactly the oracle's windows.
func TestPredictWindowBatchSkipMask(t *testing.T) {
	m, log := fitCampaign(t, 3, 1)
	snaps := log.Snapshots()
	start := StateFromSnapshots(snaps[50], snaps[51])

	arena := batchCandidates(batchSteps)
	n := len(arena) / batchSteps
	skip := make([]bool, n)
	skip[0], skip[3], skip[6] = true, true, true

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
		w, _, err := oracleWindow(m, start, arena[i*batchSteps:(i+1)*batchSteps])
		if err != nil {
			if !sc.Failed(i) {
				t.Fatalf("candidate %d: oracle errored, batch succeeded", i)
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
