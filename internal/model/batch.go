package model

import (
	"fmt"

	"coolair/internal/cooling"
	"coolair/internal/mlearn"
	"coolair/internal/units"
)

// Window prediction (DESIGN.md §11). The Cooling Optimizer scores ~14
// candidate regimes per period, and every one of them starts from the
// same observed state. PredictWindowBatch, the only window predictor,
// hoists everything candidate-independent out of the per-candidate
// loop — the state-only feature prefix, the humidity operands, and a
// per-mode model table resolved once per decision — and evaluates every
// candidate's rollout into one struct-of-arrays arena. The test suite
// checks it bit for bit against a naive one-candidate-at-a-time oracle,
// and the golden decision digest pins its float accumulation order.

// batchModeTable caches the models one cooling mode resolves to for the
// current decision. Within a decision every candidate sharing a mode
// shares a transition (the plant adopts the commanded mode on the first
// preview step, and the transition depends only on the start state and
// the candidate mode), so the fallback-ladder lookups collapse to one
// table fill per mode per decision.
type batchModeTable struct {
	set bool
	// direct: a direct 10-minute horizon model exists; otherwise the
	// candidate falls back to chained prediction.
	direct bool
	temp   []mlearn.Regressor
	hum    mlearn.Regressor
	// tempLin/humLin are non-nil fast paths when the resolved regressor
	// is a plain *mlearn.Linear (the common case): the dot product is
	// inlined in the identical accumulation order, skipping the
	// interface dispatch and defer-laden checked wrapper.
	tempLin []*mlearn.Linear
	humLin  *mlearn.Linear
}

func (t *batchModeTable) fill(m *Model, tr cooling.Transition) {
	t.set = true
	regs, ok := resolve(&m.hTemp, hasPods, tr, false)
	t.direct = ok
	if !ok {
		return
	}
	t.temp = regs
	if cap(t.tempLin) < len(regs) {
		t.tempLin = make([]*mlearn.Linear, len(regs))
	}
	t.tempLin = t.tempLin[:len(regs)]
	for p, r := range regs {
		lin, _ := r.(*mlearn.Linear)
		t.tempLin[p] = lin
	}
	t.hum, _ = resolve(&m.hHum, hasModel, tr, false)
	t.humLin, _ = t.hum.(*mlearn.Linear)
}

// BatchScratch holds the caller-owned struct-of-arrays buffers of one
// batched evaluation: a state arena and pod-temperature arena spanning
// every candidate's rollout, a per-candidate failure mask, the hoisted
// per-decision feature template, and the per-mode model tables. A
// BatchScratch must not be shared between concurrent PredictWindowBatch
// calls, and the rollouts it exposes are valid only until the next call
// with the same scratch. It never retains the caller's schedule or skip
// slices (the scratchretain analyzer checks *Batch functions for exactly
// that). The Model itself stays read-only and may be shared freely.
type BatchScratch struct {
	n, steps, pods int

	states []PredictorState
	temps  []units.Celsius
	failed []bool

	// start is a scratch-owned copy of the start state (so the
	// rollouts never alias caller memory), tmpl the per-pod
	// state-only feature prefix with the candidate-dependent slots
	// (fanAvg and its composites, compAvg) left to be patched, and
	// humIn/humOut the hoisted humidity operands.
	start         PredictorState
	tmpl          []float64
	humIn, humOut float64

	tables [cooling.NumModes]batchModeTable

	// feat is the per-candidate feature buffer.
	feat []float64
}

// Candidates returns how many candidates the last batch evaluated.
func (sc *BatchScratch) Candidates() int { return sc.n }

// Rollout returns candidate i's predicted window, one state per
// schedule step. It is meaningful only when Failed(i) is false, and
// valid until the next PredictWindowBatch call with this scratch.
func (sc *BatchScratch) Rollout(i int) []PredictorState {
	return sc.states[i*sc.steps : (i+1)*sc.steps]
}

// Failed reports whether candidate i's prediction failed (a malformed
// feature vector or no temperature model at all); the candidate then
// degrades out of scoring.
func (sc *BatchScratch) Failed(i int) bool { return sc.failed[i] }

func (sc *BatchScratch) resize(n, steps, pods int) {
	sc.n, sc.steps, sc.pods = n, steps, pods
	if cap(sc.states) < n*steps {
		sc.states = make([]PredictorState, n*steps)
	}
	sc.states = sc.states[:n*steps]
	if cap(sc.temps) < n*steps*pods {
		sc.temps = make([]units.Celsius, n*steps*pods)
	}
	sc.temps = sc.temps[:n*steps*pods]
	if cap(sc.failed) < n {
		sc.failed = make([]bool, n)
	}
	sc.failed = sc.failed[:n]
	for i := range sc.failed {
		sc.failed[i] = false
	}
	if cap(sc.tmpl) < pods*tempFeatureCount {
		sc.tmpl = make([]float64, pods*tempFeatureCount)
	}
	sc.tmpl = sc.tmpl[:pods*tempFeatureCount]
	if cap(sc.feat) < tempFeatureCount {
		sc.feat = make([]float64, tempFeatureCount)
	}
	sc.feat = sc.feat[:tempFeatureCount]
}

// PredictWindowBatch evaluates every candidate's optimizer window in
// one pass. scheds is the flat schedule arena: candidate i's effective
// command schedule is scheds[i*steps : (i+1)*steps]. Candidates with
// skip[i] set (e.g. a failed plant preview) are left unevaluated.
//
// A candidate whose transition has a direct 10-minute horizon model
// predicts the window's end state in one regression on the schedule's
// mean fan and compressor speeds; the intermediate states are
// interpolated between the start and that end, giving the utility
// function a path to score without chaining error. Otherwise the
// candidate falls back to chained 2-minute prediction (predictChain).
// Failures are reported per candidate via Failed rather than an error.
// The returned error covers only whole-batch misuse (geometry or
// pod-count mismatch).
func (m *Model) PredictWindowBatch(sc *BatchScratch, start PredictorState, scheds []cooling.Command, steps int, skip []bool) error {
	if steps <= 0 {
		return fmt.Errorf("model: empty schedule")
	}
	if len(scheds)%steps != 0 {
		return fmt.Errorf("model: schedule arena of %d commands is not a multiple of %d steps", len(scheds), steps)
	}
	n := len(scheds) / steps
	if len(skip) < n {
		return fmt.Errorf("model: skip mask has %d entries for %d candidates", len(skip), n)
	}
	if len(start.PodTemp) != m.pods {
		return fmt.Errorf("model: state has %d pods, model has %d", len(start.PodTemp), m.pods)
	}
	sc.resize(n, steps, m.pods)

	// Copy the start state into scratch-owned buffers: the rollouts must
	// not alias caller memory, and the copy also serves the hoisted
	// feature template below.
	sc.start.PodTemp = append(sc.start.PodTemp[:0], start.PodTemp...)
	sc.start.PodTempPrev = append(sc.start.PodTempPrev[:0], start.PodTempPrev...)
	sc.start.InsideAbs = start.InsideAbs
	sc.start.OutsideTemp = start.OutsideTemp
	sc.start.OutsideTempPrev = start.OutsideTempPrev
	sc.start.OutsideAbs = start.OutsideAbs
	sc.start.Utilization = start.Utilization
	sc.start.ITLoad = start.ITLoad
	sc.start.Mode = start.Mode
	sc.start.PrevMode = start.PrevMode
	sc.start.FanSpeed = start.FanSpeed
	sc.start.CompSpeed = start.CompSpeed

	// Hoist the state-only feature prefix (tempFeaturesInto's layout):
	// slots 4, 7, 8, 9 are candidate-dependent (fanAvg, fanAvg×podTemp,
	// fanAvg×outsideTemp, compAvg) and patched per candidate.
	for p := 0; p < m.pods; p++ {
		f := sc.tmpl[p*tempFeatureCount : (p+1)*tempFeatureCount]
		f[0] = float64(sc.start.PodTemp[p])
		f[1] = float64(sc.start.PodTempPrev[p])
		f[2] = float64(sc.start.OutsideTemp)
		f[3] = float64(sc.start.OutsideTempPrev)
		f[4] = 0
		f[5] = sc.start.FanSpeed
		f[6] = sc.start.Utilization
		f[7] = 0
		f[8] = 0
		f[9] = 0
		f[10] = sc.start.ITLoad
	}
	sc.humIn = sc.start.InsideAbs.GramsPerKg()
	sc.humOut = sc.start.OutsideAbs.GramsPerKg()

	// Resolve each mode's transition models once. Within one decision
	// the transition is a pure function of the candidate mode (the
	// plant adopts the commanded mode immediately; only speeds ramp).
	for i := range sc.tables {
		sc.tables[i].set = false
	}
	for i := 0; i < n; i++ {
		if skip[i] {
			continue
		}
		mode := scheds[i*steps].Mode
		if !mode.Valid() || sc.tables[mode].set {
			continue
		}
		sc.tables[mode].fill(m, transition(sc.start.PrevMode, sc.start.Mode, mode))
	}

	for i := 0; i < n; i++ {
		if skip[i] {
			continue
		}
		m.evalBatchCandidate(sc, scheds, steps, i)
	}
	return nil
}

// evalBatchCandidate evaluates candidate i into its arena slots. Any
// change to its float operations or their order breaks the golden
// decision digest.
func (m *Model) evalBatchCandidate(sc *BatchScratch, scheds []cooling.Command, steps, i int) {
	sched := scheds[i*steps : (i+1)*steps]
	states := sc.states[i*steps : (i+1)*steps]
	temps := sc.temps[i*steps*m.pods : (i+1)*steps*m.pods]
	feat := &sc.feat

	mode := sched[0].Mode
	var t *batchModeTable
	if mode.Valid() {
		t = &sc.tables[mode]
	}
	if t == nil || !t.set || !t.direct {
		// No direct horizon model: chained prediction.
		if err := m.predictChain(feat, states, temps, sc.start, sched, nil); err != nil {
			sc.failed[i] = true
		}
		return
	}

	var fanSum, compSum float64
	for _, c := range sched {
		fanSum += c.FanSpeed
		compSum += c.CompressorSpeed
	}
	fanAvg := fanSum / float64(len(sched))
	compAvg := compSum / float64(len(sched))

	end := PredictorState{
		PodTemp:         podChunk(temps, steps-1, m.pods),
		PodTempPrev:     sc.start.PodTemp,
		InsideAbs:       sc.start.InsideAbs,
		OutsideTemp:     sc.start.OutsideTemp,
		OutsideTempPrev: sc.start.OutsideTemp,
		OutsideAbs:      sc.start.OutsideAbs,
		Utilization:     sc.start.Utilization,
		ITLoad:          sc.start.ITLoad,
		Mode:            mode,
		PrevMode:        sc.start.Mode,
		FanSpeed:        sched[steps-1].FanSpeed,
		CompSpeed:       sched[steps-1].CompressorSpeed,
	}
	x := (*feat)[:tempFeatureCount]
	for p := 0; p < m.pods; p++ {
		copy(x, sc.tmpl[p*tempFeatureCount:(p+1)*tempFeatureCount])
		x[4] = fanAvg
		x[7] = fanAvg * x[0]
		x[8] = fanAvg * x[2]
		x[9] = compAvg
		var y float64
		if lin := t.tempLin[p]; lin != nil && len(lin.Coef) == tempFeatureCount {
			y = lin.Intercept
			for j, c := range lin.Coef {
				y += c * x[j]
			}
		} else {
			var err error
			y, err = mlearn.PredictChecked(t.temp[p], x)
			if err != nil {
				sc.failed[i] = true
				return
			}
		}
		end.PodTemp[p] = units.Celsius(y)
	}
	if t.hum != nil {
		h := (*feat)[:humFeatureCount]
		h[0] = sc.humIn
		h[1] = sc.humOut
		h[2] = fanAvg
		h[3] = fanAvg * sc.humIn
		h[4] = fanAvg * sc.humOut
		h[5] = compAvg
		var g float64
		if lin := t.humLin; lin != nil && len(lin.Coef) == humFeatureCount {
			g = lin.Intercept
			for j, c := range lin.Coef {
				g += c * h[j]
			}
		} else {
			var err error
			g, err = mlearn.PredictChecked(t.hum, h)
			if err != nil {
				sc.failed[i] = true
				return
			}
		}
		if g < 0 {
			g = 0
		}
		end.InsideAbs = units.AbsHumidity(g / 1000)
	}

	// Interpolate the path (the final state is the prediction itself).
	for k := 0; k < steps-1; k++ {
		f := float64(k+1) / float64(steps)
		st := PredictorState{
			PodTemp:     podChunk(temps, k, m.pods),
			InsideAbs:   units.AbsHumidity(units.Lerp(float64(sc.start.InsideAbs), float64(end.InsideAbs), f)),
			OutsideTemp: sc.start.OutsideTemp,
			Utilization: sc.start.Utilization,
			ITLoad:      sc.start.ITLoad,
			Mode:        mode,
		}
		for p := 0; p < m.pods; p++ {
			st.PodTemp[p] = units.Celsius(units.Lerp(float64(sc.start.PodTemp[p]), float64(end.PodTemp[p]), f))
		}
		states[k] = st
	}
	states[steps-1] = end
}
