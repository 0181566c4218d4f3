package model

import (
	"fmt"
	"sort"

	"coolair/internal/cooling"
	"coolair/internal/mlearn"
	"coolair/internal/units"
)

// numTransitions counts the (From, To) transition slots of a model
// table: four cooling modes give sixteen.
const numTransitions = cooling.NumModes * cooling.NumModes

// Model is the learned Cooling Model: per-(transition, pod) temperature
// regressions, per-transition humidity regressions, a per-mode cooling
// power model, and the recirculation ranking of pods. Each transition
// table holds one slot per (From, To) pair, indexed by slot(); a nil
// slot has no fitted model.
type Model struct {
	pods int
	temp [numTransitions][]mlearn.Regressor
	hum  [numTransitions]mlearn.Regressor
	// hTemp/hHum are the direct 10-minute horizon models (see
	// horizon.go).
	hTemp [numTransitions][]mlearn.Regressor
	hHum  [numTransitions]mlearn.Regressor
	power [cooling.NumModes]mlearn.Regressor
	// recircRank lists pod indices from lowest to highest observed
	// recirculation potential.
	recircRank []int
}

// slot returns tr's index in a transition table, From*NumModes+To, so
// index order is (From, To) order. ok is false when either mode is
// invalid.
func slot(tr cooling.Transition) (i int, ok bool) {
	if !tr.From.Valid() || !tr.To.Valid() {
		return 0, false
	}
	return int(tr.From)*cooling.NumModes + int(tr.To), true
}

// transition selects the model for the interval in which the plant goes
// from mode cur to mode next, prev being the mode of the interval
// before. An interval counts as steady only when the mode has been
// unchanged since the previous interval too: the first two intervals
// after a regime change belong to the transition model. Without this,
// post-transition transients contaminate the steady models and the
// chained predictor extrapolates them (e.g. "AC-fan mixing keeps
// cooling forever"). Training labels and every prediction use it.
func transition(prev, cur, next cooling.Mode) cooling.Transition {
	if next != cur {
		return cooling.Transition{From: cur, To: next}
	}
	if cur != prev {
		return cooling.Transition{From: prev, To: next}
	}
	return cooling.Transition{From: next, To: next}
}

// resolve looks tr up in a transition table along the fallback ladder:
// the exact transition, then the target mode's steady model, then, when
// anySlot is set, the first filled slot in index order (the smallest
// (From, To)). filled reports whether a slot holds a model; ok is false
// when no rung matches.
func resolve[T any](tab *[numTransitions]T, filled func(T) bool, tr cooling.Transition, anySlot bool) (v T, ok bool) {
	if i, valid := slot(tr); valid && filled(tab[i]) {
		return tab[i], true
	}
	if i, valid := slot(cooling.Transition{From: tr.To, To: tr.To}); valid && filled(tab[i]) {
		return tab[i], true
	}
	if anySlot {
		for _, v := range tab {
			if filled(v) {
				return v, true
			}
		}
	}
	return v, false
}

// hasPods and hasModel are resolve's filled predicates for per-pod and
// scalar tables.
func hasPods(rs []mlearn.Regressor) bool { return rs != nil }
func hasModel(r mlearn.Regressor) bool   { return r != nil }

// LearnerOptions tunes model fitting.
type LearnerOptions struct {
	// MinRows is the minimum training rows to fit a group-specific
	// model; sparser groups fall back at prediction time. Default 40.
	MinRows int
	// Seed makes LMS subsampling and cross-validation deterministic.
	Seed int64
}

func (o LearnerOptions) withDefaults() LearnerOptions {
	if o.MinRows <= 0 {
		o.MinRows = 40
	}
	return o
}

// trainingGroup holds one transition's training rows: per-pod
// temperature rows and the humidity rows.
type trainingGroup struct {
	tempX [][][]float64
	tempY [][]float64
	humX  [][]float64
	humY  []float64
}

// trainingGroups collects rows per transition slot.
type trainingGroups [numTransitions]*trainingGroup

// add appends the rows predicting target from (prev, cur) under the
// applied fan and compressor speeds to tr's group. A transition with an
// invalid mode has no slot, so its rows are dropped.
func (gs *trainingGroups) add(tr cooling.Transition, prev, cur, target Snapshot, fan, comp float64) {
	i, ok := slot(tr)
	if !ok {
		return
	}
	pods := len(target.PodTemp)
	g := gs[i]
	if g == nil {
		g = &trainingGroup{tempX: make([][][]float64, pods), tempY: make([][]float64, pods)}
		gs[i] = g
	}
	for p := 0; p < pods; p++ {
		g.tempX[p] = append(g.tempX[p], tempFeatures(prev, cur, fan, comp, p))
		g.tempY[p] = append(g.tempY[p], float64(target.PodTemp[p]))
	}
	g.humX = append(g.humX, humFeatures(cur, fan, comp))
	g.humY = append(g.humY, target.InsideAbs.GramsPerKg())
}

// fitGroups fits every group with at least opts.MinRows rows into the
// temp and hum tables and returns how many got temperature models. The
// paper tries linear and least-median-square fits and keeps the better;
// we cross-validate the same pair. Pod p's fit is seeded
// opts.Seed+seed+p and the humidity fit opts.Seed+seed+101.
func fitGroups(gs *trainingGroups, opts LearnerOptions, seed int64, temp *[numTransitions][]mlearn.Regressor, hum *[numTransitions]mlearn.Regressor) (fitted int) {
	cands := []mlearn.Fitter{
		mlearn.OLSFitter(1e-6),
		mlearn.LMSFitter(40, opts.Seed),
	}
	for i, g := range gs {
		if g == nil || len(g.humX) < opts.MinRows {
			continue
		}
		perPod := make([]mlearn.Regressor, len(g.tempX))
		for p := range perPod {
			reg, _, err := mlearn.SelectBest(cands, g.tempX[p], g.tempY[p], 4, opts.Seed+seed+int64(p))
			if err != nil {
				perPod = nil
				break
			}
			perPod[p] = reg
		}
		if perPod != nil {
			temp[i] = perPod
			fitted++
		}
		if hreg, _, err := mlearn.SelectBest(cands, g.humX, g.humY, 4, opts.Seed+seed+101); err == nil {
			hum[i] = hreg
		}
	}
	return fitted
}

// Fit learns the Cooling Model from the logged campaign. It requires at
// least a few hours of data (the paper collected 1.5 months, seeding it
// with deliberately extreme setpoint changes to cover the regime space).
func Fit(l *Logger, opts LearnerOptions) (*Model, error) {
	opts = opts.withDefaults()
	snaps := l.snaps
	if len(snaps) < opts.MinRows+2 {
		return nil, fmt.Errorf("model: only %d snapshots, need at least %d", len(snaps), opts.MinRows+2)
	}
	m := &Model{pods: l.pods}

	var groups trainingGroups
	var powX [cooling.NumModes][][]float64
	var powY [cooling.NumModes][]float64
	for i := 1; i+1 < len(snaps); i++ {
		prev, cur, next := snaps[i-1], snaps[i], snaps[i+1]
		groups.add(transition(prev.Mode, cur.Mode, next.Mode), prev, cur, next, next.FanSpeed, next.CompSpeed)
		if next.Mode.Valid() {
			powX[next.Mode] = append(powX[next.Mode], powerFeatures(next.FanSpeed, next.CompSpeed))
			powY[next.Mode] = append(powY[next.Mode], float64(next.CoolingPower))
		}
	}
	if fitGroups(&groups, opts, 0, &m.temp, &m.hum) == 0 {
		return nil, fmt.Errorf("model: no transition had %d+ rows", opts.MinRows)
	}

	// Power model: piecewise-linear in speed (the paper uses M5P for
	// the cubic fan law).
	for mode, X := range powX {
		if len(X) == 0 || len(X) < opts.MinRows/2 {
			continue
		}
		tree, err := mlearn.FitModelTree(X, powY[mode], mlearn.TreeOptions{MaxDepth: 3})
		if err == nil {
			m.power[mode] = tree
		}
	}

	m.fitHorizon(snaps, opts)
	m.recircRank = rankByRecirc(snaps, l.pods)
	return m, nil
}

// rankByRecirc orders pods from lowest to highest recirculation
// potential, implementing the Modeler's "observing changes in inlet
// temperature when load is scheduled on each pod" (§3.3): for each pod,
// regress its inlet elevation (above the coolest pod) on its own load
// and rank by the slope. Pods whose inlets react most to their own load
// are the ones bathed in recirculated air. Only quasi-steady samples
// are used — transients make lagging pods look spuriously cool.
func rankByRecirc(snaps []Snapshot, pods int) []int {
	sumX := make([]float64, pods)
	sumY := make([]float64, pods)
	sumXY := make([]float64, pods)
	sumXX := make([]float64, pods)
	n := 0.0
	for i := 2; i < len(snaps); i++ {
		s := snaps[i]
		if s.Mode != snaps[i-1].Mode || s.Mode != snaps[i-2].Mode {
			continue
		}
		if len(s.PodPower) != pods {
			continue
		}
		min := s.PodTemp[0]
		for _, v := range s.PodTemp[1:] {
			if v < min {
				min = v
			}
		}
		for p := 0; p < pods; p++ {
			x := float64(s.PodPower[p])
			y := float64(s.PodTemp[p] - min)
			sumX[p] += x
			sumY[p] += y
			sumXY[p] += x * y
			sumXX[p] += x * x
		}
		n++
	}
	slope := make([]float64, pods)
	for p := 0; p < pods; p++ {
		den := n*sumXX[p] - sumX[p]*sumX[p]
		if den > 1e-9 {
			slope[p] = (n*sumXY[p] - sumX[p]*sumY[p]) / den
		}
	}
	rank := make([]int, pods)
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool { return slope[rank[a]] < slope[rank[b]] })
	return rank
}

// Pods returns the pod count the model was trained for.
func (m *Model) Pods() int { return m.pods }

// PodsByRecirc returns pod indices ordered from lowest to highest
// recirculation potential.
func (m *Model) PodsByRecirc() []int {
	return append([]int(nil), m.recircRank...)
}

// PredictPowerBuf estimates the plant's electrical draw under the given
// effective command. buf is a caller-owned feature scratch (its contents
// are overwritten; nil allocates): the optimizer evaluates power once
// per schedule step per candidate, so this keeps the per-period decision
// free of feature-vector garbage. An unmodeled or invalid mode, or a
// malformed feature vector, yields 0: the power term then simply drops
// out of the candidate comparison instead of crashing the optimizer.
func (m *Model) PredictPowerBuf(buf []float64, cmd cooling.Command) units.Watts {
	if !cmd.Mode.Valid() {
		return 0
	}
	reg := m.power[cmd.Mode]
	if reg == nil {
		return 0
	}
	w, err := mlearn.PredictChecked(reg, powerFeaturesInto(buf[:0], cmd.FanSpeed, cmd.CompressorSpeed))
	if err != nil || w < 0 {
		w = 0
	}
	return units.Watts(w)
}
