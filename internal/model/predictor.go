package model

import (
	"fmt"

	"coolair/internal/cooling"
	"coolair/internal/mlearn"
	"coolair/internal/units"
)

// PredictorState is the rolling state the Cooling Predictor chains
// through successive 2-minute model applications (paper §3.2: "as the
// Cooling Model predicts temperatures for a short term, the Cooling
// Predictor has to use it repeatedly, each time passing the results of
// the previous use as input").
type PredictorState struct {
	PodTemp         []units.Celsius
	PodTempPrev     []units.Celsius
	InsideAbs       units.AbsHumidity
	OutsideTemp     units.Celsius
	OutsideTempPrev units.Celsius
	OutsideAbs      units.AbsHumidity
	Utilization     float64
	ITLoad          float64
	// Mode/FanSpeed/CompSpeed describe the plant state during the
	// interval that *ended* at this state; PrevMode is the mode of the
	// interval before that (transition bookkeeping).
	Mode      cooling.Mode
	PrevMode  cooling.Mode
	FanSpeed  float64
	CompSpeed float64
}

// StateFromSnapshots builds the predictor's starting state from the two
// most recent monitoring snapshots.
func StateFromSnapshots(prev, cur Snapshot) PredictorState {
	var st PredictorState
	StateFromSnapshotsInto(&st, prev, cur)
	return st
}

// StateFromSnapshotsInto rebuilds dst from the snapshot pair, reusing
// dst's pod-temperature buffers — the allocation-free form of
// StateFromSnapshots for the optimizer's per-period hot path.
func StateFromSnapshotsInto(dst *PredictorState, prev, cur Snapshot) {
	dst.PodTemp = append(dst.PodTemp[:0], cur.PodTemp...)
	dst.PodTempPrev = append(dst.PodTempPrev[:0], prev.PodTemp...)
	dst.InsideAbs = cur.InsideAbs
	dst.OutsideTemp = cur.OutsideTemp
	dst.OutsideTempPrev = prev.OutsideTemp
	dst.OutsideAbs = cur.OutsideAbs
	dst.Utilization = cur.Utilization
	dst.ITLoad = cur.ITLoad
	dst.Mode = cur.Mode
	dst.PrevMode = prev.Mode
	dst.FanSpeed = cur.FanSpeed
	dst.CompSpeed = cur.CompSpeed
}

// podChunk returns the i-th pod-temperature chunk of the arena, capped
// so appends cannot bleed into the next chunk.
func podChunk(temps []units.Celsius, i, pods int) []units.Celsius {
	return temps[i*pods : (i+1)*pods : (i+1)*pods]
}

// RelHumidity returns the predicted cold-aisle relative humidity of the
// state, converting the predicted absolute humidity at the coolest pod's
// temperature (the humidity sensor hangs in the cold aisle).
func (st PredictorState) RelHumidity() units.RelHumidity {
	if len(st.PodTemp) == 0 {
		return 0
	}
	min := st.PodTemp[0]
	for _, v := range st.PodTemp[1:] {
		if v < min {
			min = v
		}
	}
	return units.RelFromAbs(min, st.InsideAbs)
}

// Predict rolls the learned models forward through the given effective
// command schedule (one entry per ModelStep), returning the state after
// each step. outside, if non-nil, supplies the outside conditions at the
// end of each step; otherwise the current outside conditions are held
// constant (fine for 10-minute horizons).
func (m *Model) Predict(start PredictorState, schedule []cooling.Command, outside []Snapshot) ([]PredictorState, error) {
	if len(start.PodTemp) != m.pods {
		return nil, fmt.Errorf("model: state has %d pods, model has %d", len(start.PodTemp), m.pods)
	}
	if outside != nil && len(outside) < len(schedule) {
		return nil, fmt.Errorf("model: %d outside samples for %d steps", len(outside), len(schedule))
	}
	states := make([]PredictorState, len(schedule))
	temps := make([]units.Celsius, len(schedule)*m.pods)
	var feat []float64
	if err := m.predictChain(&feat, states, temps, start, schedule, outside); err != nil {
		return nil, err
	}
	return states, nil
}

// predictChain is the chained-prediction core shared by Predict and the
// batched window predictor's fallback: it rolls the per-step models
// through schedule, writing the resulting states into states and their
// pod temperatures into the temps arena (one pod-sized chunk per step).
// feat is the feature scratch, passed by pointer so growth is kept by
// the caller. The caller has already validated lengths.
func (m *Model) predictChain(feat *[]float64, states []PredictorState, temps []units.Celsius, start PredictorState, schedule []cooling.Command, outside []Snapshot) error {
	cur := start
	for i, cmd := range schedule {
		tr := transition(cur.PrevMode, cur.Mode, cmd.Mode)
		regs, ok := resolve(&m.temp, hasPods, tr, true)
		if !ok {
			return fmt.Errorf("model: no temperature model available")
		}

		// Synthesize the two pseudo-snapshots the feature builders
		// expect from the rolling state.
		prevSnap := Snapshot{
			PodTemp:     cur.PodTempPrev,
			OutsideTemp: cur.OutsideTempPrev,
			FanSpeed:    0, // unused by features
		}
		curSnap := Snapshot{
			PodTemp:     cur.PodTemp,
			OutsideTemp: cur.OutsideTemp,
			FanSpeed:    cur.FanSpeed,
			CompSpeed:   cur.CompSpeed,
			Utilization: cur.Utilization,
			ITLoad:      cur.ITLoad,
			InsideAbs:   cur.InsideAbs,
			OutsideAbs:  cur.OutsideAbs,
		}

		next := PredictorState{
			PodTemp:         podChunk(temps, i, m.pods),
			PodTempPrev:     cur.PodTemp,
			InsideAbs:       cur.InsideAbs,
			OutsideTemp:     cur.OutsideTemp,
			OutsideTempPrev: cur.OutsideTemp,
			OutsideAbs:      cur.OutsideAbs,
			Utilization:     cur.Utilization,
			ITLoad:          cur.ITLoad,
			Mode:            cmd.Mode,
			PrevMode:        cur.Mode,
			FanSpeed:        cmd.FanSpeed,
			CompSpeed:       cmd.CompressorSpeed,
		}
		if outside != nil {
			next.OutsideTemp = outside[i].OutsideTemp
			next.OutsideAbs = outside[i].OutsideAbs
		}

		for p := 0; p < m.pods; p++ {
			*feat = tempFeaturesInto((*feat)[:0], prevSnap, curSnap, cmd.FanSpeed, cmd.CompressorSpeed, p)
			y, err := mlearn.PredictChecked(regs[p], *feat)
			if err != nil {
				return fmt.Errorf("model: pod %d temperature: %w", p, err)
			}
			next.PodTemp[p] = units.Celsius(y)
		}
		if h, ok := resolve(&m.hum, hasModel, tr, true); ok {
			*feat = humFeaturesInto((*feat)[:0], curSnap, cmd.FanSpeed, cmd.CompressorSpeed)
			g, err := mlearn.PredictChecked(h, *feat)
			if err != nil {
				return fmt.Errorf("model: humidity: %w", err)
			}
			if g < 0 {
				g = 0
			}
			next.InsideAbs = units.AbsHumidity(g / 1000)
		}
		states[i] = next
		cur = next
	}
	return nil
}
