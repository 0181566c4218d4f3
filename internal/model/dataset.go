// Package model implements CoolAir's Cooling Modeler (paper §3.1 and
// §4.2): it logs sensor snapshots during normal (or deliberately
// perturbed) operation, learns per-regime and per-transition linear
// models of each pod's inlet temperature and of the cold-aisle absolute
// humidity, learns a power model of the cooling plant, ranks pods by
// their heat-recirculation potential, and exposes a Predictor that
// chains the short-term models into the 10-minute horizons the Cooling
// Optimizer evaluates.
package model

import (
	"fmt"

	"coolair/internal/cooling"
	"coolair/internal/units"
)

// ModelStepSeconds is the native prediction step of the learned models
// (the paper validates 2-minute-ahead predictions and chains them for
// 10-minute horizons).
const ModelStepSeconds = 120

// Snapshot is one monitoring sample, taken every ModelStepSeconds.
// It contains exactly what Parasol's sensors expose.
type Snapshot struct {
	Time        float64
	Mode        cooling.Mode
	FanSpeed    float64
	CompSpeed   float64
	OutsideTemp units.Celsius
	OutsideAbs  units.AbsHumidity
	PodTemp     []units.Celsius
	InsideAbs   units.AbsHumidity
	Utilization float64
	// ITLoad is the IT power draw as a fraction of the cluster maximum.
	ITLoad float64
	// PodPower is per-pod IT power; the Modeler uses it to rank pods
	// by recirculation potential.
	PodPower []units.Watts
	// CoolingPower is the plant's electrical draw, for the power model.
	CoolingPower units.Watts
}

// Logger accumulates snapshots during the data-collection campaign.
type Logger struct {
	snaps []Snapshot
	pods  int
}

// NewLogger creates a logger for a datacenter with the given pod count.
func NewLogger(pods int) *Logger { return &Logger{pods: pods} }

// Record appends one snapshot. Snapshots must arrive in time order and
// with consistent pod counts.
func (l *Logger) Record(s Snapshot) error {
	if len(s.PodTemp) != l.pods {
		return fmt.Errorf("model: snapshot has %d pods, want %d", len(s.PodTemp), l.pods)
	}
	if n := len(l.snaps); n > 0 && s.Time <= l.snaps[n-1].Time {
		return fmt.Errorf("model: snapshot at %0.0f not after %0.0f", s.Time, l.snaps[n-1].Time)
	}
	l.snaps = append(l.snaps, s)
	return nil
}

// Len returns the number of recorded snapshots.
func (l *Logger) Len() int { return len(l.snaps) }

// Snapshots exposes the raw log (e.g. for held-out validation).
func (l *Logger) Snapshots() []Snapshot { return l.snaps }

// Append merges another campaign's snapshots after this one, re-basing
// their timestamps so the log stays monotonic. The paper's Modeler
// similarly concatenates monitoring from different operating periods;
// the single synthetic sample pair at the seam is noise the robust
// fitters tolerate.
func (l *Logger) Append(other *Logger) error {
	if other.pods != l.pods {
		return fmt.Errorf("model: appending %d-pod log to %d-pod log", other.pods, l.pods)
	}
	offset := 0.0
	if n := len(l.snaps); n > 0 {
		offset = l.snaps[n-1].Time + ModelStepSeconds
	}
	if len(other.snaps) > 0 {
		offset -= other.snaps[0].Time
	}
	for _, s := range other.snaps {
		s.Time += offset
		l.snaps = append(l.snaps, s)
	}
	return nil
}

// tempFeatures builds the temperature-model input vector for pod p —
// the paper's inputs: current and last inside temperature, current and
// last outside temperature, the fan speed applied over the predicted
// interval and the previous fan speed, current utilization, and the
// fan×temperature composites that let linear regression capture the
// bilinear mixing term. Compressor speed is appended for the
// variable-speed AC.
func tempFeatures(prev, cur Snapshot, fanApplied, compApplied float64, p int) []float64 {
	return tempFeaturesInto(make([]float64, 0, tempFeatureCount), prev, cur, fanApplied, compApplied, p)
}

// tempFeatureCount sizes scratch buffers for tempFeaturesInto.
const tempFeatureCount = 11

// tempFeaturesInto appends the temperature-feature vector to dst and
// returns it, letting hot paths reuse one buffer (pass dst[:0]) instead
// of allocating a fresh slice per pod per step per candidate.
func tempFeaturesInto(dst []float64, prev, cur Snapshot, fanApplied, compApplied float64, p int) []float64 {
	return append(dst,
		float64(cur.PodTemp[p]),
		float64(prev.PodTemp[p]),
		float64(cur.OutsideTemp),
		float64(prev.OutsideTemp),
		fanApplied,
		cur.FanSpeed,
		cur.Utilization,
		fanApplied*float64(cur.PodTemp[p]),
		fanApplied*float64(cur.OutsideTemp),
		compApplied,
		cur.ITLoad,
	)
}

// humFeatures builds the humidity-model input vector — the paper's
// inputs: current inside humidity, current outside humidity, fan speed,
// and the fan×humidity composites, plus compressor speed (condensation).
func humFeatures(cur Snapshot, fanApplied, compApplied float64) []float64 {
	return humFeaturesInto(make([]float64, 0, humFeatureCount), cur, fanApplied, compApplied)
}

// humFeatureCount sizes scratch buffers for humFeaturesInto.
const humFeatureCount = 6

// humFeaturesInto appends the humidity-feature vector to dst and returns
// it (see tempFeaturesInto for the buffer-reuse convention).
func humFeaturesInto(dst []float64, cur Snapshot, fanApplied, compApplied float64) []float64 {
	in := cur.InsideAbs.GramsPerKg()
	out := cur.OutsideAbs.GramsPerKg()
	return append(dst,
		in,
		out,
		fanApplied,
		fanApplied*in,
		fanApplied*out,
		compApplied,
	)
}

// powerFeatures builds the cooling-power-model input vector.
func powerFeatures(fan, comp float64) []float64 {
	return powerFeaturesInto(make([]float64, 0, 2), fan, comp)
}

// powerFeaturesInto appends the power-feature vector to dst.
func powerFeaturesInto(dst []float64, fan, comp float64) []float64 {
	return append(dst, fan, comp)
}
