package model

import (
	"encoding/gob"
	"fmt"
	"io"

	"coolair/internal/cooling"
	"coolair/internal/mlearn"
)

// Model persistence: a datacenter trains its Cooling Model from months
// of monitoring (paper §6: "these sensors facilitate the creation of the
// corresponding CoolAir models over time, e.g. 6 months or 1 year"), so
// the fitted model must outlive the training process. Save/Load encode
// the learned regressors with encoding/gob.

// persistedModel is the serialization schema. It mirrors Model's dense
// tables, so encoding walks them in index order and Save writes the same
// bytes for the same model. Regressors are stored as tagged unions
// because the fitted type (Linear vs ModelTree) is chosen per group by
// cross-validation; the zero persistedRegressor marks an empty slot.
type persistedModel struct {
	Pods       int
	Temp       [numTransitions][]persistedRegressor
	Hum        [numTransitions]persistedRegressor
	HTemp      [numTransitions][]persistedRegressor
	HHum       [numTransitions]persistedRegressor
	Power      [cooling.NumModes]persistedRegressor
	RecircRank []int
}

type persistedRegressor struct {
	// Kind is "linear", "tree", or empty for no regressor.
	Kind   string
	Linear *mlearn.Linear
	Tree   *mlearn.ModelTree
}

func toPersisted(r mlearn.Regressor) (persistedRegressor, error) {
	switch v := r.(type) {
	case nil:
		return persistedRegressor{}, nil
	case *mlearn.Linear:
		return persistedRegressor{Kind: "linear", Linear: v}, nil
	case *mlearn.ModelTree:
		return persistedRegressor{Kind: "tree", Tree: v}, nil
	default:
		return persistedRegressor{}, fmt.Errorf("model: cannot persist regressor type %T", r)
	}
}

func (p persistedRegressor) restore() (mlearn.Regressor, error) {
	switch p.Kind {
	case "":
		return nil, nil
	case "linear":
		if p.Linear == nil {
			return nil, fmt.Errorf("model: corrupt linear regressor")
		}
		return p.Linear, nil
	case "tree":
		if p.Tree == nil {
			return nil, fmt.Errorf("model: corrupt tree regressor")
		}
		return p.Tree, nil
	default:
		return nil, fmt.Errorf("model: unknown regressor kind %q", p.Kind)
	}
}

// toPersistedPods converts one per-pod table; an empty slot stays nil.
func toPersistedPods(rs []mlearn.Regressor) ([]persistedRegressor, error) {
	if rs == nil {
		return nil, nil
	}
	out := make([]persistedRegressor, len(rs))
	for i, r := range rs {
		p, err := toPersisted(r)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// restorePods restores one per-pod table. An empty slot stays nil; a
// present table must hold exactly one regressor per pod, since the
// predictors index it by pod.
func restorePods(ps []persistedRegressor, pods int) ([]mlearn.Regressor, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	if len(ps) != pods {
		return nil, fmt.Errorf("model: per-pod table has %d regressors for %d pods", len(ps), pods)
	}
	out := make([]mlearn.Regressor, len(ps))
	for i, p := range ps {
		r, err := p.restore()
		if err != nil {
			return nil, err
		}
		if r == nil {
			return nil, fmt.Errorf("model: per-pod table misses pod %d", i)
		}
		out[i] = r
	}
	return out, nil
}

// Save writes the fitted model to w.
func (m *Model) Save(w io.Writer) error {
	pm := persistedModel{Pods: m.pods, RecircRank: m.recircRank}
	var err error
	for i := range m.temp {
		if pm.Temp[i], err = toPersistedPods(m.temp[i]); err != nil {
			return err
		}
		if pm.HTemp[i], err = toPersistedPods(m.hTemp[i]); err != nil {
			return err
		}
		if pm.Hum[i], err = toPersisted(m.hum[i]); err != nil {
			return err
		}
		if pm.HHum[i], err = toPersisted(m.hHum[i]); err != nil {
			return err
		}
	}
	for mode, r := range m.power {
		if pm.Power[mode], err = toPersisted(r); err != nil {
			return err
		}
	}
	return gob.NewEncoder(w).Encode(pm)
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var pm persistedModel
	if err := gob.NewDecoder(r).Decode(&pm); err != nil {
		return nil, fmt.Errorf("model: decode: %w", err)
	}
	if pm.Pods <= 0 {
		return nil, fmt.Errorf("model: corrupt model (pods=%d)", pm.Pods)
	}
	m := &Model{pods: pm.Pods, recircRank: pm.RecircRank}
	var err error
	fitted := false
	for i := range pm.Temp {
		if m.temp[i], err = restorePods(pm.Temp[i], pm.Pods); err != nil {
			return nil, err
		}
		if m.hTemp[i], err = restorePods(pm.HTemp[i], pm.Pods); err != nil {
			return nil, err
		}
		if m.hum[i], err = pm.Hum[i].restore(); err != nil {
			return nil, err
		}
		if m.hHum[i], err = pm.HHum[i].restore(); err != nil {
			return nil, err
		}
		fitted = fitted || m.temp[i] != nil
	}
	for mode, p := range pm.Power {
		if m.power[mode], err = p.restore(); err != nil {
			return nil, err
		}
	}
	if !fitted {
		return nil, fmt.Errorf("model: loaded model has no temperature regressors")
	}
	return m, nil
}
