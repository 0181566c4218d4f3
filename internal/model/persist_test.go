package model

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"coolair/internal/cooling"
	"coolair/internal/mlearn"
)

// handModel builds a model that exercises every persisted shape: linear
// and tree regressors, both in per-pod slices and scalar slots, across
// all four transition tables plus the power table.
func handModel() *Model {
	lin := func(b float64) *mlearn.Linear {
		return &mlearn.Linear{Intercept: b, Coef: []float64{0.5, -0.25, b / 10}, TrainRMSE: 0.3, N: 100}
	}
	tree := func(b float64) *mlearn.ModelTree {
		return &mlearn.ModelTree{
			Feature:   1,
			Threshold: 20,
			Left:      &mlearn.ModelTree{Model: lin(b)},
			Right:     &mlearn.ModelTree{Model: lin(b + 1)},
		}
	}
	a, _ := slot(cooling.Transition{From: cooling.ModeClosed, To: cooling.ModeFreeCooling})
	b, _ := slot(cooling.Transition{From: cooling.ModeFreeCooling, To: cooling.ModeFreeCooling})
	m := &Model{pods: 2, recircRank: []int{1, 0}}
	m.temp[a] = []mlearn.Regressor{lin(1), tree(2)}
	m.temp[b] = []mlearn.Regressor{tree(3), lin(4)}
	m.hum[a] = lin(5)
	m.hum[b] = tree(6)
	m.hTemp[a] = []mlearn.Regressor{lin(7), lin(8)}
	m.hHum[a] = tree(9)
	m.power[cooling.ModeFreeCooling] = lin(10)
	m.power[cooling.ModeACCool] = tree(11)
	return m
}

// mapSchema is the persisted schema from before the dense tables: the
// same field names, with map-keyed transition and mode tables.
type mapSchema struct {
	Pods       int
	Temp       map[cooling.Transition][]persistedRegressor
	Hum        map[cooling.Transition]persistedRegressor
	HTemp      map[cooling.Transition][]persistedRegressor
	HHum       map[cooling.Transition]persistedRegressor
	Power      map[cooling.Mode]persistedRegressor
	RecircRank []int
}

// TestPersistRoundTripAllKinds: every regressor kind in every table
// survives Save/Load exactly (gob is bit-exact on float64s, so this is
// equality, not tolerance).
func TestPersistRoundTripAllKinds(t *testing.T) {
	m := handModel()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.pods != m.pods || !reflect.DeepEqual(got.recircRank, m.recircRank) {
		t.Fatalf("pods/recircRank: got %d/%v", got.pods, got.recircRank)
	}
	if !reflect.DeepEqual(got.temp, m.temp) {
		t.Fatalf("temp table did not round-trip:\n got %+v\nwant %+v", got.temp, m.temp)
	}
	if !reflect.DeepEqual(got.hum, m.hum) {
		t.Fatal("hum table did not round-trip")
	}
	if !reflect.DeepEqual(got.hTemp, m.hTemp) {
		t.Fatal("hTemp table did not round-trip")
	}
	if !reflect.DeepEqual(got.hHum, m.hHum) {
		t.Fatal("hHum table did not round-trip")
	}
	if !reflect.DeepEqual(got.power, m.power) {
		t.Fatal("power table did not round-trip")
	}
}

// TestLoadRejectsDamage: truncated streams, non-gob bytes, and
// semantically hollow payloads all error instead of yielding a partial
// model.
func TestLoadRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := handModel().Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, frac := range []int{4, 2} {
			if _, err := Load(bytes.NewReader(full[:len(full)/frac])); err == nil {
				t.Fatalf("loading %d/%d of the stream succeeded", 1, frac)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(nil)); err == nil {
			t.Fatal("loading an empty stream succeeded")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		if _, err := Load(strings.NewReader("not a gob stream at all")); err == nil {
			t.Fatal("loading garbage succeeded")
		}
	})
	t.Run("no pods", func(t *testing.T) {
		m := handModel()
		m.pods = 0
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&b); err == nil {
			t.Fatal("pods=0 model loaded")
		}
	})
	t.Run("no temperature regressors", func(t *testing.T) {
		m := handModel()
		m.temp = [numTransitions][]mlearn.Regressor{}
		var b bytes.Buffer
		if err := m.Save(&b); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&b); err == nil {
			t.Fatal("model without temperature regressors loaded")
		}
	})
	// A per-pod table shorter than Pods would make the predictors index
	// past its end.
	t.Run("short per-pod table", func(t *testing.T) {
		for _, table := range []string{"temp", "hTemp"} {
			m := handModel()
			a, _ := slot(cooling.Transition{From: cooling.ModeClosed, To: cooling.ModeFreeCooling})
			if table == "temp" {
				m.temp[a] = m.temp[a][:1]
			} else {
				m.hTemp[a] = m.hTemp[a][:1]
			}
			var b bytes.Buffer
			if err := m.Save(&b); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(&b); err == nil {
				t.Fatalf("model with a 1-pod %s table for 2 pods loaded", table)
			}
		}
	})
	// A snapshot written with map-keyed tables must fail to decode, so
	// a restore cold-boots instead of misreading it.
	t.Run("parent schema (map-keyed tables)", func(t *testing.T) {
		reg := persistedRegressor{Kind: "linear", Linear: &mlearn.Linear{Intercept: 1, Coef: []float64{1}}}
		tr := cooling.Transition{From: cooling.ModeFreeCooling, To: cooling.ModeFreeCooling}
		old := mapSchema{
			Pods:       1,
			Temp:       map[cooling.Transition][]persistedRegressor{tr: {reg}},
			Hum:        map[cooling.Transition]persistedRegressor{tr: reg},
			HTemp:      map[cooling.Transition][]persistedRegressor{tr: {reg}},
			HHum:       map[cooling.Transition]persistedRegressor{tr: reg},
			Power:      map[cooling.Mode]persistedRegressor{cooling.ModeFreeCooling: reg},
			RecircRank: []int{0},
		}
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(old); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&b); err == nil {
			t.Fatal("map-keyed snapshot loaded")
		}
	})
}

// FuzzModelLoad: Load must never panic, whatever bytes it is fed — the
// daemon feeds it CRC-verified payloads, but the CRC guards transport,
// not schema, and a hostile or stale payload must fail cleanly.
func FuzzModelLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := handModel().Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	// A bit-flipped but length-preserving mutation.
	mut := append([]byte(nil), valid...)
	mut[len(mut)/3] ^= 0xA5
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err == nil && m == nil {
			t.Fatal("Load returned nil model with nil error")
		}
	})
}
