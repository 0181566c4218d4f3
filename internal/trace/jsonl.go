package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Data is a decoded (or drained) trace: decision and tick records in
// chronological order per kind.
type Data struct {
	Decisions []DecisionRecord
	Ticks     []TickRecord
}

// jfloat is a float64 whose JSON form round-trips non-finite values:
// NaN encodes as null, ±Inf as the strings "+Inf"/"-Inf". Finite values
// use Go's shortest exact representation, so decode∘encode is the
// identity and encode∘decode is a fixed point (the FuzzTraceRoundTrip
// invariant).
type jfloat float64

// MarshalJSON implements json.Marshaler.
func (f jfloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte("null"), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *jfloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "null":
		*f = jfloat(math.NaN())
		return nil
	case `"+Inf"`, `"Inf"`:
		*f = jfloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = jfloat(math.Inf(-1))
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("trace: bad float %q: %w", b, err)
	}
	*f = jfloat(v)
	return nil
}

// Wire forms: slices instead of fixed arrays (so a JSONL line carries
// only the filled prefix) and jfloat for every numeric channel. The
// in-memory records stay plain value types; conversion happens only on
// the drain/decode path, which is allowed to allocate.

type wireTerms struct {
	AbsTemp jfloat `json:"abs_temp"`
	Band    jfloat `json:"band"`
	RH      jfloat `json:"rh"`
	Energy  jfloat `json:"energy"`
	Rate    jfloat `json:"rate"`
	ACStart jfloat `json:"ac_start"`
	Switch  jfloat `json:"switch"`
	Center  jfloat `json:"center"`
}

type wireCandidate struct {
	Mode      int32     `json:"mode"`
	FanSpeed  jfloat    `json:"fan"`
	CompSpeed jfloat    `json:"comp"`
	Skipped   bool      `json:"skipped,omitempty"`
	Penalty   jfloat    `json:"penalty"`
	Terms     wireTerms `json:"terms"`
	PodTemp   []jfloat  `json:"pod_temp"`
	RH        jfloat    `json:"rh"`
	PowerW    jfloat    `json:"power_w"`
}

type wireDecision struct {
	Kind          string          `json:"kind"`
	Time          jfloat          `json:"t"`
	Day           int32           `json:"day"`
	Source        int32           `json:"source"`
	Guard         int32           `json:"guard,omitempty"`
	PeriodSeconds jfloat          `json:"period_s"`
	BandLo        jfloat          `json:"band_lo"`
	BandHi        jfloat          `json:"band_hi"`
	ActualHottest jfloat          `json:"actual_hottest"`
	Candidates    []wireCandidate `json:"candidates"`
	Winner        int32           `json:"winner"`
	Hold          bool            `json:"hold,omitempty"`
	Mode          int32           `json:"mode"`
	FanSpeed      jfloat          `json:"fan"`
	CompSpeed     jfloat          `json:"comp"`
}

type wireTick struct {
	Kind        string `json:"kind"`
	Time        jfloat `json:"t"`
	Day         int32  `json:"day"`
	OutsideTemp jfloat `json:"outside_c"`
	OutsideRH   jfloat `json:"outside_rh"`
	InletMin    jfloat `json:"inlet_min"`
	InletMax    jfloat `json:"inlet_max"`
	DiskMin     jfloat `json:"disk_min"`
	DiskMax     jfloat `json:"disk_max"`
	InsideRH    jfloat `json:"inside_rh"`
	Mode        int32  `json:"mode"`
	FanSpeed    jfloat `json:"fan"`
	CompSpeed   jfloat `json:"comp"`
	CoolingW    jfloat `json:"cooling_w"`
	ITW         jfloat `json:"it_w"`
	Utilization jfloat `json:"util"`
}

const (
	kindDecision = "decision"
	kindTick     = "tick"
)

func wireFromDecision(d *DecisionRecord) wireDecision {
	w := wireDecision{
		Kind:          kindDecision,
		Time:          jfloat(d.Time),
		Day:           d.Day,
		Source:        int32(d.Source),
		Guard:         int32(d.Guard),
		PeriodSeconds: jfloat(d.PeriodSeconds),
		BandLo:        jfloat(d.BandLo),
		BandHi:        jfloat(d.BandHi),
		ActualHottest: jfloat(d.ActualHottest),
		Winner:        d.Winner,
		Hold:          d.Hold,
		Mode:          d.Mode,
		FanSpeed:      jfloat(d.FanSpeed),
		CompSpeed:     jfloat(d.CompSpeed),
	}
	n := int(d.NumCandidates)
	if n > MaxCandidates {
		n = MaxCandidates
	}
	if n > 0 {
		w.Candidates = make([]wireCandidate, n)
	}
	for i := 0; i < n; i++ {
		c := &d.Candidates[i]
		wc := wireCandidate{
			Mode:      c.Mode,
			FanSpeed:  jfloat(c.FanSpeed),
			CompSpeed: jfloat(c.CompSpeed),
			Skipped:   c.Skipped,
			Penalty:   jfloat(c.Penalty),
			Terms: wireTerms{
				AbsTemp: jfloat(c.Terms.AbsTemp), Band: jfloat(c.Terms.Band),
				RH: jfloat(c.Terms.RH), Energy: jfloat(c.Terms.Energy),
				Rate: jfloat(c.Terms.Rate), ACStart: jfloat(c.Terms.ACStart),
				Switch: jfloat(c.Terms.Switch), Center: jfloat(c.Terms.Center),
			},
			RH:     jfloat(c.RH),
			PowerW: jfloat(c.PowerW),
		}
		np := int(c.NumPods)
		if np > MaxPods {
			np = MaxPods
		}
		if np > 0 {
			wc.PodTemp = make([]jfloat, np)
			for p := 0; p < np; p++ {
				wc.PodTemp[p] = jfloat(c.PodTemp[p])
			}
		}
		w.Candidates[i] = wc
	}
	return w
}

func decisionFromWire(w *wireDecision) DecisionRecord {
	d := DecisionRecord{
		Time:          float64(w.Time),
		Day:           w.Day,
		Source:        Source(w.Source),
		Guard:         GuardAction(w.Guard),
		PeriodSeconds: float64(w.PeriodSeconds),
		BandLo:        float64(w.BandLo),
		BandHi:        float64(w.BandHi),
		ActualHottest: float64(w.ActualHottest),
		Winner:        w.Winner,
		Hold:          w.Hold,
		Mode:          w.Mode,
		FanSpeed:      float64(w.FanSpeed),
		CompSpeed:     float64(w.CompSpeed),
	}
	n := len(w.Candidates)
	if n > MaxCandidates {
		n = MaxCandidates
	}
	d.NumCandidates = int32(n)
	for i := 0; i < n; i++ {
		wc := &w.Candidates[i]
		c := CandidateRecord{
			Mode:      wc.Mode,
			FanSpeed:  float64(wc.FanSpeed),
			CompSpeed: float64(wc.CompSpeed),
			Skipped:   wc.Skipped,
			Penalty:   float64(wc.Penalty),
			Terms: PenaltyTerms{
				AbsTemp: float64(wc.Terms.AbsTemp), Band: float64(wc.Terms.Band),
				RH: float64(wc.Terms.RH), Energy: float64(wc.Terms.Energy),
				Rate: float64(wc.Terms.Rate), ACStart: float64(wc.Terms.ACStart),
				Switch: float64(wc.Terms.Switch), Center: float64(wc.Terms.Center),
			},
			RH:     float64(wc.RH),
			PowerW: float64(wc.PowerW),
		}
		np := len(wc.PodTemp)
		if np > MaxPods {
			np = MaxPods
		}
		c.NumPods = int32(np)
		for p := 0; p < np; p++ {
			c.PodTemp[p] = float64(wc.PodTemp[p])
		}
		d.Candidates[i] = c
	}
	// An out-of-range winner index from a hand-edited or corrupted line
	// normalizes to "no winner" so downstream analysis never indexes
	// past the candidate list.
	if d.Winner >= d.NumCandidates {
		d.Winner = -1
	}
	if d.Winner < 0 {
		d.Winner = -1
	}
	return d
}

func wireFromTick(t *TickRecord) wireTick {
	return wireTick{
		Kind: kindTick, Time: jfloat(t.Time), Day: t.Day,
		OutsideTemp: jfloat(t.OutsideTemp), OutsideRH: jfloat(t.OutsideRH),
		InletMin: jfloat(t.InletMin), InletMax: jfloat(t.InletMax),
		DiskMin: jfloat(t.DiskMin), DiskMax: jfloat(t.DiskMax),
		InsideRH: jfloat(t.InsideRH), Mode: t.Mode,
		FanSpeed: jfloat(t.FanSpeed), CompSpeed: jfloat(t.CompSpeed),
		CoolingW: jfloat(t.CoolingW), ITW: jfloat(t.ITW),
		Utilization: jfloat(t.Utilization),
	}
}

func tickFromWire(w *wireTick) TickRecord {
	return TickRecord{
		Time: float64(w.Time), Day: w.Day,
		OutsideTemp: float64(w.OutsideTemp), OutsideRH: float64(w.OutsideRH),
		InletMin: float64(w.InletMin), InletMax: float64(w.InletMax),
		DiskMin: float64(w.DiskMin), DiskMax: float64(w.DiskMax),
		InsideRH: float64(w.InsideRH), Mode: w.Mode,
		FanSpeed: float64(w.FanSpeed), CompSpeed: float64(w.CompSpeed),
		CoolingW: float64(w.CoolingW), ITW: float64(w.ITW),
		Utilization: float64(w.Utilization),
	}
}

// AppendDecisionJSONL appends the record's one-line JSON form (the
// same wire encoding WriteJSONL emits, no trailing newline) to dst and
// returns the extended slice. The SSE stream uses it to render single
// records without draining the ring.
func AppendDecisionJSONL(dst []byte, d *DecisionRecord) ([]byte, error) {
	w := wireFromDecision(d)
	line, err := json.Marshal(&w)
	if err != nil {
		return dst, fmt.Errorf("trace: encode: %w", err)
	}
	return append(dst, line...), nil
}

// AppendTickJSONL is AppendDecisionJSONL for tick records.
func AppendTickJSONL(dst []byte, t *TickRecord) ([]byte, error) {
	w := wireFromTick(t)
	line, err := json.Marshal(&w)
	if err != nil {
		return dst, fmt.Errorf("trace: encode: %w", err)
	}
	return append(dst, line...), nil
}

// WriteJSONL writes the trace as one JSON object per line, decisions
// and ticks merged by timestamp (ties put the decision first). Records
// containing NaN or ±Inf encode losslessly (null / "±Inf").
func (t *Data) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	di, ti := 0, 0
	for di < len(t.Decisions) || ti < len(t.Ticks) {
		writeDecision := ti >= len(t.Ticks) ||
			(di < len(t.Decisions) && !(t.Ticks[ti].Time < t.Decisions[di].Time))
		var (
			line []byte
			err  error
		)
		if writeDecision {
			wd := wireFromDecision(&t.Decisions[di])
			line, err = json.Marshal(&wd)
			di++
		} else {
			wt := wireFromTick(&t.Ticks[ti])
			line, err = json.Marshal(&wt)
			ti++
		}
		if err != nil {
			return fmt.Errorf("trace: encode: %w", err)
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxLineBytes bounds one JSONL line (a full decision record with every
// candidate is ~4 KB; 1 MB leaves room for hand-edited traces).
const maxLineBytes = 1 << 20

// ReadJSONL decodes a JSONL trace. Lines must be valid JSON objects
// with a known "kind"; the first malformed line aborts with an error
// identifying it. The decoder never panics on arbitrary input (fuzzed
// in FuzzTraceRoundTrip).
func ReadJSONL(r io.Reader) (*Data, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	data := &Data{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(trimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		switch probe.Kind {
		case kindDecision:
			var wd wireDecision
			if err := json.Unmarshal(line, &wd); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			data.Decisions = append(data.Decisions, decisionFromWire(&wd))
		case kindTick:
			var wt wireTick
			if err := json.Unmarshal(line, &wt); err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			data.Ticks = append(data.Ticks, tickFromWire(&wt))
		default:
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", lineNo, probe.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return data, nil
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}

// WriteTickCSV writes the tick series as CSV, one row per sample with
// the mode as its integer code. coolair-sim -csv and coolair-trace -csv
// ticks both print through it.
func (t *Data) WriteTickCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "time_s,day,outside_c,outside_rh,inlet_min_c,inlet_max_c,disk_min_c,disk_max_c,inside_rh,mode,fan,comp,cooling_w,it_w,util"); err != nil {
		return err
	}
	for i := range t.Ticks {
		k := &t.Ticks[i]
		if _, err := fmt.Fprintf(bw, "%0.0f,%d,%0.2f,%0.1f,%0.2f,%0.2f,%0.2f,%0.2f,%0.1f,%d,%0.2f,%0.2f,%0.0f,%0.0f,%0.2f\n",
			k.Time, k.Day, k.OutsideTemp, k.OutsideRH, k.InletMin, k.InletMax,
			k.DiskMin, k.DiskMax, k.InsideRH, k.Mode, k.FanSpeed, k.CompSpeed,
			k.CoolingW, k.ITW, k.Utilization); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteDecisionCSV writes one row per decision: the chosen command,
// the winner's score, and guard annotations.
func (t *Data) WriteDecisionCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "time_s,day,source,guard,hold,band_lo,band_hi,actual_hottest,winner,candidates,mode,fan,comp,winner_penalty,winner_pred_hottest"); err != nil {
		return err
	}
	for i := range t.Decisions {
		d := &t.Decisions[i]
		pen, pred := 0.0, 0.0
		if d.Winner >= 0 && d.Winner < d.NumCandidates {
			pen = d.Candidates[d.Winner].Penalty
			pred, _ = d.WinnerPredictedHottest()
		}
		if _, err := fmt.Fprintf(bw, "%0.0f,%d,%s,%s,%t,%0.1f,%0.1f,%0.2f,%d,%d,%d,%0.2f,%0.2f,%0.4f,%0.2f\n",
			d.Time, d.Day, d.Source, d.Guard, d.Hold, d.BandLo, d.BandHi,
			d.ActualHottest, d.Winner, d.NumCandidates, d.Mode, d.FanSpeed,
			d.CompSpeed, pen, pred); err != nil {
			return err
		}
	}
	return bw.Flush()
}
