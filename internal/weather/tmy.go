package weather

import (
	"hash/fnv"
	"math"
	"math/rand"

	"coolair/internal/units"
)

// Conditions is one outside-air sample.
//
// The //coolair:memoized directive below is machine-read: coolair-vet's
// memoguard analyzer (internal/analysis) flags any direct write to an
// exported field of a marked struct from outside its defining package,
// because such writes bypass the setters that invalidate memoized state.
// The convention for memoizing structs repo-wide:
//
//  1. put "//coolair:memoized" on its own line in the type's doc comment,
//  2. provide Set* methods for every exported field whose change must
//     drop the memo,
//  3. leave construction alone — composite literals start with an empty
//     memo and stay legal everywhere.
//
//coolair:memoized
type Conditions struct {
	Temp units.Celsius
	RH   units.RelHumidity

	// abs memoizes the humidity ratio when the producer already knows
	// it (Series.Sample). The RH→absolute conversion costs an exp per
	// call and the physics and the controller each re-derive it from
	// the same sample every tick; the memo lets one conversion serve
	// them all without changing any value.
	//
	// Anything rewriting Temp or RH after the sample was produced
	// (fault injection, sensor sanitization) must go through SetTemp /
	// SetRH: assigning the fields directly would leave a stale memo and
	// downstream Abs() calls would describe the pre-mutation sample.
	abs    units.AbsHumidity
	absSet bool
}

// Abs returns the humidity ratio of the sample.
func (c Conditions) Abs() units.AbsHumidity {
	if c.absSet {
		return c.abs
	}
	return units.AbsFromRel(c.Temp, c.RH)
}

// SetTemp replaces the sample's temperature and discards any memoized
// humidity ratio so the next Abs() reflects the new value.
func (c *Conditions) SetTemp(t units.Celsius) {
	c.Temp = t
	c.absSet = false
}

// SetRH replaces the sample's relative humidity and discards any
// memoized humidity ratio so the next Abs() reflects the new value.
func (c *Conditions) SetRH(rh units.RelHumidity) {
	c.RH = rh
	c.absSet = false
}

// Series is a synthetic typical meteorological year at hourly
// resolution. Index 0 is hour 0 of day 0 (January 1st, midnight local).
//
// Accessors treat the series as periodic with its own length: any time
// or day index, including negative ones and ones beyond the stored
// year, wraps around rather than panicking, and an empty series yields
// zero values.
type Series struct {
	Climate Climate
	Temp    []units.Celsius     // HoursPerYear entries
	RH      []units.RelHumidity // HoursPerYear entries
	// Abs is the humidity ratio of each hourly sample, precomputed by
	// GenerateTMY so exact-hour reads skip the conversion. Hand-built
	// series may leave it empty; accessors fall back to converting.
	Abs []units.AbsHumidity
}

// front is one synoptic sinusoid contributing multi-day variability.
type front struct {
	periodHours float64
	phase       float64
	amp         float64
}

// seed derives a deterministic RNG seed from the site's identity so the
// same climate always produces the same "typical year".
func (c Climate) seed() int64 {
	h := fnv.New64a()
	h.Write([]byte(c.Name))
	var buf [16]byte
	putFloat := func(off int, f float64) {
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(bits >> (8 * i))
		}
	}
	putFloat(0, c.Lat)
	putFloat(8, c.Lon)
	h.Write(buf[:])
	return int64(h.Sum64())
}

// GenerateTMY synthesizes the hourly typical meteorological year for the
// climate. The result is deterministic for a given climate.
func GenerateTMY(c Climate) *Series {
	rng := rand.New(rand.NewSource(c.seed()))

	// Synoptic variability: a handful of incommensurate sinusoids with
	// periods between ~2.5 and ~9 days. Their sum has the irregular,
	// slowly-wandering character of real weather fronts while remaining
	// smooth and deterministic.
	fronts := make([]front, 5)
	sumAmp := 0.0
	for i := range fronts {
		fronts[i] = front{
			periodHours: (60 + 156*rng.Float64()),
			phase:       2 * math.Pi * rng.Float64(),
			amp:         0.5 + rng.Float64(),
		}
		sumAmp += fronts[i].amp
	}
	for i := range fronts {
		fronts[i].amp *= c.FrontAmp / sumAmp * 1.8 // keep extremes near ±FrontAmp
	}
	// Humidity fronts wander independently of temperature fronts.
	rhFronts := make([]front, 3)
	for i := range rhFronts {
		rhFronts[i] = front{
			periodHours: (48 + 200*rng.Float64()),
			phase:       2 * math.Pi * rng.Float64(),
			amp:         3 + 4*rng.Float64(),
		}
	}

	s := &Series{
		Climate: c,
		Temp:    make([]units.Celsius, HoursPerYear),
		RH:      make([]units.RelHumidity, HoursPerYear),
		Abs:     make([]units.AbsHumidity, HoursPerYear),
	}
	for h := 0; h < HoursPerYear; h++ {
		day := float64(h) / HoursPerDay
		hod := float64(h % HoursPerDay)

		t := float64(c.AnnualMean)
		t += c.SeasonalAmp * c.seasonPhase(day)
		t += c.DiurnalAmp * diurnalPhase(hod)
		for _, f := range fronts {
			t += f.amp * math.Sin(2*math.Pi*float64(h)/f.periodHours+f.phase)
		}
		s.Temp[h] = units.Celsius(t)

		rh := float64(c.MeanRH)
		rh -= c.RHDiurnalAmp * diurnalPhase(hod) // driest mid-afternoon
		for _, f := range rhFronts {
			rh += f.amp * math.Sin(2*math.Pi*float64(h)/f.periodHours+f.phase)
		}
		s.RH[h] = units.RelHumidity(rh).Clamp()
		if s.RH[h] < 5 {
			s.RH[h] = 5
		}
		s.Abs[h] = units.AbsFromRel(s.Temp[h], s.RH[h])
	}
	return s
}

// sampleIndex resolves a simulation time (seconds since January 1st,
// midnight) to the bracketing hourly sample indices and interpolation
// fraction. Times before hour 0 or beyond the stored span wrap around
// the series length; ok is false for an empty series.
func (s *Series) sampleIndex(second float64) (h0, h1 int, frac float64, ok bool) {
	n := len(s.Temp)
	if n == 0 {
		return 0, 0, 0, false
	}
	hf := second / 3600
	i := int(math.Floor(hf))
	frac = hf - float64(i)
	h0 = ((i % n) + n) % n
	h1 = (h0 + 1) % n
	return h0, h1, frac, true
}

// rhAt reads the RH sample defensively: hand-built series may carry
// fewer RH entries than temperatures.
func (s *Series) rhAt(h int) units.RelHumidity {
	if h < len(s.RH) {
		return s.RH[h]
	}
	return 0
}

// At returns the outside conditions at the given simulation time
// (seconds since January 1st, midnight), linearly interpolated between
// hourly samples. Out-of-range times (negative or beyond the stored
// span) wrap around; an empty series yields zero conditions.
func (s *Series) At(second float64) Conditions {
	h0, h1, frac, ok := s.sampleIndex(second)
	if !ok {
		return Conditions{}
	}
	return Conditions{
		Temp: units.Celsius(units.Lerp(float64(s.Temp[h0]), float64(s.Temp[h1]), frac)),
		RH:   units.RelHumidity(units.Lerp(float64(s.rhAt(h0)), float64(s.rhAt(h1)), frac)),
	}
}

// Sample returns At plus the humidity ratio of the sample, memoized
// inside the returned Conditions so downstream Abs() calls skip the
// conversion. Exact-hour reads reuse the precomputed hourly track;
// interpolated reads convert the interpolated sample once (converting
// after interpolation is what At callers have always observed — the
// conversion is nonlinear, so interpolating the track instead would
// change values).
func (s *Series) Sample(second float64) Conditions {
	h0, _, frac, ok := s.sampleIndex(second)
	if !ok {
		return Conditions{}
	}
	c := s.At(second)
	if frac == 0 && h0 < len(s.Abs) {
		c.abs = s.Abs[h0]
	} else {
		c.abs = units.AbsFromRel(c.Temp, c.RH)
	}
	c.absSet = true
	return c
}

// dayStart returns the first hour index of day d after wrapping, and
// the series length; ok is false for an empty series.
func (s *Series) dayStart(d int) (start, n int, ok bool) {
	n = len(s.Temp)
	if n == 0 {
		return 0, 0, false
	}
	d = ((d % DaysPerYear) + DaysPerYear) % DaysPerYear
	return d * HoursPerDay, n, true
}

// DayMean returns the mean outside temperature of day d (0-based).
// Out-of-range days wrap; an empty series yields 0.
func (s *Series) DayMean(d int) units.Celsius {
	start, n, ok := s.dayStart(d)
	if !ok {
		return 0
	}
	sum := 0.0
	for h := 0; h < HoursPerDay; h++ {
		sum += float64(s.Temp[(start+h)%n])
	}
	return units.Celsius(sum / HoursPerDay)
}

// DayRange returns the min and max hourly outside temperature of day d.
// Out-of-range days wrap; an empty series yields (0, 0).
func (s *Series) DayRange(d int) (lo, hi units.Celsius) {
	start, n, ok := s.dayStart(d)
	if !ok {
		return 0, 0
	}
	lo, hi = s.Temp[start%n], s.Temp[start%n]
	for h := 1; h < HoursPerDay; h++ {
		v := s.Temp[(start+h)%n]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Hourly returns the 24 hourly temperatures of day d. Out-of-range days
// wrap; an empty series yields zeros.
func (s *Series) Hourly(d int) []units.Celsius {
	out := make([]units.Celsius, HoursPerDay)
	start, n, ok := s.dayStart(d)
	if !ok {
		return out
	}
	for h := 0; h < HoursPerDay; h++ {
		out[h] = s.Temp[(start+h)%n]
	}
	return out
}

// AnnualStats summarizes a series for validation and reporting.
type AnnualStats struct {
	Mean           units.Celsius
	Min, Max       units.Celsius
	MeanDailyRange float64 // average of daily (max-min), °C
	MaxDailyRange  float64 // widest daily range, °C
	MeanRH         units.RelHumidity
}

// Stats computes annual summary statistics of the series. An empty
// series yields zero stats.
func (s *Series) Stats() AnnualStats {
	n := len(s.Temp)
	if n == 0 {
		return AnnualStats{}
	}
	st := AnnualStats{Min: s.Temp[0], Max: s.Temp[0]}
	sum, sumRH := 0.0, 0.0
	for h := 0; h < n; h++ {
		v := s.Temp[h]
		sum += float64(v)
		sumRH += float64(s.rhAt(h))
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = units.Celsius(sum / float64(n))
	st.MeanRH = units.RelHumidity(sumRH / float64(n))
	sumRange := 0.0
	for d := 0; d < DaysPerYear; d++ {
		lo, hi := s.DayRange(d)
		r := float64(hi - lo)
		sumRange += r
		if r > st.MaxDailyRange {
			st.MaxDailyRange = r
		}
	}
	st.MeanDailyRange = sumRange / DaysPerYear
	return st
}
