package weather

import (
	"math"
	"testing"
	"testing/quick"

	"coolair/internal/units"
)

func TestNamedClimatesValidate(t *testing.T) {
	for _, c := range StudyLocations() {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	bad := []Climate{
		{Name: "badlat", Lat: 95},
		{Name: "badlon", Lon: 190},
		{Name: "badmean", AnnualMean: 80},
		{Name: "badseasonal", AnnualMean: 10, SeasonalAmp: 99},
		{Name: "baddiurnal", AnnualMean: 10, DiurnalAmp: 50},
		{Name: "badrh", AnnualMean: 10, MeanRH: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.Name)
		}
	}
}

func TestTMYDeterministic(t *testing.T) {
	a := GenerateTMY(Newark)
	b := GenerateTMY(Newark)
	for h := 0; h < HoursPerYear; h += 1000 {
		if a.Temp[h] != b.Temp[h] || a.RH[h] != b.RH[h] {
			t.Fatalf("hour %d differs between identical generations", h)
		}
	}
	c := GenerateTMY(Santiago)
	same := true
	for h := 0; h < HoursPerYear; h += 100 {
		if a.Temp[h] != c.Temp[h] {
			same = false
			break
		}
	}
	if same {
		t.Error("different climates produced identical series")
	}
}

func TestTMYAnnualMeanMatchesClimate(t *testing.T) {
	for _, c := range StudyLocations() {
		s := GenerateTMY(c)
		st := s.Stats()
		if math.Abs(float64(st.Mean-c.AnnualMean)) > 1.0 {
			t.Errorf("%s: annual mean %v, climate says %v", c.Name, st.Mean, c.AnnualMean)
		}
	}
}

func TestTMYSeasonality(t *testing.T) {
	s := GenerateTMY(Newark)
	// July (day ~195) should be much warmer than January (day ~15).
	julyMean := averageDays(s, 185, 205)
	janMean := averageDays(s, 5, 25)
	if julyMean-janMean < 15 {
		t.Errorf("Newark July %0.1f vs Jan %0.1f: seasonal swing too small", julyMean, janMean)
	}
	// Southern hemisphere is phase-flipped.
	sa := GenerateTMY(Santiago)
	if averageDays(sa, 5, 25) < averageDays(sa, 185, 205) {
		t.Error("Santiago should be warmer in January than July")
	}
	// Singapore has almost no seasons.
	sg := GenerateTMY(Singapore)
	if d := math.Abs(averageDays(sg, 185, 205) - averageDays(sg, 5, 25)); d > 4 {
		t.Errorf("Singapore seasonal difference %0.1f, want < 4", d)
	}
}

func averageDays(s *Series, from, to int) float64 {
	sum, n := 0.0, 0
	for d := from; d < to; d++ {
		sum += float64(s.DayMean(d))
		n++
	}
	return sum / float64(n)
}

func TestTMYDiurnalCycle(t *testing.T) {
	s := GenerateTMY(Chad) // large diurnal amplitude
	// Averaged over many days, 15:00 should be warmer than 03:00 by
	// roughly twice the diurnal amplitude.
	var at15, at03 float64
	days := 0
	for d := 0; d < DaysPerYear; d += 7 {
		at15 += float64(s.Temp[d*HoursPerDay+15])
		at03 += float64(s.Temp[d*HoursPerDay+3])
		days++
	}
	diff := (at15 - at03) / float64(days)
	want := 2 * Chad.DiurnalAmp
	if math.Abs(diff-want) > 2.5 {
		t.Errorf("Chad 15:00-03:00 difference %0.1f, want ~%0.1f", diff, want)
	}
}

func TestTMYHumidityAntiCorrelatedWithTemp(t *testing.T) {
	s := GenerateTMY(Newark)
	// At the afternoon temperature peak RH should be lower than at dawn.
	var rh15, rh03 float64
	days := 0
	for d := 0; d < DaysPerYear; d += 3 {
		rh15 += float64(s.RH[d*HoursPerDay+15])
		rh03 += float64(s.RH[d*HoursPerDay+3])
		days++
	}
	if rh15 >= rh03 {
		t.Errorf("afternoon RH %0.1f should be below dawn RH %0.1f", rh15/float64(days), rh03/float64(days))
	}
}

func TestSeriesAtInterpolates(t *testing.T) {
	s := GenerateTMY(Newark)
	// Halfway between hour samples the value lies between them.
	for h := 0; h < 100; h += 7 {
		a, b := float64(s.Temp[h]), float64(s.Temp[h+1])
		mid := float64(s.At(float64(h)*3600 + 1800).Temp)
		lo, hi := math.Min(a, b), math.Max(a, b)
		if mid < lo-1e-9 || mid > hi+1e-9 {
			t.Fatalf("hour %d: interpolated %0.3f outside [%0.3f, %0.3f]", h, mid, lo, hi)
		}
	}
	// Exactly on a sample it returns that sample.
	if got := s.At(3600 * 10).Temp; got != s.Temp[10] {
		t.Errorf("At(hour 10) = %v, want %v", got, s.Temp[10])
	}
}

func TestSeriesAtWrapsYear(t *testing.T) {
	s := GenerateTMY(Newark)
	end := s.At(float64(HoursPerYear) * 3600)
	start := s.At(0)
	if end.Temp != start.Temp {
		t.Errorf("year wrap: %v != %v", end.Temp, start.Temp)
	}
	if got := s.At(-3600); math.IsNaN(float64(got.Temp)) {
		t.Error("negative time should wrap, not NaN")
	}
}

func TestDayRangeConsistent(t *testing.T) {
	s := GenerateTMY(Santiago)
	f := func(draw int) bool {
		d := ((draw % DaysPerYear) + DaysPerYear) % DaysPerYear
		lo, hi := s.DayRange(d)
		if lo > hi {
			return false
		}
		m := s.DayMean(d)
		return m >= lo && m <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPerfectForecastMatchesSeries(t *testing.T) {
	s := GenerateTMY(Newark)
	f := PerfectForecast{Series: s}
	meanErr, within := ForecastError(f, s)
	if meanErr != 0 || within != 1 {
		t.Errorf("perfect forecast: meanErr=%v within2.5=%v", meanErr, within)
	}
	h := f.HourlyForecast(100)
	if len(h) != HoursPerDay {
		t.Fatalf("hourly forecast has %d entries", len(h))
	}
	if h[7] != s.Temp[100*HoursPerDay+7] {
		t.Error("hourly forecast differs from series")
	}
}

func TestBiasedForecast(t *testing.T) {
	s := GenerateTMY(Newark)
	f := BiasedForecast{Base: PerfectForecast{Series: s}, Bias: 5}
	for d := 0; d < 20; d++ {
		got := f.DayMeanForecast(d)
		want := s.DayMean(d) + 5
		if math.Abs(float64(got-want)) > 1e-9 {
			t.Fatalf("day %d: biased forecast %v, want %v", d, got, want)
		}
	}
	// Noise is deterministic per (seed, day).
	n1 := BiasedForecast{Base: PerfectForecast{Series: s}, NoiseSigma: 2, Seed: 7}
	n2 := BiasedForecast{Base: PerfectForecast{Series: s}, NoiseSigma: 2, Seed: 7}
	if n1.DayMeanForecast(3) != n2.DayMeanForecast(3) {
		t.Error("noisy forecast not deterministic for same seed")
	}
	meanErr, _ := ForecastError(n1, s)
	if meanErr < 0.5 || meanErr > 4 {
		t.Errorf("noisy forecast mean error %0.2f implausible for sigma=2", meanErr)
	}
}

func TestWorldGridProperties(t *testing.T) {
	sites := WorldGrid()
	if len(sites) != WorldSiteCount {
		t.Fatalf("world grid has %d sites, want %d", len(sites), WorldSiteCount)
	}
	names := make(map[string]bool)
	var cold, hot int
	for _, c := range sites {
		if err := c.Validate(); err != nil {
			t.Fatalf("site %s invalid: %v", c.Name, err)
		}
		names[c.Name] = true
		if c.AnnualMean < 5 {
			cold++
		}
		if c.AnnualMean > 24 {
			hot++
		}
	}
	if len(names) < WorldSiteCount*9/10 {
		t.Errorf("too many duplicate site names: %d unique", len(names))
	}
	if cold < 50 {
		t.Errorf("expected a substantial cold-climate population, got %d", cold)
	}
	if hot < 50 {
		t.Errorf("expected a substantial hot-climate population, got %d", hot)
	}
}

func TestWorldGridDeterministic(t *testing.T) {
	a := WorldGrid()
	b := WorldGrid()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("site %d differs between generations", i)
		}
	}
}

// TestWorldGridReturnsCopies pins that the once-built grid is never
// handed out itself: a caller editing its slice leaves later calls
// untouched.
func TestWorldGridReturnsCopies(t *testing.T) {
	a := WorldGrid()
	want := a[0]
	a[0].Name, a[0].AnnualMean = "edited", 99
	if got := WorldGrid()[0]; got != want {
		t.Fatalf("editing one WorldGrid result changed the next: %+v, want %+v", got, want)
	}
}

func TestWorldGridLatitudeTemperatureGradient(t *testing.T) {
	var eq, polar []float64
	for _, c := range WorldGrid() {
		if math.Abs(c.Lat) < 12 {
			eq = append(eq, float64(c.AnnualMean))
		}
		if math.Abs(c.Lat) > 55 {
			polar = append(polar, float64(c.AnnualMean))
		}
	}
	if len(eq) == 0 || len(polar) == 0 {
		t.Fatal("grid lacks equatorial or high-latitude sites")
	}
	if mean(eq) < mean(polar)+15 {
		t.Errorf("equatorial mean %0.1f vs polar %0.1f: gradient too weak", mean(eq), mean(polar))
	}
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func TestConditionsAbs(t *testing.T) {
	c := Conditions{Temp: 25, RH: 50}
	w := c.Abs()
	if got := units.RelFromAbs(25, w); math.Abs(float64(got-50)) > 0.01 {
		t.Errorf("Conditions.Abs round trip: %v", got)
	}
}

func TestConditionsSettersInvalidateMemo(t *testing.T) {
	// Series.Sample memoizes the humidity ratio inside the returned
	// Conditions. Mutating the sample through the setters must discard
	// that memo so Abs() tracks the new values (regression: the fault
	// injector and sensor guard rewrite Temp/RH after sampling).
	s := GenerateTMY(Newark)
	c := s.Sample(0)
	if c.Abs() != s.Abs[0] {
		t.Fatalf("Sample(0).Abs() = %v, want memoized %v", c.Abs(), s.Abs[0])
	}

	c.SetTemp(c.Temp + 15)
	if got, want := c.Abs(), units.AbsFromRel(c.Temp, c.RH); got != want {
		t.Errorf("Abs() after SetTemp = %v, want fresh conversion %v", got, want)
	}

	c = s.Sample(0)
	c.SetRH(c.RH / 2)
	if got, want := c.Abs(), units.AbsFromRel(c.Temp, c.RH); got != want {
		t.Errorf("Abs() after SetRH = %v, want fresh conversion %v", got, want)
	}
}

func TestBiasedForecastHourlyDeterminism(t *testing.T) {
	s := GenerateTMY(Newark)
	mk := func(seed int64) BiasedForecast {
		return BiasedForecast{Base: PerfectForecast{Series: s}, NoiseSigma: 2, Seed: seed}
	}
	a, b := mk(7).HourlyForecast(42), mk(7).HourlyForecast(42)
	for h := range a {
		if a[h] != b[h] {
			t.Fatalf("hour %d differs across identical forecasters: %v vs %v", h, a[h], b[h])
		}
	}
	c := mk(8).HourlyForecast(42)
	same := true
	for h := range a {
		if a[h] != c[h] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed has no effect on hourly noise")
	}
}

func TestBiasedForecastZeroNoiseConsistency(t *testing.T) {
	s := GenerateTMY(Newark)
	base := PerfectForecast{Series: s}

	// Bias without noise: hourly mean and day mean shift together, so the
	// two views stay consistent.
	f := BiasedForecast{Base: base, Bias: 5}
	for _, d := range []int{3, 150, 300} {
		h := f.HourlyForecast(d)
		sum := 0.0
		for _, v := range h {
			sum += float64(v)
		}
		if got := float64(f.DayMeanForecast(d)); math.Abs(got-sum/float64(len(h))) > 1e-9 {
			t.Errorf("day %d: mean %v inconsistent with hourly mean %v", d, got, sum/float64(len(h)))
		}
	}

	// NoiseSigma=0 and Bias=0 must be bit-exact with the base forecaster.
	id := BiasedForecast{Base: base, Seed: 99}
	for _, d := range []int{0, 77, 200} {
		if id.DayMeanForecast(d) != base.DayMeanForecast(d) {
			t.Errorf("day %d: identity forecast day mean differs", d)
		}
		h, hb := id.HourlyForecast(d), base.HourlyForecast(d)
		for i := range h {
			if h[i] != hb[i] {
				t.Fatalf("day %d hour %d: identity forecast differs: %v vs %v", d, i, h[i], hb[i])
			}
		}
	}
}
