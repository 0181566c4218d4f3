package experiments

import (
	"strings"
	"testing"

	"coolair/internal/weather"
)

// Scaled-down shape tests for the §5.2 studies. Each uses few sampled
// days and a location subset so the suite stays tractable on one core.

func TestPlacementStudyShape(t *testing.T) {
	lab := sharedLab(t)
	cls := []weather.Climate{weather.Newark, weather.Santiago}
	st, err := lab.RunPlacementStudy(cls, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Systems) != 4 {
		t.Fatalf("systems: %v", st.Systems)
	}
	for _, loc := range []string{"Newark", "Santiago"} {
		base, _ := st.Cell(loc, "Baseline")
		varFull, _ := st.Cell(loc, "Variation")
		// Figure 11's largest reductions come from the adaptive band:
		// the full Variation version beats the baseline's max range at
		// cold/cool-season locations.
		if varFull.MaxWorstDailyRange >= base.MaxWorstDailyRange {
			t.Errorf("%s: Variation max range %0.1f should beat baseline %0.1f",
				loc, varFull.MaxWorstDailyRange, base.MaxWorstDailyRange)
		}
		// And it should also beat the fixed-band ablations (the band +
		// forecast is the differentiator).
		vhr, _ := st.Cell(loc, "Var-High-Recirc")
		if varFull.AvgWorstDailyRange >= vhr.AvgWorstDailyRange+1 {
			t.Errorf("%s: Variation avg %0.1f should not exceed Var-High-Recirc %0.1f by 1°C",
				loc, varFull.AvgWorstDailyRange, vhr.AvgWorstDailyRange)
		}
	}
	if !strings.Contains(st.Table(), "Figure 11") {
		t.Error("table header")
	}
	if _, ok := st.Cell("Nowhere", "Baseline"); ok {
		t.Error("bogus cell lookup should miss")
	}
	t.Logf("\n%s", st.Table())
}

func TestTemporalStudyShape(t *testing.T) {
	lab := sharedLab(t)
	cls := []weather.Climate{weather.Newark}
	st, err := lab.RunTemporalStudy(cls, 8)
	if err != nil {
		t.Fatal(err)
	}
	allnd, _ := st.Cell("Newark", "All-ND")
	alldef, _ := st.Cell("Newark", "All-DEF")
	edef, _ := st.Cell("Newark", "Energy-DEF")

	// §5.2: All-DEF provides only minor changes vs All-ND.
	if d := alldef.MaxWorstDailyRange - allnd.MaxWorstDailyRange; d > 3 || d < -6 {
		t.Errorf("All-DEF max range %0.1f vs All-ND %0.1f: expected similar",
			alldef.MaxWorstDailyRange, allnd.MaxWorstDailyRange)
	}
	// Energy-DEF conserves energy relative to All-ND...
	if edef.PUE >= allnd.PUE {
		t.Errorf("Energy-DEF PUE %0.3f should beat All-ND %0.3f", edef.PUE, allnd.PUE)
	}
	// ...but widens variation (the paper's headline for this study).
	if edef.MaxWorstDailyRange <= allnd.MaxWorstDailyRange {
		t.Errorf("Energy-DEF max range %0.1f should exceed All-ND %0.1f",
			edef.MaxWorstDailyRange, allnd.MaxWorstDailyRange)
	}
	t.Logf("\n%s", st.Table())
}

func TestCostStudyShape(t *testing.T) {
	lab := sharedLab(t)
	cls := []weather.Climate{weather.Chad, weather.Iceland}
	st, err := lab.RunCostStudy(cls, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Locations) != 2 {
		t.Fatal("locations")
	}
	// §5.2: managing absolute temperature costs more than managing
	// variation in hot places (Chad), and very little in cold ones
	// (Iceland, where free cooling is nearly free).
	chadTemp := st.KWhPerDegTemp[0]
	iceTemp := st.KWhPerDegTemp[1]
	if chadTemp <= iceTemp {
		t.Errorf("temp-management cost Chad %0.0f kWh should exceed Iceland %0.0f", chadTemp, iceTemp)
	}
	if !strings.Contains(st.Table(), "kWh") {
		t.Error("table")
	}
	t.Logf("\n%s", st.Table())
}

func TestMaxTempStudyShape(t *testing.T) {
	lab := sharedLab(t)
	cls := []weather.Climate{weather.Newark}
	st, err := lab.RunMaxTempStudy(cls, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Locations) != 1 || len(st.Systems) != 3 {
		t.Fatalf("grid %v × %v", st.Locations, st.Systems)
	}
	base, _ := st.Cell("Newark", "Baseline")
	at30, _ := st.Cell("Newark", "All-ND@30")
	at25, _ := st.Cell("Newark", "All-ND@25")
	// §5.2: CoolAir's range-reduction benefit tends to be larger when
	// the operator accepts the higher 30°C maximum.
	red30 := base.MaxWorstDailyRange - at30.MaxWorstDailyRange
	red25 := base.MaxWorstDailyRange - at25.MaxWorstDailyRange
	if red30 < red25-2 {
		t.Errorf("reduction at Max=30 (%0.1f) should not trail Max=25 (%0.1f) by >2°C", red30, red25)
	}
	if !strings.Contains(st.Table(), "maximum temperature") {
		t.Error("table")
	}
	t.Logf("\n%s", st.Table())
}

func TestForecastStudyShape(t *testing.T) {
	lab := sharedLab(t)
	cls := []weather.Climate{weather.Newark}
	st, err := lab.RunForecastStudy(cls, 6)
	if err != nil {
		t.Fatal(err)
	}
	// §5.2: ±5°C forecast bias changes max range by ~1°C and PUE by
	// ~0.01 — the band absorbs forecast error. Allow slack for the
	// scaled run.
	minus5, _ := st.Cell("Newark", "All-ND-5")
	zero, ok := st.Cell("Newark", "All-ND+0")
	plus5, _ := st.Cell("Newark", "All-ND+5")
	if !ok || len(st.Systems) != 3 {
		t.Fatalf("systems: %v", st.Systems)
	}
	dRange := plus5.MaxWorstDailyRange - zero.MaxWorstDailyRange
	if dRange > 3 {
		t.Errorf("+5°C bias widened max range by %0.1f°C; the band should absorb most of it", dRange)
	}
	dPUE := minus5.PUE - zero.PUE
	if dPUE > 0.15 {
		t.Errorf("−5°C bias raised PUE by %0.3f; should be modest", dPUE)
	}
	if !strings.Contains(st.Table(), "forecast") {
		t.Error("table")
	}
	t.Logf("\n%s", st.Table())
}
