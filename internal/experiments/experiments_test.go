package experiments

import (
	"strings"
	"testing"

	"coolair/internal/metrics"
)

// The experiment tests run scaled-down years (12 sampled days) so the
// whole suite stays fast; the cmd/coolair-experiments binary runs the
// full 52-day years.

func sharedLab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() { labShared = NewLab() })
	return labShared
}

var (
	labShared *Lab
	labOnce   syncOnce
)

type syncOnce struct{ done bool }

func (o *syncOnce) Do(f func()) {
	if !o.done {
		f()
		o.done = true
	}
}

func TestYearStudyShapes(t *testing.T) {
	lab := sharedLab(t)
	st, err := lab.RunYearStudy(nil, nil, 12, lab.Facebook())
	if err != nil {
		t.Fatal(err)
	}

	// Figure 8 shape: CoolAir keeps average violations small everywhere
	// (sub-degree even at the constantly-hot sites, where our simulated
	// AC works against a large envelope heat influx; see EXPERIMENTS.md
	// for the calibrated divergence), and the Variation version — which
	// spends energy freely — keeps them near zero as in the paper.
	hot := map[string]bool{"Chad": true, "Singapore": true}
	for ci, loc := range st.Locations {
		for si, sys := range st.Systems {
			v := st.Cells[ci][si].AvgViolation
			if sys == "Baseline" {
				continue
			}
			limit := 0.3
			if hot[loc] {
				limit = 0.75
			}
			if v > limit {
				t.Errorf("Fig8: %s at %s violates %0.2f°C, want < %0.2f", sys, loc, v, limit)
			}
		}
	}
	vSing, _ := st.Cell("Singapore", "Variation")
	bSing, _ := st.Cell("Singapore", "Baseline")
	if vSing.AvgViolation >= bSing.AvgViolation {
		t.Errorf("Fig8: Variation Singapore violations %0.2f should beat baseline %0.2f",
			vSing.AvgViolation, bSing.AvgViolation)
	}

	// Figure 9 shape: All-ND cuts the maximum daily range vs the
	// baseline at the cold/cool-season locations.
	for _, loc := range []string{"Newark", "Santiago", "Iceland"} {
		b, _ := st.Cell(loc, "Baseline")
		a, _ := st.Cell(loc, "All-ND")
		if a.MaxWorstDailyRange >= b.MaxWorstDailyRange {
			t.Errorf("Fig9: All-ND max range %0.1f at %s should beat baseline %0.1f",
				a.MaxWorstDailyRange, loc, b.MaxWorstDailyRange)
		}
		v, _ := st.Cell(loc, "Variation")
		if v.AvgWorstDailyRange >= b.AvgWorstDailyRange {
			t.Errorf("Fig9: Variation avg range %0.1f at %s should beat baseline %0.1f",
				v.AvgWorstDailyRange, loc, b.AvgWorstDailyRange)
		}
	}

	// Figure 10 shape: the baseline's PUE is highest in the hot
	// climates; the Energy version's absolute cooling energy is far
	// lower there (its PUE stays near the baseline's because CoolAir's
	// server sleeping also shrinks the IT denominator — the effect the
	// paper itself flags for Santiago; see EXPERIMENTS.md).
	bChad, _ := st.Cell("Chad", "Baseline")
	eChad, _ := st.Cell("Chad", "Energy")
	if eChad.PUE > bChad.PUE+0.03 {
		t.Errorf("Fig10: Energy PUE %0.3f at Chad should stay near baseline %0.3f", eChad.PUE, bChad.PUE)
	}
	if eChad.CoolingKWh >= bChad.CoolingKWh {
		t.Errorf("Fig10: Energy cooling %0.1f kWh at Chad should be far below baseline %0.1f",
			eChad.CoolingKWh, bChad.CoolingKWh)
	}
	bIce, _ := st.Cell("Iceland", "Baseline")
	if bChad.PUE <= bIce.PUE {
		t.Errorf("Fig10: Chad baseline PUE %0.3f should exceed Iceland %0.3f", bChad.PUE, bIce.PUE)
	}
	// Variation costs energy relative to Energy (the paper's
	// "managing variation incurs a substantial cooling energy penalty").
	vChad, _ := st.Cell("Chad", "Variation")
	if vChad.CoolingKWh <= eChad.CoolingKWh {
		t.Errorf("Fig10: Variation cooling %0.1f kWh at Chad should exceed Energy %0.1f",
			vChad.CoolingKWh, eChad.CoolingKWh)
	}

	// Tables render with all locations.
	for _, tbl := range []string{st.Fig8Table(), st.Fig9Table(), st.Fig10Table()} {
		for _, loc := range st.Locations {
			if !strings.Contains(tbl, loc) {
				t.Errorf("table missing location %s:\n%s", loc, tbl)
			}
		}
	}
	t.Logf("\n%s\n%s\n%s", st.Fig8Table(), st.Fig9Table(), st.Fig10Table())
}

func TestCellLookup(t *testing.T) {
	g := &Grid{Locations: []string{"A"}, Systems: []string{"S"}}
	g.Cells = append(g.Cells, make([]metrics.Summary, 1))
	if _, ok := g.Cell("A", "S"); !ok {
		t.Error("expected hit")
	}
	if _, ok := g.Cell("B", "S"); ok {
		t.Error("expected miss")
	}
}

func TestFig1DiskCorrelation(t *testing.T) {
	lab := sharedLab(t)
	r, err := lab.RunFig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) == 0 {
		t.Fatal("no series")
	}
	// The paper's point: strong correlation between inlet and disk
	// temperatures.
	if c := r.CorrelationDiskInlet(); c < 0.8 {
		t.Errorf("disk/inlet correlation %0.2f, want ≥ 0.8", c)
	}
	// Disks sit well above inlets at 50% utilization.
	mid := r.Series[len(r.Series)/2]
	if d := mid.DiskMax - mid.InletMax; d < 8 || d > 20 {
		t.Errorf("disk offset %0.1f°C, want 8–20 (Fig 1 shows ~12)", d)
	}
	if !strings.Contains(r.Table(), "Figure 1") {
		t.Error("table header missing")
	}
}

func TestFig5Validation(t *testing.T) {
	lab := sharedLab(t)
	r, err := lab.RunFig5()
	if err != nil {
		t.Fatal(err)
	}
	tbl := r.Table()
	if !strings.Contains(tbl, "10-minutes no-transition") {
		t.Errorf("missing rows:\n%s", tbl)
	}
	t.Logf("\n%s", tbl)
}

func TestFig7SmoothnessContrast(t *testing.T) {
	lab := sharedLab(t)
	real, smooth, err := lab.RunFig7()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 7's finding: the smooth infrastructure keeps temperatures
	// more stable than Parasol's abrupt devices under the same manager.
	if smooth.Smoothness() > real.Smoothness()+1 {
		t.Errorf("smooth infra moved %0.1f°C/12min vs real %0.1f; expected smoother",
			smooth.Smoothness(), real.Smoothness())
	}
	t.Logf("real 12-min worst move: %0.1f°C; smooth: %0.1f°C", real.Smoothness(), smooth.Smoothness())
}

func TestWorldStudySmall(t *testing.T) {
	lab := sharedLab(t)
	st, err := lab.RunWorldStudy(24, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Sites) != 24 {
		t.Fatalf("%d sites", len(st.Sites))
	}
	baseRange, caRange, basePUE, caPUE := st.Averages()
	if caRange >= baseRange {
		t.Errorf("Fig12: average max range should fall (%0.1f → %0.1f)", baseRange, caRange)
	}
	// PUE stays roughly level (the paper: 1.08 → 1.09).
	if caPUE > basePUE+0.06 {
		t.Errorf("Fig13: PUE penalty too large: %0.3f → %0.3f", basePUE, caPUE)
	}
	if !strings.Contains(st.Fig12Table(), "Figure 12") || !strings.Contains(st.Fig13Table(), "Figure 13") {
		t.Error("table headers missing")
	}
	if w := st.WorstSites(3); len(w) != 3 {
		t.Errorf("WorstSites returned %d", len(w))
	}
	t.Logf("\n%s\n%s", st.Fig12Table(), st.Fig13Table())
}
