package experiments

import (
	"fmt"
	"strings"

	"coolair/internal/core"
	"coolair/internal/model"
	"coolair/internal/sim"
	"coolair/internal/units"
	"coolair/internal/weather"
	"coolair/internal/workload"
)

// Fig1Result holds the disk/inlet/outside temperature series under free
// cooling over two summer days (Figure 1). The paper ran a workload that
// kept disks 50% utilized on July 6–7.
type Fig1Result struct {
	Series []sim.SeriesPoint
}

// RunFig1 reproduces Figure 1: two July days at the prototype's home
// climate under the plain TKS (free-cooling) controller with a steady
// 50%-disk-utilization workload.
func (l *Lab) RunFig1() (*Fig1Result, error) {
	// A steady half-load keeps disks ~50% utilized as in the paper.
	res, err := l.Run(weather.Newark, BaselineSystem(), []int{186, 187}, steadyTrace(0.5), true)
	if err != nil {
		return nil, err
	}
	return &Fig1Result{Series: res.Series}, nil
}

// steadyTrace builds a synthetic day-long trace that keeps the cluster
// at a constant slot utilization.
func steadyTrace(util float64) *workload.Trace {
	t := &workload.Trace{Name: fmt.Sprintf("steady-%0.0f%%", util*100)}
	// One long job per 10 minutes occupying util of the slots.
	slots := int(util * 128)
	for i := 0; i < 144; i++ {
		at := float64(i) * 600
		t.Jobs = append(t.Jobs, workload.Job{
			ID: i, Arrival: at, Maps: slots, MapDur: 600, Deadline: at,
		})
	}
	return t
}

// Table renders the Figure 1 series (hourly samples).
func (r *Fig1Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — Disk, inlet, and outside temperatures under free cooling (two July days)\n")
	fmt.Fprintf(&b, "%6s %9s %9s %9s %9s %9s\n", "hour", "outside", "inlet-min", "inlet-max", "disk-min", "disk-max")
	for i, p := range r.Series {
		if i%30 != 0 { // hourly (series at 2-minute cadence)
			continue
		}
		h := p.Time/3600 - float64(int(p.Time/86400)*24)
		_ = h
		fmt.Fprintf(&b, "%6.1f %9.1f %9.1f %9.1f %9.1f %9.1f\n",
			float64(i)/30, float64(p.Outside), float64(p.InletMin), float64(p.InletMax),
			float64(p.DiskMin), float64(p.DiskMax))
	}
	return b.String()
}

// CorrelationDiskInlet computes the Pearson correlation between the
// hottest disk and inlet series — Figure 1's headline ("a strong
// correlation between air and disk temperatures").
func (r *Fig1Result) CorrelationDiskInlet() float64 {
	var sx, sy, sxx, syy, sxy, n float64
	for _, p := range r.Series {
		x, y := float64(p.InletMax), float64(p.DiskMax)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
		n++
	}
	num := n*sxy - sx*sy
	den := (n*sxx - sx*sx) * (n*syy - sy*sy)
	if den <= 0 {
		return 0
	}
	return num / sqrt(den)
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

// Fig5Result holds the model-validation error CDFs (Figure 5) plus the
// humidity validation quoted in §4.2.
type Fig5Result struct {
	Val model.ValidationResult
}

// RunFig5 trains the Cooling Model on the campaign and validates it
// against two held-out days under the default controller, exactly as the
// paper does with 5/1/13 and 6/20/13.
func (l *Lab) RunFig5() (*Fig5Result, error) {
	m, err := l.Model(sim.RealSim)
	if err != nil {
		return nil, err
	}
	env, ctrl, err := l.NewRun(weather.Newark, BaselineSystem())
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(env, ctrl, sim.RunConfig{
		Days: []int{120, 170}, Trace: l.Facebook(),
		KeepAllActive: true, CollectSnapshots: true,
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Val: model.Validate(m, res.Snapshots)}, nil
}

// Table renders the Figure 5 CDFs at the paper's thresholds.
func (r *Fig5Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — Modeling errors on held-out days (fraction of predictions within X°C)\n")
	fmt.Fprintf(&b, "%-26s %8s %8s %8s %8s\n", "Series", "0.5°C", "1°C", "2°C", "3°C")
	rows := []struct {
		name string
		errs []float64
	}{
		{"2-minutes", r.Val.Errs2Min},
		{"2-minutes no-transition", r.Val.Errs2MinSteady},
		{"10-minutes", r.Val.Errs10Min},
		{"10-minutes no-transition", r.Val.Errs10MinSteady},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-26s", row.name)
		for _, th := range []float64{0.5, 1, 2, 3} {
			fmt.Fprintf(&b, "%8.2f", model.FractionWithin(row.errs, th))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "Humidity: %0.0f%% of predictions within 5pp RH (paper: 97%%)\n",
		100*model.FractionWithin(r.Val.ErrsRH, 5))
	return b.String()
}

// DayRunResult holds one day-long managed run (Figures 6 and 7).
type DayRunResult struct {
	Name   string
	Series []sim.SeriesPoint
}

// RunFig6 reproduces the baseline day run (Figure 6): the baseline
// system on the Parasol infrastructure for one summer day.
func (l *Lab) RunFig6() (*DayRunResult, error) {
	res, err := l.Run(weather.Newark, BaselineSystem(), []int{182}, l.Facebook(), true)
	if err != nil {
		return nil, err
	}
	return &DayRunResult{Name: "baseline (Real-Sim)", Series: res.Series}, nil
}

// RunFig7 reproduces the CoolAir day runs (Figure 7): All-ND on the
// Parasol infrastructure (Real-Sim) and on the smooth infrastructure
// (Smooth-Sim), same day and workload.
func (l *Lab) RunFig7() (real, smooth *DayRunResult, err error) {
	day := []int{166}
	mk := func(fid sim.Fidelity) (*DayRunResult, error) {
		sys := CoolAirSystem(core.VersionAllND)
		sys.Fidelity = fid
		res, err := l.Run(weather.Newark, sys, day, l.Facebook(), true)
		if err != nil {
			return nil, err
		}
		return &DayRunResult{Name: fmt.Sprintf("All-ND (%s)", fid), Series: res.Series}, nil
	}
	if real, err = mk(sim.RealSim); err != nil {
		return nil, nil, err
	}
	if smooth, err = mk(sim.SmoothSim); err != nil {
		return nil, nil, err
	}
	return real, smooth, nil
}

// Table renders a day run as an hourly series.
func (r *DayRunResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Day run — %s\n", r.Name)
	fmt.Fprintf(&b, "%6s %9s %9s %9s %6s %14s\n", "hour", "outside", "inlet-min", "inlet-max", "fan%", "mode")
	for i, p := range r.Series {
		if i%15 != 0 { // half-hourly
			continue
		}
		fmt.Fprintf(&b, "%6.1f %9.1f %9.1f %9.1f %6.0f %14v\n",
			float64(i)/30, float64(p.Outside), float64(p.InletMin), float64(p.InletMax),
			p.FanSpeed*100, p.Mode)
	}
	return b.String()
}

// Smoothness summarizes how violently a day run's inlets moved: the
// maximum inlet change over any 12-minute window, °C. The paper's
// Figure 7 point is that Real-Sim shows abrupt ~9°C moves while
// Smooth-Sim stays gentle.
func (r *DayRunResult) Smoothness() float64 {
	const window = 6 // 6 × 2-minute samples = 12 minutes
	worst := 0.0
	for i := 0; i+window < len(r.Series); i++ {
		d := float64(r.Series[i+window].InletMax - r.Series[i].InletMax)
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

var _ = units.Celsius(0)
