package experiments

import (
	"fmt"
	"sort"
	"strings"

	"coolair/internal/core"
	"coolair/internal/weather"
)

// WorldStudy is Figures 12 and 13: the world-wide sweep comparing All-ND
// to the baseline at up to 1520 locations — per-site reduction in
// maximum daily range and in yearly PUE.
type WorldStudy struct {
	Sites []WorldSite
}

// WorldSite is one location's outcome.
type WorldSite struct {
	Name     string
	Lat, Lon float64
	// RangeReduction = baseline max range − All-ND max range (positive
	// is an improvement).
	RangeReduction float64
	// PUEReduction = baseline PUE − All-ND PUE (positive is an
	// improvement; the paper reports slight average increases, i.e.
	// small negative reductions, at cold sites).
	PUEReduction                      float64
	BaselineMaxRange, CoolAirMaxRange float64
	BaselinePUE, CoolAirPUE           float64
}

// RunWorldStudy evaluates nSites of the world grid over yearDays
// sampled days. nSites ≤ 0 runs the full 1520-site grid.
func (l *Lab) RunWorldStudy(nSites, yearDays int) (*WorldStudy, error) {
	cls := worldSubsample(nSites)
	systems := []System{BaselineSystem(), CoolAirSystem(core.VersionAllND)}
	g, err := l.runStudy(cls, systems, yearDays, l.Facebook())
	if err != nil {
		return nil, err
	}
	st := &WorldStudy{}
	for ci, c := range cls {
		base, ca := g.Cells[ci][0], g.Cells[ci][1]
		st.Sites = append(st.Sites, WorldSite{
			Name: c.Name, Lat: c.Lat, Lon: c.Lon,
			RangeReduction:   base.MaxWorstDailyRange - ca.MaxWorstDailyRange,
			PUEReduction:     base.PUE - ca.PUE,
			BaselineMaxRange: base.MaxWorstDailyRange,
			CoolAirMaxRange:  ca.MaxWorstDailyRange,
			BaselinePUE:      base.PUE,
			CoolAirPUE:       ca.PUE,
		})
	}
	return st, nil
}

// worldSubsample returns n climates evenly subsampled from the world
// grid, preserving its geographic spread (n ≤ 0 or beyond the grid's
// size returns the whole grid). RunWorldStudy and the fleet spec's
// world:N both call it, so a fleet runs exactly the sites the offline
// sweep would.
func worldSubsample(n int) []weather.Climate {
	grid := weather.WorldGrid()
	if n <= 0 || n >= len(grid) {
		return grid
	}
	sub := make([]weather.Climate, 0, n)
	for i := 0; i < n; i++ {
		sub = append(sub, grid[i*len(grid)/n])
	}
	return sub
}

// Averages returns the sweep-wide mean max ranges and PUEs — the paper
// reports 18.6→12.1°C for +0.01 PUE (1.08→1.09) on average.
func (s *WorldStudy) Averages() (baseRange, caRange, basePUE, caPUE float64) {
	n := float64(len(s.Sites))
	if n == 0 {
		return
	}
	for _, site := range s.Sites {
		baseRange += site.BaselineMaxRange
		caRange += site.CoolAirMaxRange
		basePUE += site.BaselinePUE
		caPUE += site.CoolAirPUE
	}
	return baseRange / n, caRange / n, basePUE / n, caPUE / n
}

// rangeBuckets are Figure 12's legend bands (°C of max-range reduction).
var rangeBuckets = []struct {
	lo, hi float64
	label  string
}{
	{-100, 0, "<0°C (worse)"},
	{0, 2, "0–2°C"},
	{2, 4, "2–4°C"},
	{4, 6, "4–6°C"},
	{6, 8, "6–8°C"},
	{8, 10, "8–10°C"},
	{10, 14, "10–14°C"},
	{14, 1000, "≥14°C"},
}

// Fig12Table renders the distribution of max-range reductions (the
// histogram behind Figure 12's map) and per-latitude-band averages.
func (s *WorldStudy) Fig12Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12 — World-wide reduction in max daily range (All-ND vs baseline, %d sites)\n", len(s.Sites))
	counts := make([]int, len(rangeBuckets))
	for _, site := range s.Sites {
		for i, bk := range rangeBuckets {
			if site.RangeReduction >= bk.lo && site.RangeReduction < bk.hi {
				counts[i]++
				break
			}
		}
	}
	for i, bk := range rangeBuckets {
		fmt.Fprintf(&b, "%-14s %5d sites (%4.1f%%)\n", bk.label, counts[i], 100*float64(counts[i])/float64(len(s.Sites)))
	}
	b.WriteString(s.latitudeBands(func(w WorldSite) float64 { return w.RangeReduction }, "Δmax-range °C"))
	return b.String()
}

// Fig13Table renders the distribution of PUE reductions (Figure 13).
func (s *WorldStudy) Fig13Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13 — World-wide reduction in yearly PUE (All-ND vs baseline, %d sites)\n", len(s.Sites))
	buckets := []struct {
		lo, hi float64
		label  string
	}{
		{-1, -0.02, "worse by >0.02"},
		{-0.02, -0.01, "−0.02 to −0.01"},
		{-0.01, 0, "−0.01 to 0"},
		{0, 0.01, "0 to 0.01"},
		{0.01, 0.02, "0.01 to 0.02"},
		{0.02, 1, ">0.02 better"},
	}
	counts := make([]int, len(buckets))
	for _, site := range s.Sites {
		for i, bk := range buckets {
			if site.PUEReduction >= bk.lo && site.PUEReduction < bk.hi {
				counts[i]++
				break
			}
		}
	}
	for i, bk := range buckets {
		fmt.Fprintf(&b, "%-16s %5d sites (%4.1f%%)\n", bk.label, counts[i], 100*float64(counts[i])/float64(len(s.Sites)))
	}
	b.WriteString(s.latitudeBands(func(w WorldSite) float64 { return w.PUEReduction }, "ΔPUE"))
	return b.String()
}

// latitudeBands summarizes a per-site value by absolute-latitude band,
// the textual equivalent of the paper's map coloring (cold climates vs
// the tropics).
func (s *WorldStudy) latitudeBands(val func(WorldSite) float64, label string) string {
	type band struct {
		lo, hi float64
		sum    float64
		n      int
	}
	bands := []band{{0, 15, 0, 0}, {15, 30, 0, 0}, {30, 45, 0, 0}, {45, 60, 0, 0}, {60, 90, 0, 0}}
	for _, site := range s.Sites {
		lat := site.Lat
		if lat < 0 {
			lat = -lat
		}
		for i := range bands {
			if lat >= bands[i].lo && lat < bands[i].hi {
				bands[i].sum += val(site)
				bands[i].n++
				break
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "By |latitude| (avg %s): ", label)
	for _, bd := range bands {
		if bd.n == 0 {
			continue
		}
		fmt.Fprintf(&b, "%0.0f–%0.0f°: %+0.2f (%d)  ", bd.lo, bd.hi, bd.sum/float64(bd.n), bd.n)
	}
	b.WriteByte('\n')
	return b.String()
}

// WorstSites lists the n sites where CoolAir helps least (diagnostics;
// the paper notes <2% of locations regress, by under 1°C).
func (s *WorldStudy) WorstSites(n int) []WorldSite {
	sorted := append([]WorldSite(nil), s.Sites...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].RangeReduction < sorted[b].RangeReduction })
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}
