package experiments

import (
	"fmt"
	"strings"

	"coolair/internal/metrics"
	"coolair/internal/weather"
	"coolair/internal/workload"
)

// Grid is the product of every location × system study: one summary per
// (location, system) run. Figures 8–13 and the §5.2 studies read it.
type Grid struct {
	Locations []string
	Systems   []string
	// Cells[loc][sys] is the summary of Systems[sys] run at
	// Locations[loc].
	Cells [][]metrics.Summary
}

// runStudy runs every system at every climate over yearDays sampled
// days of the trace (runGrid) and keeps each run's summary.
func (l *Lab) runStudy(cls []weather.Climate, systems []System, yearDays int, trace *workload.Trace) (Grid, error) {
	results, err := l.runGrid(cls, systems, YearDays(yearDays), trace)
	if err != nil {
		return Grid{}, err
	}
	g := Grid{Cells: make([][]metrics.Summary, len(cls))}
	for ci, c := range cls {
		g.Locations = append(g.Locations, c.Name)
		g.Cells[ci] = make([]metrics.Summary, len(systems))
		for si := range systems {
			g.Cells[ci][si] = results[ci][si].Summary
		}
	}
	for _, s := range systems {
		g.Systems = append(g.Systems, s.Name)
	}
	return g, nil
}

// Cell returns the summary for the named location and system.
func (g *Grid) Cell(loc, sys string) (metrics.Summary, bool) {
	for ci, l := range g.Locations {
		if l != loc {
			continue
		}
		for si, y := range g.Systems {
			if y == sys {
				return g.Cells[ci][si], true
			}
		}
	}
	return metrics.Summary{}, false
}

// table renders the grid with one row per system and one column per
// location, under the title and a header row. nameW is the width of
// the system-name column and colW that of each location column; cell
// formats one summary to fill its column.
func (g *Grid) table(title string, nameW, colW int, cell func(metrics.Summary) string) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-*s", nameW, "System")
	for _, loc := range g.Locations {
		fmt.Fprintf(&b, "%*s", colW, loc)
	}
	b.WriteByte('\n')
	for si, sys := range g.Systems {
		fmt.Fprintf(&b, "%-*s", nameW, sys)
		for ci := range g.Locations {
			b.WriteString(cell(g.Cells[ci][si]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// rangeCell formats a worst-sensor daily-range cell as avg (min–max).
func rangeCell(s metrics.Summary) string {
	return fmt.Sprintf("%8.1f (%3.1f–%4.1f)", s.AvgWorstDailyRange, s.MinWorstDailyRange, s.MaxWorstDailyRange)
}
