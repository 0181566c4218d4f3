package trace

import "sort"

// DaySummary aggregates one simulated day's decisions for the
// coolair-trace inspector.
type DaySummary struct {
	Day int
	// Decisions counts controller records; Holds those among them that
	// held the plant state; GuardActions the guard annotation records.
	Decisions, Holds, GuardActions int
	// ModeDecisions histograms the chosen cooling mode (indexed by the
	// mode's integer code; codes ≥ len are folded into the last slot).
	ModeDecisions [8]int
	// MeanWinnerPenalty and MaxWinnerPenalty summarize the winning
	// candidates' scores over non-hold decisions.
	MeanWinnerPenalty, MaxWinnerPenalty float64
	// MeanAbsPredErr and MaxAbsPredErr summarize |predicted − realized|
	// hottest-inlet error between this day's consecutive decisions.
	MeanAbsPredErr, MaxAbsPredErr float64
	// PredErrSamples is the number of paired decisions behind the
	// prediction-error stats.
	PredErrSamples int
}

// DaySummaries folds the decision records into per-day aggregates,
// ordered by day. Records must be in chronological order (as drained
// from a Ring or decoded from a trace file).
func (t *Data) DaySummaries() []DaySummary {
	byDay := map[int]*DaySummary{}
	order := []int{}
	get := func(day int) *DaySummary {
		s := byDay[day]
		if s == nil {
			s = &DaySummary{Day: day}
			byDay[day] = s
			order = append(order, day)
		}
		return s
	}
	penCount := map[int]int{}
	for _, pe := range t.predictionErrors() {
		s := get(int(pe.Day))
		s.PredErrSamples++
		s.MeanAbsPredErr += pe.AbsError
		if pe.AbsError > s.MaxAbsPredErr {
			s.MaxAbsPredErr = pe.AbsError
		}
	}
	for i := range t.Decisions {
		d := &t.Decisions[i]
		s := get(int(d.Day))
		if d.Source == SourceGuard {
			s.GuardActions++
			continue
		}
		s.Decisions++
		mi := int(d.Mode)
		if mi < 0 {
			mi = 0
		}
		if mi >= len(s.ModeDecisions) {
			mi = len(s.ModeDecisions) - 1
		}
		s.ModeDecisions[mi]++
		if d.Hold {
			s.Holds++
			continue
		}
		if d.Winner >= 0 && d.Winner < d.NumCandidates {
			pen := d.Candidates[d.Winner].Penalty
			s.MeanWinnerPenalty += pen
			if penCount[int(d.Day)] == 0 || pen > s.MaxWinnerPenalty {
				s.MaxWinnerPenalty = pen
			}
			penCount[int(d.Day)]++
		}
	}
	out := make([]DaySummary, 0, len(order))
	sort.Ints(order)
	for _, day := range order {
		s := byDay[day]
		if n := penCount[day]; n > 0 {
			s.MeanWinnerPenalty /= float64(n)
		} else {
			s.MeanWinnerPenalty = 0
		}
		if s.PredErrSamples > 0 {
			s.MeanAbsPredErr /= float64(s.PredErrSamples)
		}
		out = append(out, *s)
	}
	return out
}

// PredError is one predicted-vs-realized comparison: the hottest inlet
// a decision's winner predicted for the end of its horizon, against
// what the next decision observed.
type PredError struct {
	// Time and Day are of the realizing (second) decision.
	Time float64
	Day  int32
	// Predicted and Actual hottest inlet (°C), and |Predicted−Actual|.
	Predicted, Actual float64
	AbsError          float64
}

// predictionErrors pairs the decisions through PredictionPairer, the
// stage the Ring's histogram and the series plane use.
func (t *Data) predictionErrors() []PredError {
	var out []PredError
	var p PredictionPairer
	for i := range t.Decisions {
		d := &t.Decisions[i]
		if pred, abs, ok := p.Pair(d); ok {
			out = append(out, PredError{
				Time: d.Time, Day: d.Day,
				Predicted: pred, Actual: d.ActualHottest, AbsError: abs,
			})
		}
	}
	return out
}

// TopPredictionErrors returns the n largest |predicted − realized|
// hottest-inlet errors, worst first (fewer when the trace has fewer
// paired decisions).
func (t *Data) TopPredictionErrors(n int) []PredError {
	errs := t.predictionErrors()
	sort.Slice(errs, func(a, b int) bool {
		if errs[a].AbsError != errs[b].AbsError { //coolair:allow-floateq sort tie-break on exact equality
			return errs[a].AbsError > errs[b].AbsError
		}
		return errs[a].Time < errs[b].Time
	})
	if n > 0 && len(errs) > n {
		errs = errs[:n]
	}
	return errs
}
