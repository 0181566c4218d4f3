package trace

import "math"

// PredictionPairer is the one predicted-vs-realized pairing stage: it
// judges the previous controller decision's winning prediction of the
// hottest inlet one period ahead against the next controller decision's
// observed hottest inlet. Only consecutive decisions pair up — a guard
// record, a controller record without a winning prediction, or a gap of
// more than 1.5 periods (a day jump) breaks the chain rather than
// scoring across it. The Ring's prediction_abs_error histogram, the
// series plane's prediction_abs_error_celsius series, and the trace
// inspector's prediction-error tables (Data.TopPredictionErrors,
// Data.DaySummaries) all consume it.
//
// The zero value is ready to use. It is not safe for concurrent use;
// callers pair under their own lock.
type PredictionPairer struct {
	have         bool
	pred         float64
	time, period float64
}

// Pair advances the chain by rec. When rec completes a pair it reports
// the previous decision's prediction and its absolute error against
// rec's observed hottest inlet.
func (p *PredictionPairer) Pair(rec *DecisionRecord) (predicted, absErr float64, ok bool) {
	if rec.Source != SourceController {
		p.have = false
		return 0, 0, false
	}
	if p.have {
		if dt := rec.Time - p.time; dt > 0 && dt <= 1.5*p.period {
			predicted, absErr, ok = p.pred, math.Abs(rec.ActualHottest-p.pred), true
		}
	}
	if pred, has := rec.WinnerPredictedHottest(); has {
		p.have, p.pred, p.time, p.period = true, pred, rec.Time, rec.PeriodSeconds
	} else {
		p.have = false
	}
	return predicted, absErr, ok
}
