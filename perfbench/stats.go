package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (which it
// sorts in place) and whether the sample supports it, i.e. whether at
// least minBeyond samples lie beyond it. Failed operations are passed in
// as +Inf, so they count against the percentile like any slow one.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return samples[idx], n-1-idx >= minBeyond
}

// median is the middle of the values (the mean of the two middle ones
// for an even count); it sorts a copy.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// millis converts durations to float milliseconds, mapping a negative
// duration (the marker for a failed request) to +Inf.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		if d < 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// rung is the outcome of one fixed-rate step of the open-loop search.
type rung struct {
	rate float64
	// p99ms is the step's p99 latency from due time; ok99 reports
	// whether the step had enough samples to support it.
	p99ms float64
	ok99  bool
	// failed counts errors, timeouts and non-2xx replies.
	failed int
	// growth is how many more requests were due but unsent at the end
	// of the schedule than at its midpoint.
	growth int
}

// meets reports whether the step held the latency limit: a supported
// p99 at or under limitMs, no failed request, and no growing backlog,
// i.e. the queue of unsent requests grew by at most a tenth of the
// limit's worth of requests over the step's second half.
func (r rung) meets(limitMs float64) bool {
	return r.ok99 && r.p99ms <= limitMs && r.failed == 0 &&
		float64(r.growth) <= r.rate*limitMs/1000/10
}

// bisectSteps is how many times searchRate halves the bracket (in log
// space) once a doubling has missed the limit: four steps resolve the
// highest rate to within 2^(1/16), about 4.4%.
const bisectSteps = 4

// searchRate finds the highest fixed offered rate that meets the limit.
// It doubles the rate from start until a step misses, then bisects
// geometrically between the last rate that met the limit and the first
// that missed. try runs one step at a fixed rate and reports false once
// the time budget is spent, which ends the search with what it has. The
// second result is false when no rate met the limit.
func searchRate(start, limitMs float64, try func(rate float64) (rung, bool)) (float64, bool) {
	lo, hi := 0.0, 0.0
	for rate := start; hi == 0; rate *= 2 {
		r, ok := try(rate)
		if !ok {
			return lo, lo > 0
		}
		if r.meets(limitMs) {
			lo = rate
		} else {
			hi = rate
		}
	}
	if lo == 0 {
		return 0, false
	}
	for i := 0; i < bisectSteps; i++ {
		mid := math.Sqrt(lo * hi)
		r, ok := try(mid)
		if !ok {
			break
		}
		if r.meets(limitMs) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// windowedP99 splits per-request latencies (in request order) into
// consecutive windows of the fewest requests that support a p99 and
// returns the median of the windows' p99s, with the window count. One
// stall then moves one window, not the whole run's figure.
func windowedP99(ms []float64) (float64, int) {
	const window = 100 * minBeyond // the fewest samples with minBeyond past the p99
	var p99s []float64
	for w := 0; w+window <= len(ms); w += window {
		v, _ := percentile(append([]float64(nil), ms[w:w+window]...), 0.99)
		p99s = append(p99s, v)
	}
	return median(p99s), len(p99s)
}
