package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		q         float64
		supported bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.50, true},
		{19, 0.50, false},
		{100, 0.90, true},
		{99, 0.90, false},
	} {
		s := make([]float64, tc.n)
		for i := range s {
			s[i] = float64(tc.n - i) // reversed: percentile must sort
		}
		v, ok := percentile(s, tc.q)
		if ok != tc.supported {
			t.Errorf("n=%d q=%v: supported %t, want %t", tc.n, tc.q, ok, tc.supported)
		}
		if want := math.Ceil(tc.q * float64(tc.n)); v != want {
			t.Errorf("n=%d q=%v: value %v, want nearest rank %v", tc.n, tc.q, v, want)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample supported a median")
	}
}

func TestFailuresCountAgainstPercentile(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 1
	}
	for i := 0; i < 11; i++ {
		lat[i] = math.Inf(1) // 11 failed requests: more than 1%
	}
	p99, ok := percentile(lat, 0.99)
	if !ok || !math.IsInf(p99, 1) {
		t.Errorf("p99 with 1.1%% failures = %v (supported %t), want +Inf", p99, ok)
	}
}

func TestRungMeets(t *testing.T) {
	good := rung{rate: 1000, p99ms: 10, ok99: true}
	for _, tc := range []struct {
		name string
		r    rung
		want bool
	}{
		{"within the limit", good, true},
		{"p99 over the limit", rung{rate: 1000, p99ms: 300, ok99: true}, false},
		{"p99 unsupported", rung{rate: 1000, p99ms: 10}, false},
		{"one failure", rung{rate: 1000, p99ms: 10, ok99: true, failed: 1}, false},
		{"backlog growing", rung{rate: 1000, p99ms: 10, ok99: true, growth: 26}, false},
		{"backlog steady", rung{rate: 1000, p99ms: 10, ok99: true, growth: 25}, true},
	} {
		if got := tc.r.meets(250); got != tc.want {
			t.Errorf("%s: meets = %t, want %t", tc.name, got, tc.want)
		}
	}
}

func TestSearchRate(t *testing.T) {
	const capacity = 5000.0
	step := func(failOver bool) func(rate float64) (rung, bool) {
		return func(rate float64) (rung, bool) {
			r := rung{rate: rate, p99ms: 5, ok99: true}
			if rate > capacity {
				if failOver {
					r.failed = 1 // a timeout or error, not a slow reply
				} else {
					r.p99ms = 400
				}
			}
			return r, true
		}
	}
	for _, failOver := range []bool{false, true} {
		got, ok := searchRate(1000, 250, step(failOver))
		if !ok || got > capacity || got < capacity/math.Pow(2, 1.0/16) {
			t.Errorf("failures=%t: found %v (ok %t), want within 2^(1/16) below %v", failOver, got, ok, capacity)
		}
	}
	if _, ok := searchRate(8000, 250, step(false)); ok {
		t.Error("a search whose first rate misses the limit reported a rate")
	}
	budget := 2
	got, ok := searchRate(1000, 250, func(rate float64) (rung, bool) {
		if budget == 0 {
			return rung{}, false
		}
		budget--
		return rung{rate: rate, p99ms: 5, ok99: true}, true
	})
	if !ok || got != 2000 {
		t.Errorf("search cut short after 1000 and 2000 met the limit: got %v (ok %t), want 2000", got, ok)
	}
}

func TestWindowedP99(t *testing.T) {
	ms := make([]float64, 3500)
	for i := range ms {
		ms[i] = 1
	}
	for i := 0; i < 20; i++ {
		ms[1000+i] = 100 // one stall, inside the second window
	}
	p99, windows := windowedP99(ms)
	if windows != 3 || p99 != 1 {
		t.Errorf("windowedP99 = %v over %d windows, want 1 over 3", p99, windows)
	}
}

func TestScheduleSharesClassesEvenlyAndFollowsTheSeed(t *testing.T) {
	pop := population([]string{"a-0", "b-1", "c-2"})
	a := schedule(pop, 600, rand.New(rand.NewSource(1)))
	b := schedule(pop, 600, rand.New(rand.NewSource(1)))
	c := schedule(pop, 600, rand.New(rand.NewSource(2)))
	var counts [numKinds]int
	same, differs := true, false
	for i := range a {
		counts[a[i].kind]++
		same = same && a[i] == b[i]
		differs = differs || a[i] != c[i]
	}
	for k, n := range counts {
		if n != 100 {
			t.Errorf("class %s: %d of 600 requests, want 100", kindNames[k], n)
		}
	}
	if !same || !differs {
		t.Errorf("same seed same order: %t; other seed other order: %t", same, differs)
	}
}
