package mlearn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedMedian is medianSelect's oracle: the median of a sorted copy,
// the computation FitLMS used before it selected.
func sortedMedian(a []float64) float64 {
	s := append([]float64(nil), a...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// sameMedian compares two medians bit for bit, with two exceptions
// where sort.Float64s itself leaves the bits unspecified: any NaN equals
// any NaN (sort does not order NaNs among themselves), and -0 equals +0
// (sort does not order them either, so which zero lands in the middle
// depends on the sort's internals). Squared residuals are never -0, so
// the second exception never reaches FitLMS.
func sameMedian(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if a == 0 && b == 0 {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkMedianSelect requires medianSelect to agree with the sorted
// median on vals and to leave a permutation of vals behind.
func checkMedianSelect(t *testing.T, vals []float64) {
	t.Helper()
	want := sortedMedian(vals)
	buf := append([]float64(nil), vals...)
	if got := medianSelect(buf); !sameMedian(got, want) {
		t.Fatalf("medianSelect(%v) = %v, sorted median %v", vals, got, want)
	}
	a, b := append([]float64(nil), vals...), buf
	sort.Float64s(a)
	sort.Float64s(b)
	for i := range a {
		if !sameMedian(a[i], b[i]) {
			t.Fatalf("medianSelect(%v) left %v, not a permutation", vals, buf)
		}
	}
}

// medianCases covers the shapes the selection has to get right: lengths
// 1 and 2, odd and even lengths, heavy duplicates, signed zeros,
// infinities and NaNs (first, middle, last, a majority, all).
func medianCases() [][]float64 {
	nan, inf := math.NaN(), math.Inf(1)
	negz := math.Copysign(0, -1)
	return [][]float64{
		{3},
		{nan},
		{2, 1},
		{nan, 1},
		{1, nan},
		{5, 1, 4, 2, 3},
		{6, 1, 5, 2, 4, 3},
		{1, 1, 1, 1, 1, 1},
		{2, 2, 1, 2, 2, 1, 2},
		{0, 0, 1, 1, 0, 1, 1, 0},
		{0, negz, negz, 0, 1},
		{negz, 0},
		{inf, -inf, 1},
		{inf, -inf},
		{inf, inf, 1, 2},
		{-inf, -inf, -inf, 1},
		{nan, 3, 1, 2},
		{3, nan, 1, 2, nan},
		{nan, nan, nan, 1, 2},
		{nan, nan, 1, 2},
		{nan, nan, nan},
		{1e300, -1e300, 5e-324, -5e-324},
	}
}

func TestMedianSelectMatchesSort(t *testing.T) {
	for _, c := range medianCases() {
		checkMedianSelect(t, c)
	}
	// Squared-residual-like data at FitLMS's sizes, with and without
	// heavy duplication.
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 300; n++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.ExpFloat64()
			if n%3 == 0 {
				vals[i] = float64(rng.Intn(4))
			}
		}
		checkMedianSelect(t, vals)
	}
}

// FuzzMedianSelect checks medianSelect against the sorted median on
// arbitrary inputs. The first byte picks the decoding: odd values map
// each following byte onto a small alphabet of duplicates, zeros of
// both signs, infinities and NaN; even values read raw 8-byte float64
// bit patterns, which reach every NaN payload and subnormal.
func FuzzMedianSelect(f *testing.F) {
	for _, c := range medianCases() {
		raw := []byte{0}
		for _, v := range c {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(raw)
	}
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 1})
	f.Add([]byte{1, 7, 7, 7, 6, 5, 0, 0, 7})
	alphabet := []float64{0, math.Copysign(0, -1), 1, 1, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var vals []float64
		if data[0]%2 == 1 {
			for _, b := range data[1:] {
				vals = append(vals, alphabet[int(b)%len(alphabet)])
			}
		} else {
			for raw := data[1:]; len(raw) >= 8; raw = raw[8:] {
				vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			}
		}
		if len(vals) == 0 {
			return
		}
		checkMedianSelect(t, vals)
	})
}
