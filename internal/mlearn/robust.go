package mlearn

import (
	"math"
	"math/rand"
	"sort"
)

// FitLMS fits a least-median-of-squares regression: among many candidate
// OLS fits on random subsamples, it keeps the one whose *median* squared
// residual over the full data is smallest. LMS tolerates up to ~50%
// outliers, which makes it robust to the sensor glitches and regime
// mislabeling that contaminate monitored datacenter data. The paper's
// Cooling Learner tries plain linear and least-median-square fits and
// keeps whichever validates better (§4.2).
//
// trials controls how many random subsamples are evaluated; 50–200 is
// typical. The result is deterministic for a given seed.
func FitLMS(X [][]float64, y []float64, trials int, seed int64) (*Linear, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, ErrDegenerate
	}
	p := len(X[0])
	sub := 2*(p+1) + 2 // subsample size: comfortably above the minimum
	if sub > n {
		sub = n
	}
	if trials < 1 {
		trials = 50
	}
	rng := rand.New(rand.NewSource(seed))

	var best *Linear
	bestMed := 0.0
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sx := make([][]float64, sub)
	sy := make([]float64, sub)
	ols := newOLSScratch(p + 1)
	r2 := make([]float64, n)
	for t := 0; t < trials; t++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for i := 0; i < sub; i++ {
			sx[i] = X[idx[i]]
			sy[i] = y[idx[i]]
		}
		m, err := fitOLS(sx, sy, 1e-8, ols)
		if err != nil {
			continue
		}
		med := medianSquaredResidual(m, X, y, r2)
		if best == nil || med < bestMed {
			best, bestMed = m, med
		}
	}
	if best == nil {
		return nil, ErrDegenerate
	}
	// Final polish: refit OLS on the inlier half selected by the best
	// candidate, the standard reweighting step after LMS.
	type rr struct {
		i  int
		r2 float64
	}
	rs := make([]rr, n)
	for i, row := range X {
		r := y[i] - best.Predict(row)
		rs[i] = rr{i, r * r}
	}
	sort.Slice(rs, func(a, b int) bool { return rs[a].r2 < rs[b].r2 })
	keep := n/2 + p + 2
	if keep > n {
		keep = n
	}
	kx := make([][]float64, keep)
	ky := make([]float64, keep)
	for i := 0; i < keep; i++ {
		kx[i] = X[rs[i].i]
		ky[i] = y[rs[i].i]
	}
	if m, err := fitOLS(kx, ky, 1e-8, ols); err == nil {
		return m, nil
	}
	return best, nil
}

// medianSquaredResidual returns the median of m's squared residuals
// over the data, using r2 (len(X)) as its buffer.
func medianSquaredResidual(m *Linear, X [][]float64, y []float64, r2 []float64) float64 {
	for i, row := range X {
		r := y[i] - m.Predict(row)
		r2[i] = r * r
	}
	return medianSelect(r2)
}

// medianSelect returns the median of a non-empty slice, reordering it
// in place: the middle element of the sorted values for odd lengths,
// the mean of the two middle ones for even lengths. It selects instead
// of sorting (expected O(n)) and orders values as sort.Float64s does,
// NaNs first, so the result equals the median of the sorted slice.
func medianSelect(a []float64) float64 {
	// Move the NaNs to the front; nan counts them.
	nan := 0
	for i, v := range a {
		if math.IsNaN(v) {
			a[i], a[nan] = a[nan], a[i]
			nan++
		}
	}
	mid := len(a) / 2
	if mid < nan {
		return a[mid]
	}
	rest := a[nan:]
	k := mid - nan
	hi := selectKth(rest, k)
	if len(a)%2 == 1 {
		return hi
	}
	if k == 0 { // the (mid-1)th value is the last NaN
		return (a[mid-1] + hi) / 2
	}
	// selectKth left rest[:k] holding the k smallest values, so the
	// (mid-1)th is their maximum.
	lo := rest[0]
	for _, v := range rest[1:k] {
		if v > lo {
			lo = v
		}
	}
	return (lo + hi) / 2
}

// selectKth partially orders a NaN-free slice so that a[:k] holds
// values no greater than a[k], a[k+1:] values no less, and a[k] is the
// value a sorted copy would hold at k; it returns a[k]. It is a
// quickselect with a median-of-three pivot and a three-way partition,
// so runs of equal values cost one pass.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := median3(a[lo], a[lo+(hi-lo)/2], a[hi])
		// Partition a[lo:hi+1] into < p, equal to p, > p.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = a[i], a[lt]
				lt++
				i++
			case v > p:
				a[i], a[gt] = a[gt], a[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return a[k]
		}
	}
	return a[k]
}

// median3 returns the median of three NaN-free values.
func median3(x, y, z float64) float64 {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
	}
	if x > y {
		return x
	}
	return y
}
