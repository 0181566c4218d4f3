package mlearn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Regressor is anything that maps a feature vector to a prediction; both
// Linear and ModelTree satisfy it.
type Regressor interface {
	Predict(x []float64) float64
}

// CheckedRegressor is a Regressor that can also report a malformed
// feature vector as an error instead of panicking; both Linear and
// ModelTree satisfy it.
type CheckedRegressor interface {
	Regressor
	PredictChecked(x []float64) (float64, error)
}

// PredictChecked evaluates any regressor non-panicking: regressors that
// implement CheckedRegressor validate the vector themselves; for others
// the panic of a bare Predict is converted to an error.
func PredictChecked(r Regressor, x []float64) (y float64, err error) {
	if cr, ok := r.(CheckedRegressor); ok {
		return cr.PredictChecked(x)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mlearn: predict failed: %v", p)
		}
	}()
	return r.Predict(x), nil
}

// Fitter builds a Regressor from training data. It lets model selection
// (below) treat OLS, LMS, and model trees uniformly, mirroring the
// paper's "try linear and least median square approaches and pick the
// one with the lowest error". A Fitter must not retain X or y: cross
// validation reuses them for the next fold.
type Fitter func(X [][]float64, y []float64) (Regressor, error)

// OLSFitter adapts FitOLS to the Fitter signature.
func OLSFitter(lambda float64) Fitter {
	return func(X [][]float64, y []float64) (Regressor, error) { return FitOLS(X, y, lambda) }
}

// LMSFitter adapts FitLMS to the Fitter signature.
func LMSFitter(trials int, seed int64) Fitter {
	return func(X [][]float64, y []float64) (Regressor, error) { return FitLMS(X, y, trials, seed) }
}

// CrossValRMSE estimates a fitter's generalization error with k-fold
// cross validation (deterministic shuffling by seed). It returns the
// RMSE pooled over held-out folds.
func CrossValRMSE(f Fitter, X [][]float64, y []float64, k int, seed int64) float64 {
	n := len(X)
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	var sum float64
	var count int
	// Every fold's rows fit in n, so the fold slices are allocated once.
	trX, teX := make([][]float64, 0, n), make([][]float64, 0, n)
	trY, teY := make([]float64, 0, n), make([]float64, 0, n)
	for fold := 0; fold < k; fold++ {
		trX, teX, trY, teY = trX[:0], teX[:0], trY[:0], teY[:0]
		for pos, i := range idx {
			if pos%k == fold {
				teX = append(teX, X[i])
				teY = append(teY, y[i])
			} else {
				trX = append(trX, X[i])
				trY = append(trY, y[i])
			}
		}
		m, err := f(trX, trY)
		if err != nil {
			return math.Inf(1)
		}
		for i, row := range teX {
			r := m.Predict(row) - teY[i]
			sum += r * r
			count++
		}
	}
	if count == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(sum / float64(count))
}

// SelectBest cross-validates each candidate fitter and returns the model
// trained on the full data by the fitter with the lowest CV error.
func SelectBest(cands []Fitter, X [][]float64, y []float64, k int, seed int64) (Regressor, int, error) {
	bestIdx, bestErr := -1, math.Inf(1)
	for i, f := range cands {
		if e := CrossValRMSE(f, X, y, k, seed); e < bestErr {
			bestIdx, bestErr = i, e
		}
	}
	if bestIdx < 0 {
		return nil, -1, ErrDegenerate
	}
	m, err := cands[bestIdx](X, y)
	return m, bestIdx, err
}

// ErrorCDF computes the empirical CDF of absolute prediction errors,
// evaluated at the given thresholds. It returns, for each threshold, the
// fraction of |prediction − truth| values at or below it — the exact
// quantity plotted in the paper's Figure 5 model validation.
func ErrorCDF(errsAbs []float64, thresholds []float64) []float64 {
	sorted := make([]float64, len(errsAbs))
	copy(sorted, errsAbs)
	sort.Float64s(sorted)
	out := make([]float64, len(thresholds))
	for i, t := range thresholds {
		// count entries <= t
		lo := sort.SearchFloat64s(sorted, math.Nextafter(t, math.Inf(1)))
		out[i] = float64(lo) / float64(len(sorted))
	}
	return out
}

// Quantile returns the q-quantile (0..1) of the values.
func Quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(vals))
	copy(sorted, vals)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
