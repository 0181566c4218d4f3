// Package mlearn is a small, stdlib-only statistical learning toolkit
// supplying the regression machinery CoolAir's Cooling Modeler needs
// (paper §4.2): ordinary least squares (with ridge regularization for
// ill-conditioned designs), least-median-of-squares robust regression,
// and M5P-style piecewise-linear model trees for the behaviours that are
// non-linear (e.g. fan power as a function of speed). The paper uses
// Weka for the same purposes; this package replaces it.
package mlearn

import (
	"errors"
	"fmt"
	"math"
)

// ErrDegenerate is returned when a design matrix cannot support a fit
// (too few rows, or a singular system even after regularization).
var ErrDegenerate = errors.New("mlearn: degenerate regression problem")

// Linear is a fitted linear model y ≈ Intercept + Σ Coef[i]·x[i].
type Linear struct {
	Intercept float64
	Coef      []float64
	// TrainRMSE is the root-mean-squared residual on the training set.
	TrainRMSE float64
	// N is the number of training rows.
	N int
}

// Predict evaluates the model on one feature vector. It panics if the
// dimensionality differs from the fit, since that is always a
// programming error.
func (l *Linear) Predict(x []float64) float64 {
	if len(x) != len(l.Coef) {
		panic(fmt.Sprintf("mlearn: predict with %d features, model has %d", len(x), len(l.Coef)))
	}
	y := l.Intercept
	for i, c := range l.Coef {
		y += c * x[i]
	}
	return y
}

// PredictChecked evaluates the model on one feature vector, returning
// an error instead of panicking on a dimension mismatch — the form
// control loops use, where a malformed feature vector must degrade the
// decision rather than crash it.
func (l *Linear) PredictChecked(x []float64) (float64, error) {
	if len(x) != len(l.Coef) {
		return 0, fmt.Errorf("mlearn: predict with %d features, model has %d", len(x), len(l.Coef))
	}
	return l.Predict(x), nil
}

// FitOLS fits ordinary least squares with a small ridge penalty for
// numerical stability. X is row-major (one row per observation). The
// ridge term lambda may be zero; if the normal equations remain singular
// the fit retries with escalating regularization before giving up.
func FitOLS(X [][]float64, y []float64, lambda float64) (*Linear, error) {
	return fitOLS(X, y, lambda, nil)
}

// olsScratch holds fitOLS's normal-equation and solve buffers for
// designs of d = features+1 columns, so a caller that fits many designs
// of one width (FitLMS's trials) allocates them once.
type olsScratch struct {
	ata, sys    [][]float64 // d×d rows over one backing array each
	aty, rhs, w []float64
}

func newOLSScratch(d int) *olsScratch {
	s := &olsScratch{ata: make([][]float64, d), sys: make([][]float64, d)}
	flat := make([]float64, 2*d*d+3*d)
	for i := 0; i < d; i++ {
		s.ata[i], flat = flat[:d:d], flat[d:]
		s.sys[i], flat = flat[:d:d], flat[d:]
	}
	s.aty, s.rhs, s.w = flat[:d:d], flat[d:2*d:2*d], flat[2*d:]
	return s
}

// fitOLS is FitOLS on the buffers of s; nil, or a scratch of another
// width, allocates fresh ones. The returned model owns its Coef.
func fitOLS(X [][]float64, y []float64, lambda float64, s *olsScratch) (*Linear, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, ErrDegenerate
	}
	p := len(X[0])
	if n < p+1 {
		return nil, fmt.Errorf("%w: %d rows for %d features", ErrDegenerate, n, p)
	}
	for _, row := range X {
		if len(row) != p {
			return nil, fmt.Errorf("%w: ragged design matrix", ErrDegenerate)
		}
	}

	// Build augmented design [1 | X] and the normal equations AᵀA w = Aᵀy.
	d := p + 1
	if s == nil || len(s.w) != d {
		s = newOLSScratch(d)
	}
	ata, aty := s.ata, s.aty
	for i := range ata {
		clear(ata[i])
	}
	clear(aty)
	for r := 0; r < n; r++ {
		row := X[r]
		// feature 0 is the implicit intercept column of ones.
		ata[0][0]++
		aty[0] += y[r]
		for i := 0; i < p; i++ {
			ata[0][i+1] += row[i]
			ata[i+1][0] += row[i]
			aty[i+1] += row[i] * y[r]
			for j := 0; j < p; j++ {
				ata[i+1][j+1] += row[i] * row[j]
			}
		}
	}

	for _, lam := range []float64{lambda, math.Max(lambda, 1e-8), 1e-4, 1e-2} {
		sys, rhs := s.sys, s.rhs
		for i := range sys {
			copy(sys[i], ata[i])
			rhs[i] = aty[i]
			if i > 0 { // do not penalize the intercept
				sys[i][i] += lam * float64(n)
			}
		}
		w := s.w
		if err := solveGauss(sys, rhs, w); err != nil {
			continue
		}
		m := &Linear{Intercept: w[0], Coef: append([]float64(nil), w[1:]...), N: n}
		m.TrainRMSE = rmse(m, X, y)
		if !math.IsNaN(m.TrainRMSE) && !math.IsInf(m.TrainRMSE, 0) {
			return m, nil
		}
	}
	return nil, ErrDegenerate
}

// solveGauss solves a dense linear system with partial pivoting into x
// (len(b)), overwriting a and b. It swaps a's row slices in place.
func solveGauss(a [][]float64, b, x []float64) error {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return ErrDegenerate
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back-substitute.
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return nil
}

func rmse(m *Linear, X [][]float64, y []float64) float64 {
	if len(X) == 0 {
		return 0
	}
	sum := 0.0
	for i, row := range X {
		r := m.Predict(row) - y[i]
		sum += r * r
	}
	return math.Sqrt(sum / float64(len(X)))
}

// Residuals returns the per-row prediction errors of the model.
func (l *Linear) Residuals(X [][]float64, y []float64) []float64 {
	out := make([]float64, len(X))
	for i, row := range X {
		out[i] = y[i] - l.Predict(row)
	}
	return out
}
