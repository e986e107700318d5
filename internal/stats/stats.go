// Package stats provides the estimation machinery used to turn raw
// simulation output into point estimates with confidence intervals: Welford
// accumulators, the replication-order fold (plain or antithetic-paired),
// Student-t intervals, and batch means for steady-state output analysis.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes running mean and variance with Welford's algorithm.
// The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 || x > a.max {
		a.max = x
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 if empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 1 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// Max returns the largest observation (0 if empty).
func (a *Accumulator) Max() float64 { return a.max }

// Interval is a symmetric confidence interval around a point estimate.
type Interval struct {
	Mean     float64
	HalfWide float64
	Level    float64
	N        int
}

// Low returns the interval's lower bound.
func (iv Interval) Low() float64 { return iv.Mean - iv.HalfWide }

// High returns the interval's upper bound.
func (iv Interval) High() float64 { return iv.Mean + iv.HalfWide }

// Contains reports whether x lies within the interval.
func (iv Interval) Contains(x float64) bool {
	return x >= iv.Low() && x <= iv.High()
}

// RelativeWidth returns HalfWide / |Mean| (infinite for a zero mean with a
// non-degenerate interval).
func (iv Interval) RelativeWidth() float64 {
	if iv.Mean == 0 {
		if iv.HalfWide == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return iv.HalfWide / math.Abs(iv.Mean)
}

func (iv Interval) String() string {
	return fmt.Sprintf("%.6g ± %.3g (%.0f%%, n=%d)", iv.Mean, iv.HalfWide, iv.Level*100, iv.N)
}

// CI returns the confidence interval for the mean at the given level
// (e.g. 0.95 — the paper's confidence level) using the Student-t
// distribution with n-1 degrees of freedom. With fewer than two
// observations the half-width is infinite.
func (a *Accumulator) CI(level float64) Interval {
	iv := Interval{Mean: a.mean, Level: level, N: a.n}
	if a.n < 2 {
		iv.HalfWide = math.Inf(1)
		return iv
	}
	iv.HalfWide = TQuantile(1-(1-level)/2, a.n-1) * a.StdErr()
	return iv
}

// Convergence is a point-in-time view of an accumulating estimate — the
// snapshot the observability layer journals after each replication to
// expose how the confidence interval tightens as evidence accumulates.
type Convergence struct {
	// N is the number of observations folded in so far.
	N int `json:"n"`
	// Mean is the running sample mean.
	Mean float64 `json:"mean"`
	// HalfWidth is the CI half-width at the snapshot's level.
	HalfWidth float64 `json:"half_width"`
	// RelWidth is HalfWidth / |Mean| (0 when not finite, so snapshots are
	// always JSON-marshalable).
	RelWidth float64 `json:"rel_width"`
}

// Convergence returns the accumulator's current convergence snapshot at
// the given confidence level. With fewer than two observations the
// half-width is undefined; it is reported as 0 with N carrying the truth.
func (a *Accumulator) Convergence(level float64) Convergence {
	c := Convergence{N: a.n, Mean: a.mean}
	if a.n < 2 {
		return c
	}
	iv := a.CI(level)
	c.HalfWidth = iv.HalfWide
	if rw := iv.RelativeWidth(); !math.IsInf(rw, 0) && !math.IsNaN(rw) {
		c.RelWidth = rw
	}
	return c
}

// TQuantile returns the p-quantile of the Student-t distribution with df
// degrees of freedom (p in (0,1)). It inverts the regularised incomplete
// beta function by bisection on the CDF, which is plenty fast for the
// handful of calls per experiment.
func TQuantile(p float64, df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	switch {
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p == 0.5:
		return 0
	}
	if p < 0.5 {
		return -TQuantile(1-p, df)
	}
	lo, hi := 0.0, 1.0
	for TCDF(hi, df) < p {
		hi *= 2
		if hi > 1e8 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TCDF returns P(T ≤ t) for the Student-t distribution with df degrees of
// freedom, via the regularised incomplete beta function.
func TCDF(t float64, df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := float64(df) / (float64(df) + t*t)
	ib := RegIncBeta(float64(df)/2, 0.5, x)
	if t > 0 {
		return 1 - ib/2
	}
	return ib / 2
}

// RegIncBeta computes the regularised incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lnFront := lnGamma(a+b) - lnGamma(a) - lnGamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lnFront)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-15
		fpMin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// lnGamma wraps math.Lgamma, discarding the sign (arguments here are
// always positive).
func lnGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// BatchMeans performs the method of batch means on a single long run:
// the observations are grouped into Batches equal-size batches and batch
// averages are treated as (approximately) independent samples.
type BatchMeans struct {
	Batches int
	values  []float64
}

// Add appends one observation.
func (b *BatchMeans) Add(x float64) { b.values = append(b.values, x) }

// N returns the number of raw observations.
func (b *BatchMeans) N() int { return len(b.values) }

// CI returns the batch-means confidence interval at the given level.
// It returns an error when there are too few observations to form the
// requested batches.
func (b *BatchMeans) CI(level float64) (Interval, error) {
	k := b.Batches
	if k < 2 {
		k = 10
	}
	if len(b.values) < 2*k {
		return Interval{}, fmt.Errorf("batch means: %d observations is too few for %d batches", len(b.values), k)
	}
	size := len(b.values) / k
	var acc Accumulator
	for i := 0; i < k; i++ {
		sum := 0.0
		for _, v := range b.values[i*size : (i+1)*size] {
			sum += v
		}
		acc.Add(sum / float64(size))
	}
	return acc.CI(level), nil
}

// Quantile returns the q-th empirical quantile (0 ≤ q ≤ 1) of the values
// seen so far, or 0 when empty.
func (b *BatchMeans) Quantile(q float64) float64 {
	if len(b.values) == 0 {
		return 0
	}
	sorted := make([]float64, len(b.values))
	copy(sorted, b.values)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
