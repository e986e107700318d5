package rng

import (
	"fmt"
	"math"
)

// Dist is a sampleable probability distribution over non-negative delays
// (model time, in hours throughout this repository). Implementations are
// immutable; all randomness comes from the Source passed to Sample.
type Dist interface {
	// Sample draws one value from the distribution.
	Sample(src Source) float64
	// String describes the distribution for traces and error messages.
	String() string
}

// Deterministic is a distribution with all mass at Value. The paper models
// non-random events (broadcast latency, checkpoint dump time, timer expiry)
// as deterministic activities.
type Deterministic struct {
	Value float64
}

var _ Dist = Deterministic{}

// Sample returns the fixed value.
func (d Deterministic) Sample(Source) float64 { return d.Value }

func (d Deterministic) String() string { return fmt.Sprintf("det(%g)", d.Value) }

// Exponential is the exponential distribution with the given mean
// (rate = 1/Mean). The paper assumes exponential distributions for all
// random events (failures, recovery stage 2, per-node quiesce time).
type Exponential struct {
	MeanValue float64
}

var _ Dist = Exponential{}

// Sample draws by inversion: -mean * ln(U), U ∈ (0,1).
func (d Exponential) Sample(src Source) float64 {
	return -d.MeanValue * math.Log(open(src))
}

func (d Exponential) String() string { return fmt.Sprintf("exp(mean=%g)", d.MeanValue) }

// Uniform is the continuous uniform distribution on [Low, High].
type Uniform struct {
	Low, High float64
}

var _ Dist = Uniform{}

// Sample draws uniformly from [Low, High).
func (d Uniform) Sample(src Source) float64 {
	return d.Low + (d.High-d.Low)*src.Float64()
}

func (d Uniform) String() string { return fmt.Sprintf("unif[%g,%g]", d.Low, d.High) }

// MaxOfNExponentials is the distribution of Y = max{X_1..X_n} where the X_i
// are i.i.d. exponential with mean PerNodeMean. This is exactly the
// coordination-time construction of Section 5 of the paper: each of the n
// compute nodes quiesces after an exponential time and checkpointing starts
// when the slowest one is done. Sampling uses the paper's inversion
//
//	Y = -1/λ · ln(1 - U^{1/n}),
//
// derived from the CDF F_Y(y) = (1 - e^{-λy})^n.
type MaxOfNExponentials struct {
	N           int
	PerNodeMean float64
}

var _ Dist = MaxOfNExponentials{}

// Sample draws the maximum quiesce time across N nodes.
func (d MaxOfNExponentials) Sample(src Source) float64 {
	if d.N <= 1 {
		return Exponential{MeanValue: d.PerNodeMean}.Sample(src)
	}
	u := open(src)
	// 1 - u^{1/n} loses precision for huge n; use expm1/log1p form:
	// u^{1/n} = exp(ln(u)/n), so 1-u^{1/n} = -expm1(ln(u)/n).
	inner := -math.Expm1(math.Log(u) / float64(d.N))
	return -d.PerNodeMean * math.Log(inner)
}

// Mean returns E[Y] = mean · H_n (the n-th harmonic number), the classic
// expectation of the maximum of n i.i.d. exponentials.
func (d MaxOfNExponentials) Mean() float64 {
	return d.PerNodeMean * HarmonicNumber(d.N)
}

func (d MaxOfNExponentials) String() string {
	return fmt.Sprintf("maxexp(n=%d,mean=%g)", d.N, d.PerNodeMean)
}

// HarmonicNumber returns H_n = sum_{i=1..n} 1/i. For large n it uses the
// asymptotic expansion H_n ≈ ln n + γ + 1/(2n) - 1/(12n²), accurate to
// well below 1e-10 for n ≥ 64.
func HarmonicNumber(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n < 64 {
		h := 0.0
		for i := 1; i <= n; i++ {
			h += 1 / float64(i)
		}
		return h
	}
	const eulerGamma = 0.57721566490153286
	fn := float64(n)
	return math.Log(fn) + eulerGamma + 1/(2*fn) - 1/(12*fn*fn)
}

// MaxOfGroups is the maximum over several independent MaxOfNExponentials —
// the coordination time of a machine with heterogeneous quiesce speeds
// (e.g. a straggler population with a larger per-node mean). Groups with
// N ≤ 0 are ignored.
type MaxOfGroups struct {
	Groups []MaxOfNExponentials
}

var _ Dist = MaxOfGroups{}

// Sample draws the max across all groups (0 when no group has members).
func (d MaxOfGroups) Sample(src Source) float64 {
	max := 0.0
	for _, g := range d.Groups {
		if g.N <= 0 {
			continue
		}
		if v := g.Sample(src); v > max {
			max = v
		}
	}
	return max
}

// Mean returns a tight upper estimate of the expectation,
// max(E[groups]) ≤ E[max] ≤ ΣE[groups]; it integrates the exact CDF
// numerically over a generous range instead, so it is accurate rather than
// a bound.
func (d MaxOfGroups) Mean() float64 {
	// E[max] = ∫ (1 − ∏ F_g(t)) dt. Integrate to a high quantile.
	hi := 0.0
	for _, g := range d.Groups {
		if g.N <= 0 {
			continue
		}
		// The max of n exponentials is below mean·(ln n + 40)
		// except with probability ~e^{-40}.
		bound := g.PerNodeMean * (math.Log(float64(g.N)) + 40)
		if bound > hi {
			hi = bound
		}
	}
	if hi == 0 {
		return 0
	}
	const steps = 4000
	h := hi / steps
	sum := 0.0
	for i := 0; i < steps; i++ {
		t := (float64(i) + 0.5) * h
		prod := 1.0
		for _, g := range d.Groups {
			if g.N <= 0 {
				continue
			}
			// F_g(t) = (1 − e^{−t/θ})^n in log space.
			prod *= math.Exp(float64(g.N) * math.Log1p(-math.Exp(-t/g.PerNodeMean)))
		}
		sum += (1 - prod) * h
	}
	return sum
}

func (d MaxOfGroups) String() string {
	return fmt.Sprintf("maxgroups(%d groups)", len(d.Groups))
}

// HyperExponential mixes two exponentials: with probability P the sample
// comes from an exponential with mean MeanA, otherwise from one with mean
// MeanB. The paper notes generic correlated failures are "usually assumed"
// hyper-exponential (Section 3.5).
type HyperExponential struct {
	P            float64
	MeanA, MeanB float64
}

var _ Dist = HyperExponential{}

// Sample draws from the two-phase mixture.
func (d HyperExponential) Sample(src Source) float64 {
	mean := d.MeanB
	if src.Float64() < d.P {
		mean = d.MeanA
	}
	return -mean * math.Log(open(src))
}

// Mean returns P·MeanA + (1-P)·MeanB.
func (d HyperExponential) Mean() float64 {
	return d.P*d.MeanA + (1-d.P)*d.MeanB
}

func (d HyperExponential) String() string {
	return fmt.Sprintf("hyperexp(p=%g,a=%g,b=%g)", d.P, d.MeanA, d.MeanB)
}

// Weibull is the Weibull distribution with the given Shape and Scale.
// Provided as an extension for non-exponential failure processes (an item
// the paper lists as future refinement); Shape=1 degenerates to exponential.
type Weibull struct {
	Shape, Scale float64
}

var _ Dist = Weibull{}

// Sample draws by inversion: scale · (-ln U)^{1/shape}.
func (d Weibull) Sample(src Source) float64 {
	return d.Scale * math.Pow(-math.Log(open(src)), 1/d.Shape)
}

func (d Weibull) String() string {
	return fmt.Sprintf("weibull(shape=%g,scale=%g)", d.Shape, d.Scale)
}

// open returns a uniform sample in (0,1), never exactly zero, so that
// ln(u) is always finite. It delegates to the package-level Float64Open,
// whose retry loop is bounded against degenerate sources.
func open(src Source) float64 { return Float64Open(src) }
