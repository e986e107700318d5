package stats

import "math"

// PairedAccumulator estimates a mean from (plain, reflected) antithetic
// replication pairs. Each pair contributes its average (a+b)/2 as one
// observation; because the two legs share a seed through a reflected stream,
// their errors are negatively correlated and the pair means carry less
// variance than the same number of independent replications. Confidence
// intervals are formed over the pair means (the pairs are i.i.d. even though
// the legs within a pair are not), and the accumulator also tracks the
// per-leg variance so the achieved variance-reduction factor can be
// reported, not just assumed.
//
// The zero value is ready to use.
type PairedAccumulator struct {
	pairs Accumulator // one observation per pair: (a+b)/2
	legs  Accumulator // one observation per leg: a, b
	cov   float64     // running Σ (a−ā)(b−b̄) over pairs, Welford-style
	meanA float64
	meanB float64
}

// AddPair incorporates one (plain, reflected) replication pair.
func (p *PairedAccumulator) AddPair(a, b float64) {
	n := float64(p.pairs.N() + 1)
	da := a - p.meanA
	db := b - p.meanB
	p.meanA += da / n
	p.meanB += db / n
	p.cov += da * (b - p.meanB)
	p.pairs.Add((a + b) / 2)
	p.legs.Add(a)
	p.legs.Add(b)
}

// Pairs returns the number of pairs incorporated.
func (p *PairedAccumulator) Pairs() int { return p.pairs.N() }

// PairVariance returns the unbiased sample variance of the pair means —
// the variance that actually drives the confidence interval.
func (p *PairedAccumulator) PairVariance() float64 { return p.pairs.Variance() }

// LegVariance returns the unbiased sample variance pooled over the
// individual legs — the variance plain Monte Carlo would have worked with.
func (p *PairedAccumulator) LegVariance() float64 { return p.legs.Variance() }

// LegCorrelation returns the sample correlation between the plain and
// reflected legs of a pair (0 with fewer than two pairs or degenerate
// variance). Effective antithetic pairing drives this negative.
func (p *PairedAccumulator) LegCorrelation() float64 {
	n := p.pairs.N()
	if n < 2 {
		return 0
	}
	// Per-leg variances are recovered from the exact identity
	// Var((a+b)/2) = (VarA + VarB + 2·Cov)/4 using the running covariance,
	// so the legs never need to be stored separately. The denominator uses
	// (VarA+VarB)/2 in place of √(VarA·VarB) (equal when the legs are
	// exchangeable, an upper bound otherwise by AM ≥ GM, so |ρ| is never
	// overstated).
	cov := p.cov / float64(n-1)
	sumVar := 4*p.pairs.Variance() - 2*cov
	if sumVar <= 0 {
		return 0
	}
	rho := 2 * cov / sumVar
	if math.IsNaN(rho) {
		return 0
	}
	return rho
}

// VarianceReductionFactor returns the measured efficiency gain of the
// antithetic design: the ratio of the variance a plain-MC estimate of the
// same budget (2n independent legs) would have to the variance of the
// paired estimate. Equivalently s²_leg / (2 · s²_pair): values above 1 mean
// the pairing helped; a perfectly uncorrelated pairing gives ≈ 1. Returns
// +Inf when the pair means are degenerate (zero variance) and 0 when there
// are fewer than two pairs.
func (p *PairedAccumulator) VarianceReductionFactor() float64 {
	if p.pairs.N() < 2 {
		return 0
	}
	pv := p.pairs.Variance()
	lv := p.legs.Variance()
	if pv == 0 {
		if lv == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return lv / (2 * pv)
}

// CI returns the confidence interval over the pair means at the given
// level, with Pairs−1 degrees of freedom.
func (p *PairedAccumulator) CI(level float64) Interval {
	return p.pairs.CI(level)
}
