package analytic

import "fmt"

// FactorFromConditionalProb computes the frate_correlated_factor r from the
// birth–death model of Section 6 / Figure 3:
//
//	p = λc/(λc+µ)          (conditional probability of a follow-on failure)
//	λc = λi + r·n·λ = n·λ·(1+r)
//	⇒ r = p·µ/((1-p)·n·λ) − 1
//
// where n is the node count, λ the per-node independent failure rate and µ
// the recovery rate. The paper's example: n=1024, p=0.3, MTTR=10 min,
// MTTF=25 yr gives r ≈ 600.
func FactorFromConditionalProb(p float64, n int, perNodeRate, recoveryRate float64) (float64, error) {
	if p < 0 || p >= 1 {
		return 0, fmt.Errorf("analytic: conditional probability %v outside [0,1)", p)
	}
	if n <= 0 || perNodeRate <= 0 || recoveryRate <= 0 {
		return 0, fmt.Errorf("analytic: n=%d, rate=%v, recovery=%v must all be positive", n, perNodeRate, recoveryRate)
	}
	return p*recoveryRate/((1-p)*float64(n)*perNodeRate) - 1, nil
}

// ConditionalProbFromFactor inverts FactorFromConditionalProb:
//
//	λc = n·λ·(1+r),  p = λc/(λc+µ).
func ConditionalProbFromFactor(r float64, n int, perNodeRate, recoveryRate float64) (float64, error) {
	if r < 0 {
		return 0, fmt.Errorf("analytic: factor %v must be non-negative", r)
	}
	if n <= 0 || perNodeRate <= 0 || recoveryRate <= 0 {
		return 0, fmt.Errorf("analytic: n=%d, rate=%v, recovery=%v must all be positive", n, perNodeRate, recoveryRate)
	}
	lambdaC := float64(n) * perNodeRate * (1 + r)
	return lambdaC / (lambdaC + recoveryRate), nil
}
