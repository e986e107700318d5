package analytic

import (
	"fmt"
	"math"
)

// ExpectedCoordinationTruncated returns E[min(Y, timeout)] where Y is the
// max of n i.i.d. exponentials with mean mttq — the expected length of the
// quiesce phase when the master aborts at the timeout. It integrates the
// survival function numerically (Simpson's rule): E[min(Y,T)] =
// ∫₀ᵀ (1 − F_Y(t)) dt with F_Y(t) = (1 − e^{−t/θ})ⁿ.
//
// timeout ≤ 0 means no timeout and returns the full expectation MTTQ·H_n.
func ExpectedCoordinationTruncated(n int, mttq, timeout float64) float64 {
	if n <= 0 || mttq <= 0 {
		return 0
	}
	if timeout <= 0 {
		return ExpectedCoordinationTime(n, mttq)
	}
	survival := func(t float64) float64 {
		// 1 - (1-e^{-t/θ})^n, computed in log space for large n.
		return -math.Expm1(float64(n) * math.Log1p(-math.Exp(-t/mttq)))
	}
	const steps = 2000 // even
	h := timeout / steps
	sum := survival(0) + survival(timeout)
	for i := 1; i < steps; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4.0
		}
		sum += w * survival(float64(i)*h)
	}
	return sum * h / 3
}

// CoordinationEfficiency is the renewal-process approximation of the full
// model's useful-work fraction under coordination, timeouts and failures —
// the analytic counterpart of Figures 5 and 6. Derivation: checkpoint
// attempts repeat every interval+q hours (q = E[min(Y, timeout)]) and
// succeed with probability 1−p (p = CoordinationAbortProbability), so a
// committed checkpoint cycle spans W = (interval+q)/(1−p) + dump hours of
// wall time containing interval/(interval+q)·(W−dump) hours of execution.
// Failures at rate λ=1/mtbf lose the work accrued since the last commit
// and cost a restart R, giving the classic correction
// λW/(e^{λW}−1)·e^{−λR}.
//
// Returned values: the predicted useful-work fraction and the abort
// probability p.
func CoordinationEfficiency(n int, mttq, timeout, interval, dump, restart, mtbf float64) (float64, float64, error) {
	if interval <= 0 || mtbf <= 0 {
		return 0, 0, fmt.Errorf("analytic: interval %v and MTBF %v must be positive", interval, mtbf)
	}
	if n <= 0 || mttq < 0 || timeout < 0 || dump < 0 || restart < 0 {
		return 0, 0, fmt.Errorf("analytic: invalid coordination parameters n=%d mttq=%v timeout=%v dump=%v restart=%v",
			n, mttq, timeout, dump, restart)
	}
	var q, p float64
	if mttq > 0 {
		q = ExpectedCoordinationTruncated(n, mttq, timeout)
		p = CoordinationAbortProbability(n, mttq, timeout)
	}
	if p >= 1 {
		return 0, 1, nil
	}
	attempts := 1 / (1 - p)
	wall := attempts*(interval+q) + dump
	execShare := attempts * interval / wall
	lambda := 1 / mtbf
	x := lambda * wall
	failFactor := 1.0
	if x > 1e-12 {
		failFactor = x / math.Expm1(x)
	}
	eff := execShare * failFactor * math.Exp(-lambda*restart)
	return eff, p, nil
}
