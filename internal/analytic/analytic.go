// Package analytic implements the closed-form checkpointing models the
// paper compares against: Young's first-order optimum interval [7], Daly's
// higher-order model and expected-efficiency formula [8], and small
// coordination-overhead predictions used to cross-check the simulator
// (Figure 5's logarithmic coordination effect).
//
// These baselines deliberately ignore coordination overhead and correlated
// failures — that gap is the paper's motivation, and the experiments
// contrast them with the SAN simulation.
package analytic

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// YoungOptimalInterval returns Young's first-order optimum checkpoint
// interval √(2·δ·M), where δ is the checkpoint overhead (time to take one
// checkpoint) and M the system mean time between failures [7].
func YoungOptimalInterval(overhead, mtbf float64) (float64, error) {
	if overhead <= 0 || mtbf <= 0 {
		return 0, fmt.Errorf("analytic: overhead %v and MTBF %v must be positive", overhead, mtbf)
	}
	return math.Sqrt(2 * overhead * mtbf), nil
}

// DalyOptimalInterval returns Daly's higher-order optimum compute interval
// for restart dumps [8]:
//
//	τ_opt = √(2δM)·[1 + ⅓·√(δ/(2M)) + (1/9)·(δ/(2M))] − δ   for δ < 2M
//	τ_opt = M                                                 otherwise.
func DalyOptimalInterval(overhead, mtbf float64) (float64, error) {
	if overhead <= 0 || mtbf <= 0 {
		return 0, fmt.Errorf("analytic: overhead %v and MTBF %v must be positive", overhead, mtbf)
	}
	if overhead >= 2*mtbf {
		return mtbf, nil
	}
	x := overhead / (2 * mtbf)
	return math.Sqrt(2*overhead*mtbf)*(1+math.Sqrt(x)/3+x/9) - overhead, nil
}

// Efficiency returns the expected useful-work fraction of the classic
// exponential-failure checkpoint/restart model (the integral Daly builds
// on): segments of τ useful work cost τ+δ wall time; a failure at rate
// λ=1/M forces a restart of length R and the loss of the in-progress
// segment. The expected wall time per segment is
//
//	E = e^{λR}·(1/λ)·(e^{λ(τ+δ)} − 1),
//
// so efficiency = τ / E.
func Efficiency(interval, overhead, restart, mtbf float64) (float64, error) {
	if interval <= 0 || mtbf <= 0 {
		return 0, fmt.Errorf("analytic: interval %v and MTBF %v must be positive", interval, mtbf)
	}
	if overhead < 0 || restart < 0 {
		return 0, fmt.Errorf("analytic: negative overhead %v or restart %v", overhead, restart)
	}
	lambda := 1 / mtbf
	expected := math.Exp(lambda*restart) / lambda * (math.Exp(lambda*(interval+overhead)) - 1)
	return interval / expected, nil
}

// ExpectedCoordinationTime returns E[max of n i.i.d. exponentials] =
// MTTQ·H_n, the paper's coordination time (Section 7.2: "the coordination
// effect is logarithmic in the number of compute processors").
func ExpectedCoordinationTime(n int, mttq float64) float64 {
	if n <= 0 || mttq <= 0 {
		return 0
	}
	return mttq * rng.HarmonicNumber(n)
}

// CoordinationAbortProbability returns P(coordination exceeds the timeout):
// 1 − (1−e^{−t/MTTQ})^n, the probabilistic checkpoint-abort rate of the
// timeout mechanism (Section 7.2).
func CoordinationAbortProbability(n int, mttq, timeout float64) float64 {
	if n <= 0 || mttq <= 0 {
		return 0
	}
	if timeout <= 0 {
		return 0 // no timeout mechanism
	}
	// log form for numerical stability at large n.
	logP := float64(n) * math.Log1p(-math.Exp(-timeout/mttq))
	return -math.Expm1(logP)
}

// FailureFreeFraction predicts the useful-work fraction with coordination
// but no failures or timeouts (Figure 5): each cycle spends interval hours
// of useful work plus coordination and dump overhead.
func FailureFreeFraction(interval, coordTime, dumpTime float64) float64 {
	if interval <= 0 {
		return 0
	}
	return interval / (interval + coordTime + dumpTime)
}

// SystemMTBF returns the system mean time between failures for n nodes
// with per-node MTTF m: m/n (independent exponential superposition).
func SystemMTBF(nodes int, mttfPerNode float64) (float64, error) {
	if nodes <= 0 || mttfPerNode <= 0 {
		return 0, fmt.Errorf("analytic: nodes %d and MTTF %v must be positive", nodes, mttfPerNode)
	}
	return mttfPerNode / float64(nodes), nil
}
