// Package faultlog analyses failure logs: sequences of failure instants,
// either measured on a real system or synthesised from model traces. It
// fits the quantities the checkpointing model consumes — the MTTF
// (exponential maximum-likelihood), burstiness measures (coefficient of
// variation, index of dispersion), burst detection by temporal clustering
// and the in-burst/out-of-burst rate ratio, i.e. an empirical estimate of
// the paper's frate_correlated_factor r. The paper grounds its correlated-
// failure parameters in exactly this kind of field-data analysis (Tang &
// Iyer [6], Zhang et al. [18]).
package faultlog

import (
	"fmt"
	"math"
	"sort"
)

// Log is a sequence of failure instants in hours, kept sorted.
type Log struct {
	times []float64
}

// New builds a log from (possibly unsorted) failure instants.
func New(times []float64) Log {
	cp := make([]float64, len(times))
	copy(cp, times)
	sort.Float64s(cp)
	return Log{times: cp}
}

// Len returns the number of failures.
func (l Log) Len() int { return len(l.times) }

// Span returns the time between the first and last failure.
func (l Log) Span() float64 {
	if len(l.times) < 2 {
		return 0
	}
	return l.times[len(l.times)-1] - l.times[0]
}

// InterArrivals returns the gaps between consecutive failures.
func (l Log) InterArrivals() []float64 {
	if len(l.times) < 2 {
		return nil
	}
	gaps := make([]float64, len(l.times)-1)
	for i := 1; i < len(l.times); i++ {
		gaps[i-1] = l.times[i] - l.times[i-1]
	}
	return gaps
}

// MLEExponentialMean returns the maximum-likelihood mean of an exponential
// inter-arrival model — the sample mean gap. This is the system MTBF the
// classic checkpointing models consume.
func (l Log) MLEExponentialMean() (float64, error) {
	gaps := l.InterArrivals()
	if len(gaps) == 0 {
		return 0, fmt.Errorf("faultlog: need at least two failures, have %d", l.Len())
	}
	sum := 0.0
	for _, g := range gaps {
		sum += g
	}
	return sum / float64(len(gaps)), nil
}

// CoefficientOfVariation returns σ/µ of the inter-arrival gaps. A Poisson
// process gives 1; correlated bursts push it above 1 (hyper-exponential
// signature, §3.5 of the paper).
func (l Log) CoefficientOfVariation() (float64, error) {
	gaps := l.InterArrivals()
	if len(gaps) < 2 {
		return 0, fmt.Errorf("faultlog: need at least three failures, have %d", l.Len())
	}
	mean := 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	if mean == 0 {
		return 0, fmt.Errorf("faultlog: zero mean gap")
	}
	ss := 0.0
	for _, g := range gaps {
		ss += (g - mean) * (g - mean)
	}
	variance := ss / float64(len(gaps)-1)
	return math.Sqrt(variance) / mean, nil
}

// IndexOfDispersion returns Var(N)/E(N) of failure counts over windows of
// the given length — 1 for Poisson, > 1 for temporally clustered failures.
func (l Log) IndexOfDispersion(window float64) (float64, error) {
	if window <= 0 {
		return 0, fmt.Errorf("faultlog: window %v must be positive", window)
	}
	if l.Span() < 2*window {
		return 0, fmt.Errorf("faultlog: span %v too short for window %v", l.Span(), window)
	}
	start := l.times[0]
	bins := int(l.Span() / window)
	counts := make([]int, bins)
	for _, t := range l.times {
		i := int((t - start) / window)
		if i >= 0 && i < bins {
			counts[i]++
		}
	}
	mean := 0.0
	for _, c := range counts {
		mean += float64(c)
	}
	mean /= float64(bins)
	if mean == 0 {
		return 0, fmt.Errorf("faultlog: empty windows")
	}
	variance := 0.0
	for _, c := range counts {
		variance += (float64(c) - mean) * (float64(c) - mean)
	}
	variance /= float64(bins)
	return variance / mean, nil
}

// Burst is a detected cluster of temporally close failures.
type Burst struct {
	// Start and End bound the burst's failures.
	Start, End float64
	// Count is the number of failures in the burst.
	Count int
}

// Duration returns the burst's extent.
func (b Burst) Duration() float64 { return b.End - b.Start }

// DetectBursts clusters failures whose gaps are at most maxGap and returns
// clusters with at least minCount failures — the empirical analogue of the
// paper's correlated-failure windows.
func (l Log) DetectBursts(maxGap float64, minCount int) []Burst {
	if len(l.times) == 0 || maxGap <= 0 || minCount < 2 {
		return nil
	}
	var bursts []Burst
	start := 0
	for i := 1; i <= len(l.times); i++ {
		if i == len(l.times) || l.times[i]-l.times[i-1] > maxGap {
			if count := i - start; count >= minCount {
				bursts = append(bursts, Burst{
					Start: l.times[start],
					End:   l.times[i-1],
					Count: count,
				})
			}
			start = i
		}
	}
	return bursts
}

// RateRatio estimates the paper's correlated-rate multiplier from detected
// bursts: the failure rate inside bursts divided by the rate outside them.
// Burst durations of zero are widened to pad on each side so the in-burst
// rate stays finite.
func (l Log) RateRatio(bursts []Burst, pad float64) (float64, error) {
	if len(l.times) < 2 {
		return 0, fmt.Errorf("faultlog: need at least two failures")
	}
	if len(bursts) == 0 {
		return 1, nil
	}
	if pad <= 0 {
		return 0, fmt.Errorf("faultlog: pad %v must be positive", pad)
	}
	inTime, inCount := 0.0, 0
	for _, b := range bursts {
		inTime += b.Duration() + 2*pad
		inCount += b.Count
	}
	total := l.Span()
	outTime := total - inTime
	outCount := l.Len() - inCount
	if outTime <= 0 || outCount <= 0 {
		return 0, fmt.Errorf("faultlog: bursts cover the whole log")
	}
	inRate := float64(inCount) / inTime
	outRate := float64(outCount) / outTime
	return inRate / outRate, nil
}
