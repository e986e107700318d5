// Package vr is the variance-reduction layer: antithetic-variates modes and
// reporting for runner.Estimate, the common-random-numbers synchronization
// audit for runner.Compare, and a fixed-effort multilevel importance-
// splitting driver for rare-event probabilities (DESIGN.md §19).
//
// The package holds the mode vocabulary, the measured-efficiency reports
// and the splitting algorithm; the pairing itself lives where determinism
// is decided — seeds are assigned to (plain, reflected) pairs inside block
// planning (internal/blocks), the reflected routing inside the model
// (model.Instance.SetVR), and the pair-mean estimate in the one
// replication fold (stats.Fold, built by Mode.Fold) — so block-sharded
// sweeps stay bit-identical to monolithic runs at any worker count.
package vr

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Mode selects the variance-reduction scheme of an estimate.
type Mode int

const (
	// ModeNone is plain Monte Carlo — one independent replication per seed.
	ModeNone Mode = iota
	// ModeAntithetic schedules replications as (plain, reflected) pairs
	// sharing a seed and estimates from the pair means.
	ModeAntithetic
)

// ParseMode parses a -vr flag value. The empty string means ModeNone.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "none":
		return ModeNone, nil
	case "antithetic":
		return ModeAntithetic, nil
	default:
		return ModeNone, fmt.Errorf("vr: unknown mode %q (want none or antithetic)", s)
	}
}

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeAntithetic:
		return "antithetic"
	default:
		return "none"
	}
}

// MarshalText encodes the mode by its flag spelling. A manifest's
// `json:"vr,omitempty"` field therefore omits ModeNone (the zero value) and
// reads "antithetic" otherwise, so plain manifests hash as they did before
// variance reduction existed.
func (m Mode) MarshalText() ([]byte, error) {
	if m != ModeNone && m != ModeAntithetic {
		return nil, fmt.Errorf("vr: unknown mode %d (want none or antithetic)", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText parses a mode as ParseMode does.
func (m *Mode) UnmarshalText(text []byte) error {
	mode, err := ParseMode(string(text))
	if err != nil {
		return err
	}
	*m = mode
	return nil
}

// Fold returns an empty replication-order fold under the mode's pairing:
// antithetic folds consecutive (plain, reflected) legs as one pair mean.
func (m Mode) Fold(level float64) *stats.Fold {
	return stats.NewFold(level, m == ModeAntithetic)
}

// Report is the measured outcome of an antithetic estimate, carried in
// runner.Result and the journal's estimate record. The factor is measured,
// not assumed: s²_leg / (2·s²_pair), the ratio of the variance a plain-MC
// estimate of the same replication budget would have to the variance the
// paired estimate achieved.
type Report struct {
	Mode string `json:"mode"`
	// Pairs is the number of (plain, reflected) pairs folded in.
	Pairs int `json:"pairs"`
	// Factor is the measured variance-reduction factor (≥ 0; ≈ 1 means the
	// pairing neither helped nor hurt). Build reports through NewReport,
	// which clamps a +Inf factor (degenerate zero pair variance) to
	// MaxFloat64 so the record stays JSON-encodable.
	Factor float64 `json:"factor"`
	// LegCorrelation is the sample correlation between the two legs of a
	// pair; effective reflection drives it negative.
	LegCorrelation float64 `json:"leg_correlation"`
	// PairVariance and LegVariance are the unbiased sample variances the
	// factor is computed from.
	PairVariance float64 `json:"pair_variance"`
	LegVariance  float64 `json:"leg_variance"`
}

// NewReport builds the antithetic Report from a fold's pair statistics
// (stats.Fold.Paired), clamping non-finite values so the report always
// survives encoding/json (which rejects ±Inf and NaN). A plain fold has no
// pair statistics and no report: NewReport(nil) is nil.
func NewReport(p *stats.PairedAccumulator) *Report {
	if p == nil {
		return nil
	}
	return &Report{
		Mode:           ModeAntithetic.String(),
		Pairs:          p.Pairs(),
		Factor:         clampJSON(p.VarianceReductionFactor()),
		LegCorrelation: clampJSON(p.LegCorrelation()),
		PairVariance:   clampJSON(p.PairVariance()),
		LegVariance:    clampJSON(p.LegVariance()),
	}
}

// clampJSON maps non-finite values onto the finite double range so every
// report field survives encoding/json.
func clampJSON(f float64) float64 {
	switch {
	case math.IsNaN(f):
		return 0
	case math.IsInf(f, 1):
		return math.MaxFloat64
	case math.IsInf(f, -1):
		return -math.MaxFloat64
	}
	return f
}

// SyncReport quantifies how well two compared configurations stayed on
// common random numbers: per-purpose draw-count alignment plus the paired
// output correlation that CRN is supposed to induce.
type SyncReport struct {
	// Pairs is the number of (config A, config B) replication pairs.
	Pairs int `json:"pairs"`
	// InSyncFraction is the fraction of pairs whose draw counts matched on
	// every purpose — pairs where the two configs consumed literally the
	// same variates for the same purposes.
	InSyncFraction float64 `json:"in_sync_fraction"`
	// OutputCorrelation is the sample correlation of the paired outputs;
	// positive correlation is what shrinks the CI of the difference.
	OutputCorrelation float64 `json:"output_correlation"`
	// CIShrinkFactor is (Var A + Var B) / Var(A−B): the factor by which
	// pairing shrank the difference's variance versus independent runs
	// (> 1 means CRN helped; 1 means no effect).
	CIShrinkFactor float64 `json:"ci_shrink_factor"`
	// Components break the audit down per random purpose.
	Components []ComponentSync `json:"components"`
}

// ComponentSync is the per-purpose slice of a SyncReport.
type ComponentSync struct {
	Name string `json:"name"`
	// MeanDrawsA/B are the mean variates consumed per replication.
	MeanDrawsA float64 `json:"mean_draws_a"`
	MeanDrawsB float64 `json:"mean_draws_b"`
	// MatchedPairs counts pairs whose draw counts were equal on this
	// purpose.
	MatchedPairs int `json:"matched_pairs"`
}

// BuildSyncReport assembles the audit from per-replication draw counts
// (index-aligned with names) and paired outputs. Slices drawsA/drawsB and
// outA/outB must have equal lengths.
func BuildSyncReport(names []string, drawsA, drawsB [][]uint64, outA, outB []float64) SyncReport {
	rep := SyncReport{Pairs: len(outA)}
	n := len(outA)
	if n == 0 {
		return rep
	}
	rep.Components = make([]ComponentSync, len(names))
	for i, name := range names {
		rep.Components[i].Name = name
	}
	allMatched := 0
	for r := 0; r < n; r++ {
		matched := true
		for p := range names {
			var a, b uint64
			if r < len(drawsA) && p < len(drawsA[r]) {
				a = drawsA[r][p]
			}
			if r < len(drawsB) && p < len(drawsB[r]) {
				b = drawsB[r][p]
			}
			c := &rep.Components[p]
			c.MeanDrawsA += float64(a) / float64(n)
			c.MeanDrawsB += float64(b) / float64(n)
			if a == b {
				c.MatchedPairs++
			} else {
				matched = false
			}
		}
		if matched {
			allMatched++
		}
	}
	rep.InSyncFraction = float64(allMatched) / float64(n)
	rep.OutputCorrelation = clampJSON(correlation(outA, outB))
	rep.CIShrinkFactor = clampJSON(ciShrink(outA, outB))
	return rep
}

// correlation returns the sample Pearson correlation (0 on degenerate
// input).
func correlation(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var vxx, vyy, vxy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		vxx += dx * dx
		vyy += dy * dy
		vxy += dx * dy
	}
	if vxx == 0 || vyy == 0 {
		return 0
	}
	return vxy / math.Sqrt(vxx*vyy)
}

// ciShrink returns (Var A + Var B) / Var(A−B), the variance advantage of
// paired differencing (1 on degenerate input, +Inf when the paired
// difference is exactly constant).
func ciShrink(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return 1
	}
	var ax, ay, ad stats.Accumulator
	for i := range xs {
		ax.Add(xs[i])
		ay.Add(ys[i])
		ad.Add(xs[i] - ys[i])
	}
	indep := ax.Variance() + ay.Variance()
	paired := ad.Variance()
	if paired == 0 {
		if indep == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return indep / paired
}
