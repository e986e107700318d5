// Package sensitivity performs one-at-a-time sensitivity analysis of the
// checkpointing model: each parameter is perturbed by a relative factor and
// the useful-work fraction response is estimated with common random numbers
// (paired replications), yielding elasticities — the tornado diagram behind
// questions like "is this machine limited by MTTF, MTTR or the checkpoint
// interval?".
package sensitivity

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/vr"
)

// Parameter identifies a perturbable model parameter.
type Parameter string

// The perturbable parameters.
const (
	ParamMTTF        Parameter = "mttf"
	ParamMTTR        Parameter = "mttr"
	ParamInterval    Parameter = "interval"
	ParamMTTQ        Parameter = "mttq"
	ParamCkptSize    Parameter = "checkpoint-size"
	ParamIOBandwidth Parameter = "io-bandwidth"
	ParamFSBandwidth Parameter = "fs-bandwidth"
)

// AllParameters returns every perturbable parameter.
func AllParameters() []Parameter {
	return []Parameter{
		ParamMTTF, ParamMTTR, ParamInterval, ParamMTTQ,
		ParamCkptSize, ParamIOBandwidth, ParamFSBandwidth,
	}
}

// apply scales the parameter by factor and returns the mutated config.
func apply(cfg cluster.Config, p Parameter, factor float64) (cluster.Config, error) {
	switch p {
	case ParamMTTF:
		cfg.MTTFPerNode *= factor
	case ParamMTTR:
		cfg.MTTR *= factor
	case ParamInterval:
		cfg.CheckpointInterval *= factor
	case ParamMTTQ:
		cfg.MTTQ *= factor
	case ParamCkptSize:
		cfg.CheckpointSizePerNode *= factor
	case ParamIOBandwidth:
		cfg.BandwidthToIONode *= factor
	case ParamFSBandwidth:
		cfg.BandwidthIOToFS *= factor
	default:
		return cluster.Config{}, fmt.Errorf("sensitivity: unknown parameter %q", p)
	}
	return cfg, nil
}

// Effect is the measured response to perturbing one parameter.
type Effect struct {
	Parameter Parameter
	// Factor is the applied relative change (e.g. 1.2 for +20 %).
	Factor float64
	// FractionDiff is the paired CI of (perturbed − base) useful-work
	// fraction.
	FractionDiff stats.Interval
	// Elasticity is d(ln fraction)/d(ln param) ≈ (Δf/f)/(Δp/p),
	// evaluated at the base point.
	Elasticity float64
}

// Analysis is the full one-at-a-time result, sorted by effect magnitude.
type Analysis struct {
	// BaseFraction is the unperturbed useful-work fraction.
	BaseFraction stats.Interval
	// Effects holds one entry per parameter, largest |elasticity| first.
	Effects []Effect
}

// MostSensitive returns the parameter with the largest |elasticity|.
func (a Analysis) MostSensitive() Parameter {
	if len(a.Effects) == 0 {
		return ""
	}
	return a.Effects[0].Parameter
}

// Analyze perturbs each parameter by the given relative factor (> 0,
// ≠ 1, e.g. 1.2) and estimates the response with paired replications: one
// grid plan whose cell 0 is the base configuration and whose other cells
// are the perturbed ones, all on the base's seed, and each effect folds
// the per-replication differences (perturbed − base). A journal is
// rejected by EstimateGrid: the cells would write into it concurrently, in
// scheduling order. So is variance reduction: the pairing is with the
// base, not within a configuration.
func Analyze(cfg cluster.Config, params []Parameter, factor float64, opts runner.Options) (Analysis, error) {
	if factor <= 0 || factor == 1 {
		return Analysis{}, fmt.Errorf("sensitivity: factor %v must be positive and ≠ 1", factor)
	}
	if opts.VarianceReduction != vr.ModeNone {
		return Analysis{}, fmt.Errorf("sensitivity: %s variance reduction is not supported (each effect pairs a perturbed estimate with the base on common random numbers)", opts.VarianceReduction)
	}
	if len(params) == 0 {
		params = AllParameters()
	}
	seed := opts.WithDefaults().Seed
	cells := []blocks.Cell{{Label: "base", Seed: seed, Config: cfg}}
	for _, p := range params {
		perturbed, err := apply(cfg, p, factor)
		if err != nil {
			return Analysis{}, err
		}
		cells = append(cells, blocks.Cell{Label: fmt.Sprintf("%s×%v", p, factor), Seed: seed, Config: perturbed})
	}
	m, err := runner.PlanGrid("sensitivity", cells, 0, opts)
	if err != nil {
		return Analysis{}, fmt.Errorf("sensitivity: %w", err)
	}
	results, err := runner.EstimateGrid(context.Background(), m, opts, nil)
	if err != nil {
		return Analysis{}, fmt.Errorf("sensitivity: %w", err)
	}
	base := results[0]
	out := Analysis{BaseFraction: base.UsefulWorkFraction, Effects: make([]Effect, len(params))}
	for i, p := range params {
		diff := stats.NewFold(base.UsefulWorkFraction.Level, false)
		for r, m := range results[i+1].PerReplication {
			diff.Add(m.UsefulWorkFraction - base.PerReplication[r].UsefulWorkFraction)
		}
		eff := Effect{Parameter: p, Factor: factor, FractionDiff: diff.CI()}
		if f := base.UsefulWorkFraction.Mean; f > 0 {
			eff.Elasticity = eff.FractionDiff.Mean / f / (factor - 1)
		}
		out.Effects[i] = eff
	}
	sort.Slice(out.Effects, func(i, j int) bool {
		return abs(out.Effects[i].Elasticity) > abs(out.Effects[j].Elasticity)
	})
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
