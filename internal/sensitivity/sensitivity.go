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

	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/runner"
	"repro/internal/stats"
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
// ≠ 1, e.g. 1.2) and estimates the response with paired replications. A
// journal is rejected: the parameters' comparisons would write into it
// concurrently, in scheduling order.
func Analyze(cfg cluster.Config, params []Parameter, factor float64, opts runner.Options) (Analysis, error) {
	if factor <= 0 || factor == 1 {
		return Analysis{}, fmt.Errorf("sensitivity: factor %v must be positive and ≠ 1", factor)
	}
	if opts.Journal != nil {
		return Analysis{}, fmt.Errorf("sensitivity: Options.Journal is not supported (comparisons run concurrently)")
	}
	if len(params) == 0 {
		params = AllParameters()
	}
	// The base estimate can use the full worker budget (it runs alone);
	// the per-parameter comparisons then fan out one job per parameter.
	base, err := runner.Estimate(cfg, opts)
	if err != nil {
		return Analysis{}, err
	}
	out := Analysis{BaseFraction: base.UsefulWorkFraction}
	pool := exec.Pool{Workers: exec.WorkerCount(opts.Workers)}
	out.Effects, err = exec.Map(context.Background(), pool, len(params),
		func(_ context.Context, i int) (Effect, error) {
			p := params[i]
			perturbed, err := apply(cfg, p, factor)
			if err != nil {
				return Effect{}, err
			}
			if err := perturbed.Validate(); err != nil {
				return Effect{}, fmt.Errorf("sensitivity: %s×%v: %w", p, factor, err)
			}
			o := opts
			o.Workers = 1 // the parameter fan-out is already parallel
			o.Progress = nil
			comp, err := runner.Compare(cfg, perturbed, o)
			if err != nil {
				return Effect{}, err
			}
			eff := Effect{Parameter: p, Factor: factor, FractionDiff: comp.FractionDiff}
			if f := base.UsefulWorkFraction.Mean; f > 0 {
				relF := comp.FractionDiff.Mean / f
				relP := factor - 1
				eff.Elasticity = relF / relP
			}
			return eff, nil
		})
	if err != nil {
		return Analysis{}, err
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
