package experiments

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// seriesSpec declares one curve of a figure before anything runs: its
// name and one model configuration per x value. Declaring every series up
// front lets a figure submit all its (series, x) cells to the worker pool
// as one flat job grid instead of sweeping series by series.
type seriesSpec struct {
	name string
	xs   []float64
	cfgs []cluster.Config // cfgs[i] is the configuration at xs[i]
}

// grid measures a table row: one series per variant over the row's x axis,
// every cell starting from base with the row's overrides, then the
// variant's, then the x value applied through the parameter vocabulary.
func (d Def) grid(base cluster.Config, opts runner.Options) ([]Series, error) {
	if err := setParams(&base, d.set); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", d.ID, err)
	}
	specs := make([]seriesSpec, len(d.series))
	for si, v := range d.series {
		series := base
		if err := setParams(&series, v.set); err != nil {
			return nil, fmt.Errorf("experiments: %s: series %s: %w", d.ID, v.name, err)
		}
		specs[si] = seriesSpec{name: v.name, xs: d.xs}
		for _, x := range d.xs {
			cfg := series
			if err := cluster.SetParam(&cfg, d.x, strconv.FormatFloat(x, 'g', -1, 64)); err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", d.ID, err)
			}
			specs[si].cfgs = append(specs[si].cfgs, cfg)
		}
	}
	return runSpecs(specs, opts)
}

// setParams applies space-separated name=value overrides in order.
func setParams(cfg *cluster.Config, overrides string) error {
	for _, kv := range strings.Fields(overrides) {
		name, value, _ := strings.Cut(kv, "=")
		if err := cluster.SetParam(cfg, name, value); err != nil {
			return err
		}
	}
	return nil
}

// runSpecs measures every cell of the given specs (estimateSpecs) and
// assembles the series in declaration order.
func runSpecs(specs []seriesSpec, opts runner.Options) ([]Series, error) {
	results, err := estimateSpecs(specs, opts)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(specs))
	for si, sp := range specs {
		out[si] = Series{Name: sp.name, Points: make([]Point, len(sp.xs))}
		for xi, x := range sp.xs {
			r := results[si][xi]
			out[si].Points[xi] = Point{X: x, Fraction: r.UsefulWorkFraction, Total: r.TotalUsefulWork}
		}
	}
	return out, nil
}

// estimateSpecs estimates every cell of the given specs as one
// block-planned grid (runner.PlanGrid → runner.EstimateGrid): the whole
// (series × x) space is declared as manifest cells up front and fans out
// on the bounded worker pool (opts.Workers; a cell is the unit of
// parallelism, so each cell's replications run sequentially). It returns
// results[si][xi]. A cell's seed depends only on (opts.Seed, defaulted as
// Estimate defaults it, series name, x index) — the same derivation the
// sequential sweeps used — so the whole grid is bit-identical for every
// worker count and scheduling, and a figure can equally be exported as a
// run directory and computed by detached workers.
func estimateSpecs(specs []seriesSpec, opts runner.Options) ([][]runner.Result, error) {
	type cellRef struct{ si, xi int }
	var refs []cellRef
	var cells []blocks.Cell
	seed := opts.WithDefaults().Seed
	for si, sp := range specs {
		for xi, x := range sp.xs {
			refs = append(refs, cellRef{si, xi})
			cells = append(cells, blocks.Cell{
				Label:  fmt.Sprintf("%s@%g", sp.name, x),
				X:      x,
				Seed:   seed*1000003 + uint64(xi)*7919 + hashName(sp.name),
				Config: sp.cfgs[xi],
			})
		}
	}
	results, err := estimateCells(cells, opts)
	if err != nil {
		var ce *runner.CellError
		if errors.As(err, &ce) {
			ref := refs[ce.Index]
			return nil, fmt.Errorf("experiments: series %s x=%v: %w", specs[ref.si].name, specs[ref.si].xs[ref.xi], ce.Err)
		}
		return nil, err
	}
	out := make([][]runner.Result, len(specs))
	for si, sp := range specs {
		out[si], results = results[:len(sp.xs)], results[len(sp.xs):]
	}
	return out, nil
}

// estimateCells runs cells as one grid plan, in cell order.
func estimateCells(cells []blocks.Cell, opts runner.Options) ([]runner.Result, error) {
	m, err := runner.PlanGrid("experiments", cells, 0, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return runner.EstimateGrid(context.Background(), m, opts, nil)
}

// sweep runs a single series — the one-spec convenience over runSpecs for
// experiments that mix measured and analytic series.
func sweep(base cluster.Config, name string, xs []float64,
	mutate func(cfg *cluster.Config, x float64), opts runner.Options) (Series, error) {
	sp := seriesSpec{name: name, xs: xs}
	for _, x := range xs {
		cfg := base
		mutate(&cfg, x)
		sp.cfgs = append(sp.cfgs, cfg)
	}
	series, err := runSpecs([]seriesSpec{sp}, opts)
	if err != nil {
		return Series{}, err
	}
	return series[0], nil
}

// hashName derives a stable seed component from a series name.
func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// mustScenarioConfig returns the named built-in scenario's model
// configuration. The experiments draw their base configurations from the
// scenario catalog so that "what figure N ran" is inspectable data
// (`ccsim -list-scenarios`), not code. The embedded catalog is validated
// by its package tests and pinned bit-identically by the model
// differential suite, so a failure here is a build defect; panicking keeps
// the experiments free of impossible error plumbing.
func mustScenarioConfig(name string) cluster.Config {
	s, err := scenario.Builtin().Get(name)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	cfg, err := s.ClusterConfig()
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return cfg
}

// baseConfig is the Section 7.1 base model: fixed quiesce time, no
// timeout, independent failures only — the "base" scenario of the
// catalog (which TestScenarioRegistryPinsVariants pins to the paper's
// Table 3 defaults).
func baseConfig() cluster.Config {
	return mustScenarioConfig("base")
}
