// Package opt finds optimal operating points of the checkpointing model by
// simulation: the optimum machine size for a given reliability (the
// Figure 4a knee) and the best checkpoint interval (Figure 4b), with
// confidence-interval-aware reporting so a flat optimum is not
// over-claimed.
package opt

import (
	"context"
	"fmt"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Point is one evaluated candidate.
type Point struct {
	// X is the candidate value (processor count or interval hours).
	X float64
	// Fraction is the estimated useful-work fraction.
	Fraction stats.Interval
	// Total is the estimated total useful work.
	Total stats.Interval
}

// Search is the outcome of a candidate sweep.
type Search struct {
	// Points holds every evaluated candidate in input order.
	Points []Point
	// Best is the candidate with the highest objective mean.
	Best Point
	// Distinct reports whether the best candidate's confidence interval
	// is disjoint from the runner-up's — i.e. the optimum is
	// statistically resolved at the options' confidence level.
	Distinct bool
}

// objective selects what the search maximises.
type objective int

const (
	maxTotal objective = iota + 1
	maxFraction
)

// OptimalProcessors sweeps machine sizes and returns the one maximising
// total useful work — the paper's §7.1 capacity-planning question.
func OptimalProcessors(base cluster.Config, candidates []int, opts runner.Options) (Search, error) {
	if len(candidates) == 0 {
		return Search{}, fmt.Errorf("opt: no candidate processor counts")
	}
	mutate := func(cfg *cluster.Config, x float64) { cfg.Processors = int(x) }
	xs := make([]float64, len(candidates))
	for i, c := range candidates {
		xs[i] = float64(c)
	}
	return search(base, xs, mutate, maxTotal, opts)
}

// OptimalInterval sweeps checkpoint intervals (hours) and returns the one
// maximising total useful work — the Figure 4b question. The paper's
// finding is that within the practical range the smallest interval wins.
func OptimalInterval(base cluster.Config, candidates []float64, opts runner.Options) (Search, error) {
	if len(candidates) == 0 {
		return Search{}, fmt.Errorf("opt: no candidate intervals")
	}
	mutate := func(cfg *cluster.Config, x float64) { cfg.CheckpointInterval = x }
	return search(base, candidates, mutate, maxTotal, opts)
}

// OptimalTimeout sweeps master timeouts (hours; 0 = none) and returns the
// one maximising the useful-work fraction — the Figure 6 question.
func OptimalTimeout(base cluster.Config, candidates []float64, opts runner.Options) (Search, error) {
	if len(candidates) == 0 {
		return Search{}, fmt.Errorf("opt: no candidate timeouts")
	}
	mutate := func(cfg *cluster.Config, x float64) { cfg.Timeout = x }
	return search(base, candidates, mutate, maxFraction, opts)
}

// search evaluates every candidate as one cell of a grid plan
// (runner.PlanGrid → runner.EstimateGrid, opts.Workers cells at a time;
// candidate seeds are derived from the candidate index alone, so the sweep
// is deterministic for any worker count) and ranks by the objective mean.
// A journal is rejected by EstimateGrid: the candidates' estimates would
// write into it concurrently, in scheduling order.
func search(base cluster.Config, xs []float64,
	mutate func(*cluster.Config, float64), obj objective, opts runner.Options) (Search, error) {
	seedBase := opts.WithDefaults().Seed
	cells := make([]blocks.Cell, len(xs))
	for i, x := range xs {
		cells[i] = blocks.Cell{Label: fmt.Sprintf("candidate %g", x), X: x, Seed: seedBase*1000003 + uint64(i)*7919, Config: base}
		mutate(&cells[i].Config, x)
	}
	m, err := runner.PlanGrid("opt", cells, 0, opts)
	if err != nil {
		return Search{}, fmt.Errorf("opt: %w", err)
	}
	results, err := runner.EstimateGrid(context.Background(), m, opts, nil)
	if err != nil {
		return Search{}, fmt.Errorf("opt: %w", err)
	}
	points := make([]Point, len(xs))
	for i, res := range results {
		points[i] = Point{X: xs[i], Fraction: res.UsefulWorkFraction, Total: res.TotalUsefulWork}
	}
	out := Search{Points: points}
	bestIdx, runnerUp := -1, -1
	for i, p := range points {
		switch {
		case bestIdx < 0 || value(p, obj) > value(out.Points[bestIdx], obj):
			runnerUp = bestIdx
			bestIdx = i
		case runnerUp < 0 || value(p, obj) > value(out.Points[runnerUp], obj):
			runnerUp = i
		}
	}
	out.Best = out.Points[bestIdx]
	if runnerUp >= 0 {
		b := interval(out.Points[bestIdx], obj)
		r := interval(out.Points[runnerUp], obj)
		out.Distinct = b.Low() > r.High()
	} else {
		out.Distinct = true // single candidate
	}
	return out, nil
}

func value(p Point, obj objective) float64 { return interval(p, obj).Mean }

func interval(p Point, obj objective) stats.Interval {
	if obj == maxFraction {
		return p.Fraction
	}
	return p.Total
}
