package experiments

import (
	"context"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/stats"
)

// breakdown measures where machine time goes as the system scales:
// execution (split into retained and repeated work), checkpointing
// (quiesce + dump), recovery and reboot shares versus processor count.
// This quantifies the paper's §7.1 remark that over half the machine is
// consumed by failure handling at the optimum scale.
func breakdown(opts runner.Options) ([]Series, error) {
	opts = fillDefaults(opts)
	type row struct {
		useful, repeated, checkpoint, recovery, reboot stats.Accumulator
	}
	rows := make([]row, len(procSweep))
	// Seeds are drawn from the root stream in (cell, replication) order
	// before dispatch, and the trajectories then fan out as one flat job
	// grid; the accumulators are filled in the same order afterwards, so
	// the figure is bit-identical for every worker count.
	root := rng.New(opts.Seed)
	seeds := make([]uint64, len(procSweep)*opts.Replications)
	for j := range seeds {
		seeds[j] = root.Uint64()
	}
	pool := exec.Pool{Workers: exec.WorkerCount(opts.Workers)}
	metrics, err := exec.Map(context.Background(), pool, len(seeds),
		func(_ context.Context, j int) (model.Metrics, error) {
			cfg := baseConfig()
			cfg.Processors = int(procSweep[j/opts.Replications])
			in, err := model.New(cfg, seeds[j])
			if err != nil {
				return model.Metrics{}, err
			}
			return in.RunSteadyState(opts.Warmup, opts.Measure)
		})
	if err != nil {
		return nil, err
	}
	for j, m := range metrics {
		i := j / opts.Replications
		rows[i].useful.Add(m.UsefulWorkFraction)
		rows[i].repeated.Add(m.RepeatedWorkFraction)
		rows[i].checkpoint.Add(m.Breakdown.Quiesce + m.Breakdown.Dump + m.Breakdown.FSWait)
		rows[i].recovery.Add(m.Breakdown.Recovery)
		rows[i].reboot.Add(m.Breakdown.Reboot)
	}
	series := []struct {
		name string
		pick func(*row) *stats.Accumulator
	}{
		{"useful work", func(r *row) *stats.Accumulator { return &r.useful }},
		{"repeated work", func(r *row) *stats.Accumulator { return &r.repeated }},
		{"checkpointing", func(r *row) *stats.Accumulator { return &r.checkpoint }},
		{"recovery", func(r *row) *stats.Accumulator { return &r.recovery }},
		{"reboot", func(r *row) *stats.Accumulator { return &r.reboot }},
	}
	var all []Series
	for _, s := range series {
		out := Series{Name: s.name, Points: make([]Point, 0, len(procSweep))}
		for i, procs := range procSweep {
			acc := s.pick(&rows[i])
			iv := acc.CI(opts.Confidence)
			out.Points = append(out.Points, Point{
				X:        procs,
				Fraction: iv,
				Total:    stats.Interval{Mean: iv.Mean * procs, HalfWide: iv.HalfWide * procs, Level: iv.Level, N: iv.N},
			})
		}
		all = append(all, out)
	}
	return all, nil
}

// fillDefaults mirrors runner option defaulting for experiments that drive
// the model directly.
func fillDefaults(opts runner.Options) runner.Options {
	if opts.Replications == 0 {
		opts.Replications = 5
	}
	if opts.Warmup == 0 {
		opts.Warmup = 1000
	}
	if opts.Measure == 0 {
		opts.Measure = 4000
	}
	if opts.Confidence == 0 {
		opts.Confidence = 0.95
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return opts
}

// modelError contrasts the full simulation against the classic analytic
// chain the paper argues is insufficient at scale: Young/Daly-style
// efficiency (no coordination) and the renewal coordination model. The
// growing gap of the classic model at large machine sizes is the paper's
// thesis in one figure.
func modelError(opts runner.Options) ([]Series, error) {
	base := cluster.Default()
	base.MTTFPerNode = cluster.Years(3)
	base.Coordination = cluster.CoordMaxOfN

	simulated, err := sweep(base, "simulated (SAN)", procSweep,
		func(cfg *cluster.Config, x float64) { cfg.Processors = int(x) }, opts)
	if err != nil {
		return nil, err
	}
	classic := Series{Name: "classic (no coordination)"}
	renewal := Series{Name: "renewal (with coordination)"}
	for _, x := range procSweep {
		cfg := base
		cfg.Processors = int(x)
		mtbf, err := analytic.SystemMTBF(cfg.Nodes(), cfg.MTTFPerNode)
		if err != nil {
			return nil, err
		}
		overhead := cfg.MTTQ + cfg.CheckpointDumpTime()
		eff, err := analytic.Efficiency(cfg.CheckpointInterval, overhead, cfg.MTTR, mtbf)
		if err != nil {
			return nil, err
		}
		classic.Points = append(classic.Points, analyticPoint(x, eff, cfg.Processors))

		reff, _, err := analytic.CoordinationEfficiency(cfg.Processors, cfg.MTTQ, cfg.Timeout,
			cfg.CheckpointInterval, cfg.CheckpointDumpTime(), cfg.MTTR, mtbf)
		if err != nil {
			return nil, err
		}
		renewal.Points = append(renewal.Points, analyticPoint(x, reff, cfg.Processors))
	}
	return []Series{simulated, classic, renewal}, nil
}

// analyticPoint wraps a closed-form value as a zero-width interval point.
func analyticPoint(x, fraction float64, procs int) Point {
	return Point{
		X:        x,
		Fraction: stats.Interval{Mean: fraction, Level: 1, N: 1},
		Total:    stats.Interval{Mean: fraction * float64(procs), Level: 1, N: 1},
	}
}
