package experiments

import (
	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/stats"
)

// breakdown measures where machine time goes as the system scales:
// execution (split into retained and repeated work), checkpointing
// (quiesce + dump), recovery and reboot shares versus processor count.
// This quantifies the paper's §7.1 remark that over half the machine is
// consumed by failure handling at the optimum scale. The shares are folded
// from the per-replication metrics of one grid series over procSweep.
func breakdown(opts runner.Options) ([]Series, error) {
	sp := seriesSpec{name: "breakdown", xs: procSweep}
	for _, x := range procSweep {
		cfg := baseConfig()
		cfg.Processors = int(x)
		sp.cfgs = append(sp.cfgs, cfg)
	}
	results, err := estimateSpecs([]seriesSpec{sp}, opts)
	if err != nil {
		return nil, err
	}
	shares := []struct {
		name string
		pick func(model.Metrics) float64
	}{
		{"useful work", func(m model.Metrics) float64 { return m.UsefulWorkFraction }},
		{"repeated work", func(m model.Metrics) float64 { return m.RepeatedWorkFraction }},
		{"checkpointing", func(m model.Metrics) float64 { return m.Breakdown.Quiesce + m.Breakdown.Dump + m.Breakdown.FSWait }},
		{"recovery", func(m model.Metrics) float64 { return m.Breakdown.Recovery }},
		{"reboot", func(m model.Metrics) float64 { return m.Breakdown.Reboot }},
	}
	all := make([]Series, len(shares))
	for k, s := range shares {
		all[k] = Series{Name: s.name, Points: make([]Point, len(procSweep))}
		for i, res := range results[0] {
			fold := opts.VarianceReduction.Fold(res.UsefulWorkFraction.Level)
			for _, m := range res.PerReplication {
				fold.Add(s.pick(m))
			}
			iv, procs := fold.CI(), procSweep[i]
			all[k].Points[i] = Point{
				X:        procs,
				Fraction: iv,
				Total:    stats.Interval{Mean: iv.Mean * procs, HalfWide: iv.HalfWide * procs, Level: iv.Level, N: iv.N},
			}
		}
	}
	return all, nil
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
