package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// Def is one row of the experiment table: a paper figure or a
// beyond-the-paper extra, declared once with everything needed to run,
// render and check it.
//
// Most rows are parameter sweeps over one base model (a grid): a catalog
// scenario plus overrides, an x axis and a list of series, all written in
// the parameter vocabulary of cluster.SetParam. Overrides are
// space-separated name=value pairs applied in order, first the row's,
// then the series', then the x value. The few experiments that are not
// grids (they mix analytic curves in, or read more than the two headline
// metrics) set run instead.
type Def struct {
	ID    string
	Title string // short title for listings
	// ShapeClaim is the paper's qualitative claim the reproduction must
	// preserve (DESIGN.md §4).
	ShapeClaim string

	figTitle, xLabel, yLabel string // as rendered on the figure

	// claims checks ShapeClaim on the reproduced figure (CheckClaims).
	claims func(*Figure) []ClaimResult

	base   string    // catalog scenario the grid starts from
	set    string    // overrides applied to base
	x      string    // x-axis parameter
	xs     []float64 // x values
	series []variant

	// run computes the series of a row that is not a grid.
	run func(runner.Options) ([]Series, error)
}

// variant is one series of a grid row: its name and its overrides.
type variant struct{ name, set string }

// each declares one series per value of a parameter, named by format.
func each(param, format string, values ...float64) []variant {
	out := make([]variant, len(values))
	for i, v := range values {
		out[i] = variant{fmt.Sprintf(format, v), param + "=" + strconv.FormatFloat(v, 'g', -1, 64)}
	}
	return out
}

// procSweep is the processor axis of most figures: 8K–256K processors.
var procSweep = []float64{8192, 16384, 32768, 65536, 131072, 262144}

// intervalSweep is the x axis of Figures 4b/d/f: 15 min–4 h.
var intervalSweep = []float64{15, 30, 60, 120, 240}

// powersOf4 is Figure 5's processor axis, a power-of-4 ladder like the
// paper's: 1 … 2^30.
func powersOf4() []float64 {
	var xs []float64
	for p := 1; p <= 1<<30; p *= 4 {
		xs = append(xs, float64(p))
	}
	return xs
}

// The two y measures a figure can plot (Figure.YValue).
const (
	yTotal    = "total useful work"
	yFraction = "useful work fraction"
)

// table is every experiment: the paper figures (IDs "fig…", in paper
// order) and then the extras.
var table = []Def{
	{
		ID: "fig4a", Title: "Useful work vs processors for different MTTFs",
		ShapeClaim: "interior optimum processor count; optimum shrinks with MTTF",
		figTitle:   "Useful work vs processors for different MTTFs (MTTR=10min, interval=30min)",
		xLabel:     "processors", yLabel: yTotal,
		claims: func(f *Figure) []ClaimResult { return checkOptimumShift(f, "MTTF", false) },
		base:   "base", x: "procs", xs: procSweep,
		series: each("mttf-years", "MTTF=%gyr", 0.125, 0.25, 0.5, 1, 2),
	},
	{
		ID: "fig4b", Title: "Useful work vs interval for different processor counts",
		ShapeClaim: "no optimum interval in 15min-4h; monotone decrease, flat 15-30min",
		figTitle:   "Useful work vs checkpoint interval for different processor counts (MTTF=1yr, MTTR=10min)",
		xLabel:     "interval (min)", yLabel: yTotal,
		claims: checkNoInteriorOptimum,
		base:   "base", x: "interval-min", xs: intervalSweep,
		series: each("procs", "procs=%g", procSweep...),
	},
	{
		ID: "fig4c", Title: "Useful work vs processors for different MTTRs",
		ShapeClaim: "optimum processor count decreases with MTTR",
		figTitle:   "Useful work vs processors for different MTTRs (MTTF=1yr, interval=30min)",
		xLabel:     "processors", yLabel: yTotal,
		claims: func(f *Figure) []ClaimResult {
			return append(checkOptimumShift(f, "MTTR", true), checkSeriesOrdered(f, "MTTR=10min", "MTTR=80min")...)
		},
		base: "base", x: "procs", xs: procSweep,
		series: each("mttr-min", "MTTR=%gmin", 10, 20, 40, 80),
	},
	{
		ID: "fig4d", Title: "Useful work vs interval for different MTTRs",
		ShapeClaim: "monotone decrease in interval; smaller MTTR dominates",
		figTitle:   "Useful work vs checkpoint interval for different MTTRs (MTTF=1yr, procs=64K)",
		xLabel:     "interval (min)", yLabel: yTotal,
		claims: func(f *Figure) []ClaimResult {
			return append(checkMonotoneDecreasing(f), checkSeriesOrdered(f, "MTTR=10min", "MTTR=80min")...)
		},
		base: "base", x: "interval-min", xs: intervalSweep,
		series: each("mttr-min", "MTTR=%gmin", 10, 20, 40, 80),
	},
	{
		ID: "fig4e", Title: "Useful work vs processors for different intervals",
		ShapeClaim: "optimum processor count decreases with interval",
		figTitle:   "Useful work vs processors for different checkpoint intervals (MTTF=1yr, MTTR=10min)",
		xLabel:     "processors", yLabel: yTotal,
		claims: func(f *Figure) []ClaimResult { return checkOptimumShift(f, "interval", true) },
		base:   "base", x: "procs", xs: procSweep,
		series: each("interval-min", "interval=%gmin", intervalSweep...),
	},
	{
		ID: "fig4f", Title: "Useful work vs interval for different MTTFs",
		ShapeClaim: "small drop 15→30min, sharp drop beyond 30min",
		figTitle:   "Useful work vs checkpoint interval for different MTTFs (MTTR=10min, procs=64K)",
		xLabel:     "interval (min)", yLabel: yTotal,
		claims: checkSharpDropAfter30,
		base:   "base", x: "interval-min", xs: intervalSweep,
		series: each("mttf-years", "MTTF=%gyr", 1, 2, 4, 8, 16),
	},
	{
		// The 1000K-processor study of Section 7.1.
		ID: "fig4g", Title: "Useful work vs nodes at 32 processors/node",
		ShapeClaim: "more processors per node at equal node count raises total useful work",
		figTitle:   "Useful work vs number of nodes, 32 processors/node",
		xLabel:     "nodes", yLabel: yTotal,
		claims: func(f *Figure) []ClaimResult { return checkSeriesOrdered(f, "MTTF=2yr", "MTTF=1yr") },
		base:   "base", set: "procs-per-node=32", x: "nodes", xs: []float64{8192, 16384, 32768},
		series: each("mttf-years", "MTTF=%gyr", 1, 2),
	},
	{
		ID: "fig4h", Title: "Useful work vs nodes at 16 processors/node",
		ShapeClaim: "optimum node count grows with MTTF",
		figTitle:   "Useful work vs number of nodes, 16 processors/node",
		xLabel:     "nodes", yLabel: yTotal,
		claims: func(f *Figure) []ClaimResult { return checkSeriesOrdered(f, "MTTF=2yr", "MTTF=1yr") },
		base:   "base", set: "procs-per-node=16", x: "nodes", xs: []float64{8192, 16384, 32768, 65536},
		series: each("mttf-years", "MTTF=%gyr", 1, 2),
	},
	{
		// Section 7.2: failures off to isolate coordination, max-of-n
		// quiesce times, one processor per node so any count divides.
		ID: "fig5", Title: "Coordination-only useful work fraction",
		ShapeClaim: "degradation logarithmic in processors, proportional to MTTQ",
		figTitle:   "Useful work fraction with coordination only (interval=30min, no timeouts or failures)",
		xLabel:     "processors", yLabel: yFraction,
		claims: func(f *Figure) []ClaimResult {
			return append(checkMonotoneDecreasing(f), checkSeriesOrdered(f, "MTTQ=0.5s", "MTTQ=10s")...)
		},
		base: "coordination-only", set: "procs-per-node=1", x: "procs", xs: powersOf4(),
		series: each("mttq-sec", "MTTQ=%gs", 10, 2, 0.5),
	},
	{
		ID: "fig6", Title: "Coordination and timeout with failures",
		ShapeClaim: "timeouts ≤80s collapse the fraction; ≥100s close to no-timeout",
		figTitle:   "Useful work fraction with coordination and timeout (MTTF=3yr, interval=30min, MTTQ=10s)",
		xLabel:     "processors", yLabel: yFraction,
		claims: checkTimeoutCollapse,
		base:   "max-of-n", set: "mttf-years=3 mttq-sec=10", x: "procs", xs: procSweep,
		series: append([]variant{{"no coordination", "coordination=none"}, {"no timeout", ""}},
			each("timeout-sec", "timeout=%gs", 120, 100, 80, 60, 40, 20)...),
	},
	{
		// Correlated failures due to error propagation, window 3 min.
		ID: "fig7", Title: "Correlated failures due to error propagation",
		ShapeClaim: "fraction nearly flat in pe and r",
		figTitle:   "Useful work fraction vs probability of correlated failure (MTTF=3yr, procs=256K, window=3min)",
		xLabel:     "prob of correlated failure", yLabel: yFraction,
		claims: func(f *Figure) []ClaimResult { return checkFlat(f, 0.08) },
		base:   "base", set: "procs=262144 mttf-years=3", x: "pe", xs: []float64{0, 0.05, 0.10, 0.15, 0.20},
		series: each("r", "r=%g", 400, 800, 1600),
	},
	{
		// The correlated case is the "generic-correlated" catalog
		// scenario; it doubles the system failure rate.
		ID: "fig8", Title: "Generic correlated failures",
		ShapeClaim: "large degradation that grows with processor count",
		figTitle:   "Useful work fraction with generic correlated failures (MTTF=3yr, r=400, alpha=0.0025, interval=30min)",
		xLabel:     "processors", yLabel: yFraction,
		claims: func(f *Figure) []ClaimResult {
			return checkSeriesOrdered(f, "without correlated failure", "with correlated failure")
		},
		base: "base", set: "mttf-years=3", x: "procs", xs: procSweep,
		series: []variant{{"without correlated failure", ""}, {"with correlated failure", "r=400 alpha=0.0025"}},
	},
	{
		// Checkpoint writes blocking computation (no two-step background
		// I/O, paper footnote 1) and recovery without I/O-node buffers:
		// each feature's value is the gap to the full design.
		ID: "xablations", Title: "Design ablations vs processors",
		ShapeClaim: "background writes and buffered recovery each buy a visible fraction at every scale",
		figTitle:   "Design ablations vs processors (MTTF=1yr, MTTR=10min, interval=30min)",
		xLabel:     "processors", yLabel: yFraction,
		claims: func(f *Figure) []ClaimResult {
			return append(checkSeriesOrdered(f, "full design", "blocking FS writes"),
				checkSeriesOrdered(f, "full design", "no buffered recovery")...)
		},
		base: "base", x: "procs", xs: procSweep,
		series: []variant{
			{"full design", ""},
			{"blocking FS writes", "blocking-write=true"},
			{"no buffered recovery", "no-buffered-recovery=true"},
		},
	},
	{
		ID: "xbreakdown", Title: "Time breakdown vs processors",
		ShapeClaim: "repeated work + recovery grow with scale and exceed 50% at the optimum",
		figTitle:   "Time breakdown vs processors (MTTF=1yr, MTTR=10min, interval=30min)",
		xLabel:     "processors", yLabel: "fraction of wall time",
		claims: checkRecoveryGrows,
		run:    breakdown,
	},
	{
		ID: "xphasecheck", Title: "Phase-accounting self-verification",
		ShapeClaim: "span-derived useful work matches the reward estimate within CI half-width on every variant",
		figTitle:   "Span-derived vs reward-based useful work (64Ki procs, MTTF=1yr)",
		xLabel:     "variant", yLabel: yFraction,
		claims: checkSpanAgreement,
		run:    phaseCheck,
	},
	{
		// Quiesce-time heterogeneity, which the paper's i.i.d. assumption
		// (§7.2) excludes: a few slow processors stretch the coordination
		// tail. No failures, to isolate coordination like Figure 5.
		ID: "xstragglers", Title: "Straggler quiesce heterogeneity",
		ShapeClaim: "small slow populations dominate the coordination tail",
		figTitle:   "Straggler quiesce heterogeneity (coordination only, interval=30min, MTTQ=10s)",
		xLabel:     "processors", yLabel: yFraction,
		claims: func(f *Figure) []ClaimResult { return checkSeriesOrdered(f, "homogeneous", "1% stragglers 100x") },
		base:   "coordination-only", set: "procs-per-node=1", x: "procs", xs: procSweep,
		series: []variant{
			{"homogeneous", ""},
			{"1% stragglers 10x", "straggler-fraction=0.01 straggler-mttq-mult=10"},
			{"1% stragglers 100x", "straggler-fraction=0.01 straggler-mttq-mult=100"},
			{"10% stragglers 10x", "straggler-fraction=0.1 straggler-mttq-mult=10"},
		},
	},
	{
		ID: "xmodelerror", Title: "Simulated vs analytic fraction",
		ShapeClaim: "classic no-coordination models overestimate at scale; the renewal model tracks",
		figTitle:   "Simulated vs analytic useful-work fraction (MTTF=3yr, interval=30min, max-of-n coordination)",
		xLabel:     "processors", yLabel: yFraction,
		claims: func(f *Figure) []ClaimResult {
			return checkSeriesOrdered(f, "classic (no coordination)", "renewal (with coordination)")
		},
		run: modelError,
	},
}

// Run reproduces the experiment.
func (d Def) Run(opts runner.Options) (*Figure, error) {
	var series []Series
	var err error
	if d.run != nil {
		series, err = d.run(opts)
	} else {
		series, err = d.grid(mustScenarioConfig(d.base), opts)
	}
	if err != nil {
		return nil, err
	}
	return &Figure{ID: d.ID, Title: d.figTitle, XLabel: d.xLabel, YLabel: d.yLabel, Series: series}, nil
}

// All returns the paper's figure experiments (fig4a–fig4h, fig5–fig8) in
// paper order.
func All() []Def { return filter(true) }

// Extras returns the beyond-the-paper experiments.
func Extras() []Def { return filter(false) }

func filter(paper bool) []Def {
	var out []Def
	for _, d := range table {
		if strings.HasPrefix(d.ID, "fig") == paper {
			out = append(out, d)
		}
	}
	return out
}

// Lookup returns the paper figure experiment with the given ID.
func Lookup(id string) (Def, error) { return find(All(), id) }

// LookupAny returns the experiment with the given ID, paper figure or
// extra.
func LookupAny(id string) (Def, error) { return find(table, id) }

func find(defs []Def, id string) (Def, error) {
	for _, d := range defs {
		if d.ID == id {
			return d, nil
		}
	}
	return Def{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// ScenarioDef sweeps processor count for one catalog scenario — the
// generic figure behind `ccfigures -scenario <name>`, giving any scenario
// (built-in or user-supplied) the same scaling view the paper's figures
// give the base model.
func ScenarioDef(s scenario.Scenario) Def {
	d := Def{
		ID: "scenario-" + s.Name, Title: s.Title,
		ShapeClaim: "scenario sweep (no paper shape claim)",
		figTitle:   s.Title, xLabel: "processors", yLabel: yFraction,
		x: "procs", xs: procSweep, series: []variant{{name: s.Name}},
	}
	d.run = func(opts runner.Options) ([]Series, error) {
		cfg, err := s.ClusterConfig()
		if err != nil {
			return nil, err
		}
		return d.grid(cfg, opts)
	}
	return d
}

// ScenarioFigure runs ScenarioDef(s).
func ScenarioFigure(s scenario.Scenario, opts runner.Options) (*Figure, error) {
	return ScenarioDef(s).Run(opts)
}
