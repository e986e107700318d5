package experiments

import (
	"fmt"

	"repro/internal/blocks"
	"repro/internal/runner"
	"repro/internal/stats"
)

// phaseCheckVariants are the model variants the self-verification runs
// over: the issue's acceptance set (base, master timeout, correlated
// failures) plus max-of-n coordination for completeness.
func phaseCheckVariants() []variant {
	return []variant{
		{"base", ""},
		{"timeout=120s", "timeout-sec=120"},
		{"correlated", "pe=0.3 r=100"},
		{"max-of-n", "coordination=max-of-n"},
	}
}

// phaseCheck is the phase-accounting self-verification as an
// experiment: for each model variant it estimates useful work twice from
// the same trajectories — the reward integral and the phase-span timeline —
// and reports both as paired series. The variants are one grid plan, every
// cell on the root seed. The claim checker then asserts the pairs agree
// within CI half-width; ccfigures -report records that verdict in
// REPORT.md.
func phaseCheck(opts runner.Options) ([]Series, error) {
	opts.VerifySpans = true
	variants := phaseCheckVariants()
	cells := make([]blocks.Cell, len(variants))
	seed := opts.WithDefaults().Seed
	for i, v := range variants {
		cells[i] = blocks.Cell{Label: v.name, X: float64(i), Seed: seed, Config: baseConfig()}
		if err := setParams(&cells[i].Config, "procs=65536 "+v.set); err != nil {
			return nil, err
		}
	}
	results, err := estimateCells(cells, opts)
	if err != nil {
		return nil, err
	}
	reward := Series{Name: "reward accounting"}
	spans := Series{Name: "span accounting"}
	for i, res := range results {
		x, iv := cells[i].X, res.UsefulWorkFraction
		reward.Points = append(reward.Points, Point{X: x, Fraction: iv, Total: res.TotalUsefulWork})
		// The span series reuses the reward CI metadata: both derivations
		// see the same trajectories, so the sampling uncertainty is
		// identical and only the mean can differ (by accounting error,
		// which is what the claim bounds).
		spans.Points = append(spans.Points, Point{
			X:        x,
			Fraction: stats.Interval{Mean: res.SpanCheck.SpanMean, HalfWide: iv.HalfWide, Level: iv.Level, N: iv.N},
			Total:    stats.Interval{Mean: res.SpanCheck.SpanMean * float64(cells[i].Config.Processors), HalfWide: res.TotalUsefulWork.HalfWide, Level: iv.Level, N: iv.N},
		})
	}
	return []Series{reward, spans}, nil
}

// checkSpanAgreement verifies the xphasecheck figure: at every variant the
// span-derived mean must sit within the reward estimate's CI half-width
// (plus the usual floor) of the reward mean.
func checkSpanAgreement(fig *Figure) []ClaimResult {
	rw := fig.SeriesByName("reward accounting")
	sp := fig.SeriesByName("span accounting")
	if rw == nil || sp == nil || len(rw.Points) != len(sp.Points) {
		return []ClaimResult{{fig.ID, "span accounting matches reward accounting", false, "series missing or mismatched"}}
	}
	var out []ClaimResult
	variants := phaseCheckVariants()
	for i := range rw.Points {
		name := "variant"
		if i < len(variants) {
			name = variants[i].name
		}
		delta := sp.Points[i].Fraction.Mean - rw.Points[i].Fraction.Mean
		tol := rw.Points[i].Fraction.HalfWide + 1e-9
		pass := delta >= -tol && delta <= tol
		out = append(out, ClaimResult{
			fig.ID, "span accounting matches reward accounting: " + name, pass,
			fmt.Sprintf("Δ=%.3g within ±%.3g", delta, tol),
		})
	}
	return out
}
