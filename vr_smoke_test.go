package repro_test

// The variance-reduction smoke (`make vr-smoke`): a ~30-second paired-vs-
// plain convergence comparison on the base scenario, gated at a measured
// variance-reduction factor of 2× and recorded into BENCH_HISTORY.jsonl via
// `ccbench record` so the performance sentinel watches statistical
// efficiency alongside events/s.
//
// The gated factor is the engine's strongest pairing — common random
// numbers on per-purpose sub-streams, the mechanism behind Compare —
// measured as the CI-shrink factor (Var A + Var B) / Var(A−B) on a small
// design change to the base scenario. Antithetic pairing is measured and
// recorded alongside but gated only at >1 (it must help, never hurt): its
// theoretical ceiling on exponential-noise steady-state estimates is
// 1/(π²/6 − 1) ≈ 2.8×, too close to 2× to gate robustly.
//
// Everything here is seeded, so the measured numbers are deterministic:
// a gate failure means the pairing machinery changed, not an unlucky run.

import (
	"testing"

	"repro"
	"repro/internal/stats"
	"repro/internal/vr"
)

// vrSmoke holds the measured efficiency of one smoke run.
type vrSmoke struct {
	// shrink is the CRN CI-shrink factor (Var A + Var B) / Var(A−B).
	shrink float64
	// pairedReps is how many paired replications reach the half-width the
	// independent design needs the full budget for; speedup is the ratio.
	pairedReps int
	speedup    float64
	// antitheticFactor is the measured antithetic VR factor on the base
	// scenario's useful-work fraction.
	antitheticFactor float64
}

const vrSmokeReps = 12

// runVRSmoke measures the paired and plain convergence on the base
// scenario: config B is a one-knob design change (20% longer checkpoint
// interval) — exactly the comparison Compare exists for.
func runVRSmoke(tb testing.TB) vrSmoke {
	tb.Helper()
	a := repro.DefaultConfig()
	b := a
	b.CheckpointInterval = repro.Minutes(36)

	o := repro.Options{Replications: vrSmokeReps, Warmup: 300, Measure: 1500, Seed: 1, SyncReport: true}
	comp, err := repro.CompareConfigs(a, b, o)
	if err != nil {
		tb.Fatal(err)
	}
	paired := make([]float64, vrSmokeReps)
	for r := range paired {
		paired[r] = comp.B.PerReplication[r].UsefulWorkFraction - comp.A.PerReplication[r].UsefulWorkFraction
	}

	// The plain design: the same budget spent on independently seeded
	// estimates of each side.
	oa := repro.Options{Replications: vrSmokeReps, Warmup: 300, Measure: 1500, Seed: 101}
	ob := oa
	ob.Seed = 202
	ra, err := repro.Simulate(a, oa)
	if err != nil {
		tb.Fatal(err)
	}
	rb, err := repro.Simulate(b, ob)
	if err != nil {
		tb.Fatal(err)
	}
	var indep stats.Accumulator
	for r := 0; r < vrSmokeReps; r++ {
		indep.Add(rb.PerReplication[r].UsefulWorkFraction - ra.PerReplication[r].UsefulWorkFraction)
	}
	target := indep.CI(0.95).HalfWide

	s := vrSmoke{shrink: comp.Sync.CIShrinkFactor}
	s.pairedReps = stats.NewFold(0.95, false).ReplicationsToHalfWidth(paired, target)
	if s.pairedReps > 0 {
		s.speedup = float64(vrSmokeReps) / float64(s.pairedReps)
	}

	av := repro.Options{Replications: 32, Warmup: 300, Measure: 1500, Seed: 3,
		VarianceReduction: vr.ModeAntithetic}
	ar, err := repro.Simulate(a, av)
	if err != nil {
		tb.Fatal(err)
	}
	s.antitheticFactor = ar.VR.Factor
	return s
}

// TestVRSmokeGate is the hard gate behind `make vr-smoke`.
func TestVRSmokeGate(t *testing.T) {
	s := runVRSmoke(t)
	t.Logf("CRN shrink ×%.2f | paired reps to plain half-width %d/%d (%.1fx) | antithetic factor %.2f",
		s.shrink, s.pairedReps, vrSmokeReps, s.speedup, s.antitheticFactor)
	if s.shrink < 2 {
		t.Errorf("measured variance-reduction factor ×%.2f below the 2× gate", s.shrink)
	}
	if s.pairedReps < 0 {
		t.Error("paired design never reached the plain design's half-width")
	} else if s.speedup < 2 {
		t.Errorf("paired design needed %d of %d replications (%.1fx) — below the 2× gate",
			s.pairedReps, vrSmokeReps, s.speedup)
	}
	if s.antitheticFactor <= 1 {
		t.Errorf("antithetic factor %.2f — pairing must not hurt", s.antitheticFactor)
	}
}

// BenchmarkVRSmoke reports the smoke's efficiency metrics in benchmark
// form so `ccbench record` archives them: replications_to_halfwidth is
// lower-better (ccbench's default for unit-less metrics), vr_factor and
// antithetic_factor ride along for the trend view.
func BenchmarkVRSmoke(b *testing.B) {
	var s vrSmoke
	for i := 0; i < b.N; i++ {
		s = runVRSmoke(b)
	}
	b.ReportMetric(float64(s.pairedReps), "replications_to_halfwidth")
	b.ReportMetric(s.shrink, "vr_factor")
	b.ReportMetric(s.antitheticFactor, "antithetic_factor")
}
