package runner

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vr"
)

func TestCompareIdenticalConfigsGivesZeroDiff(t *testing.T) {
	cfg := cluster.Default()
	c, err := Compare(cfg, cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Common random numbers on identical configs give bit-identical
	// trajectories, so the paired difference is exactly zero.
	if c.FractionDiff.Mean != 0 || c.FractionDiff.HalfWide != 0 {
		t.Fatalf("identical configs diff = %v", c.FractionDiff)
	}
	if c.Significant() {
		t.Fatal("identical configs flagged significant")
	}
}

func TestCompareDetectsBlockingWriteCheaply(t *testing.T) {
	// The blocking-write ablation costs ~3% fraction; with CRN pairing,
	// even 3 short replications resolve it significantly.
	a := cluster.Default()
	b := a
	b.BlockingCheckpointWrite = true
	c, err := Compare(a, b, Options{Replications: 3, Warmup: 100, Measure: 800, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Significant() {
		t.Fatalf("blocking-write effect not resolved: %v", c.FractionDiff)
	}
	if c.FractionDiff.Mean >= 0 {
		t.Fatalf("blocking write should reduce the fraction: %v", c.FractionDiff)
	}
	// Pairing must shrink the interval versus the independent estimates.
	indep := c.A.UsefulWorkFraction.HalfWide + c.B.UsefulWorkFraction.HalfWide
	if c.FractionDiff.HalfWide > indep {
		t.Fatalf("paired CI %v wider than unpaired sum %v", c.FractionDiff.HalfWide, indep)
	}
}

func TestCompareTotalsTrackFractions(t *testing.T) {
	a := cluster.Default()
	b := a
	b.MTTFPerNode = cluster.Years(4)
	c, err := Compare(a, b, Options{Replications: 3, Warmup: 100, Measure: 600, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if c.FractionDiff.Mean <= 0 {
		t.Fatalf("4x MTTF should improve the fraction: %v", c.FractionDiff)
	}
	wantTotal := c.FractionDiff.Mean * float64(a.Processors)
	if math.Abs(c.TotalDiff.Mean-wantTotal)/wantTotal > 1e-9 {
		t.Fatalf("total diff %v inconsistent with fraction diff %v", c.TotalDiff.Mean, wantTotal)
	}
}

func TestCompareValidation(t *testing.T) {
	bad := cluster.Default()
	bad.Processors = 0
	if _, err := Compare(bad, cluster.Default(), quickOpts()); err == nil {
		t.Error("invalid config A accepted")
	}
	if _, err := Compare(cluster.Default(), bad, quickOpts()); err == nil {
		t.Error("invalid config B accepted")
	}
	if _, err := Compare(cluster.Default(), cluster.Default(), Options{Replications: -1, Measure: 1, Confidence: 0.9}); err == nil {
		t.Error("invalid options accepted")
	}
}

// Compare has no reflected leg: antithetic options must fail rather than
// silently round the replication count up and return a plain comparison.
func TestCompareRejectsAntithetic(t *testing.T) {
	o := quickOpts()
	o.Replications = 3
	o.VarianceReduction = vr.ModeAntithetic
	_, err := Compare(cluster.Default(), cluster.Default(), o)
	if err == nil || !strings.Contains(err.Error(), "antithetic") {
		t.Fatalf("antithetic comparison accepted: %v", err)
	}
}
