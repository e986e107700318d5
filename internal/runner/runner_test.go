package runner

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

func quickOpts() Options {
	return Options{Replications: 3, Warmup: 100, Measure: 800, Seed: 7}
}

func TestEstimateBasic(t *testing.T) {
	cfg := cluster.Default()
	res, err := Estimate(cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerReplication) != 3 {
		t.Fatalf("replications = %d", len(res.PerReplication))
	}
	f := res.UsefulWorkFraction
	if f.Mean <= 0 || f.Mean >= 1 {
		t.Fatalf("fraction mean = %v", f.Mean)
	}
	if f.N != 3 || f.Level != 0.95 {
		t.Fatalf("CI metadata wrong: %+v", f)
	}
	want := f.Mean * float64(cfg.Processors)
	if math.Abs(res.TotalUsefulWork.Mean-want)/want > 1e-9 {
		t.Fatalf("total = %v, want fraction×procs = %v", res.TotalUsefulWork.Mean, want)
	}
}

func TestEstimateDeterministicInSeed(t *testing.T) {
	cfg := cluster.Default()
	a, err := Estimate(cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.UsefulWorkFraction.Mean != b.UsefulWorkFraction.Mean {
		t.Fatal("same seed gave different estimates")
	}
	o := quickOpts()
	o.Seed = 8
	c, err := Estimate(cfg, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.UsefulWorkFraction.Mean == a.UsefulWorkFraction.Mean {
		t.Fatal("different seed gave identical estimate")
	}
}

func TestReplicationsDiffer(t *testing.T) {
	res, err := Estimate(cluster.Default(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	first := res.PerReplication[0].UsefulWorkFraction
	allSame := true
	for _, m := range res.PerReplication[1:] {
		if m.UsefulWorkFraction != first {
			allSame = false
		}
	}
	if allSame {
		t.Fatal("replications produced identical trajectories")
	}
}

func TestDefaultsApplied(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Replications != 5 || o.Warmup != 1000 || o.Measure != 4000 || o.Confidence != 0.95 || o.Seed != 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestValidation(t *testing.T) {
	if err := (Options{Replications: -1, Measure: 1, Confidence: 0.9}).Validate(); err == nil {
		t.Error("negative replications accepted")
	}
	if err := (Options{Replications: 2, Warmup: -1, Measure: 1, Confidence: 0.9}).Validate(); err == nil {
		t.Error("negative warmup accepted")
	}
	if err := (Options{Replications: 2, Measure: -1, Confidence: 0.9}).Validate(); err == nil {
		t.Error("negative measure accepted")
	}
	if err := (Options{Replications: 2, Measure: 1, Confidence: 2}).Validate(); err == nil {
		t.Error("confidence 2 accepted")
	}
	bad := cluster.Default()
	bad.Processors = 0
	if _, err := Estimate(bad, quickOpts()); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCIShrinkage(t *testing.T) {
	// More replications should not widen the CI (statistically this holds
	// overwhelmingly; seeds are fixed so the test is deterministic).
	cfg := cluster.Default()
	small, err := Estimate(cfg, Options{Replications: 3, Warmup: 100, Measure: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Estimate(cfg, Options{Replications: 10, Warmup: 100, Measure: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if big.UsefulWorkFraction.HalfWide > small.UsefulWorkFraction.HalfWide*1.5 {
		t.Fatalf("CI widened with more replications: %v vs %v",
			big.UsefulWorkFraction.HalfWide, small.UsefulWorkFraction.HalfWide)
	}
}
