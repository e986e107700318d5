package opt

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/runner"
)

func quickOpts() runner.Options {
	return runner.Options{Replications: 3, Warmup: 150, Measure: 1200, Seed: 9}
}

func TestOptimalProcessorsFindsKnee(t *testing.T) {
	base := cluster.Default() // MTTF 1yr, MTTR 10min, interval 30min
	res, err := OptimalProcessors(base, []int{32768, 131072, 1 << 21}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// 2M processors is far past the knee; the optimum must be interior.
	if res.Best.X == float64(1<<21) {
		t.Fatalf("optimum at the absurd end: %+v", res.Best)
	}
	if res.Best.X != 131072 {
		t.Fatalf("optimum = %v, expected 131072 (the paper's knee)", res.Best.X)
	}
	if !res.Distinct {
		t.Fatal("widely separated candidates should be statistically distinct")
	}
}

func TestOptimalIntervalPrefersSmallest(t *testing.T) {
	base := cluster.Default()
	base.Processors = 128 * 1024
	res, err := OptimalInterval(base, []float64{
		cluster.Minutes(15), cluster.Minutes(60), cluster.Minutes(240),
	}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.X != cluster.Minutes(15) {
		t.Fatalf("optimum interval = %v h, paper says the smallest practical wins", res.Best.X)
	}
}

func TestOptimalTimeoutAvoidsSuicidal(t *testing.T) {
	base := cluster.Default()
	base.Processors = 32768
	base.MTTFPerNode = cluster.Years(3)
	base.Coordination = cluster.CoordMaxOfN
	res, err := OptimalTimeout(base, []float64{
		cluster.Seconds(20), cluster.Seconds(120), 0,
	}, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.X == cluster.Seconds(20) {
		t.Fatalf("a 20s timeout cannot be optimal at 32K processors: %+v", res.Best)
	}
}

func TestSingleCandidate(t *testing.T) {
	res, err := OptimalProcessors(cluster.Default(), []int{8192},
		runner.Options{Replications: 2, Warmup: 20, Measure: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.X != 8192 || !res.Distinct {
		t.Fatalf("single candidate result wrong: %+v", res)
	}
}

func TestEmptyCandidates(t *testing.T) {
	if _, err := OptimalProcessors(cluster.Default(), nil, quickOpts()); err == nil {
		t.Error("empty processor candidates accepted")
	}
	if _, err := OptimalInterval(cluster.Default(), nil, quickOpts()); err == nil {
		t.Error("empty interval candidates accepted")
	}
	if _, err := OptimalTimeout(cluster.Default(), nil, quickOpts()); err == nil {
		t.Error("empty timeout candidates accepted")
	}
}

// The candidates' estimates run concurrently, so a shared journal would
// collect their records in scheduling order with no candidate label: the
// searches must refuse one before simulating anything.
func TestSearchesRejectJournal(t *testing.T) {
	var buf bytes.Buffer
	o := runner.Options{Replications: 2, Warmup: 20, Measure: 200, Workers: 2, Journal: obs.NewJournal(&buf)}
	base := cluster.Default()
	if _, err := OptimalProcessors(base, []int{8192, 16384}, o); err == nil {
		t.Error("OptimalProcessors accepted a journal")
	}
	if _, err := OptimalInterval(base, []float64{cluster.Minutes(15), cluster.Minutes(30)}, o); err == nil {
		t.Error("OptimalInterval accepted a journal")
	}
	if _, err := OptimalTimeout(base, []float64{0, cluster.Minutes(1)}, o); err == nil {
		t.Error("OptimalTimeout accepted a journal")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected searches journaled %d bytes", buf.Len())
	}
}

func TestInvalidCandidatePropagates(t *testing.T) {
	if _, err := OptimalProcessors(cluster.Default(), []int{-8}, quickOpts()); err == nil {
		t.Fatal("invalid candidate accepted")
	}
}

func TestFlatOptimumNotDistinct(t *testing.T) {
	// Two nearly identical candidates: the search must not claim a
	// statistically distinct winner.
	base := cluster.Default()
	res, err := OptimalProcessors(base, []int{65536, 65536 + 8}, // same size ±1 node
		runner.Options{Replications: 3, Warmup: 100, Measure: 600, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Distinct {
		t.Fatalf("near-identical candidates claimed distinct: %+v vs %+v",
			res.Points[0].Total, res.Points[1].Total)
	}
}
