package experiments

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/runner"
)

// TestFigureWorkerInvariance checks the grid-level determinism contract:
// a figure built cell-by-cell in parallel is byte-identical to the
// sequential build, because cell seeds depend only on (seed, series, x
// index).
func TestFigureWorkerInvariance(t *testing.T) {
	opts := runner.Options{Replications: 2, Warmup: 20, Measure: 120, Seed: 42, Workers: 1}
	want, err := def(t, "fig4g").Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, -1} {
		o := opts
		o.Workers = workers
		got, err := def(t, "fig4g").Run(o)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers=%d figure differs from sequential build", workers)
		}
	}
}

// TestRunSpecsSeedMatchesLegacySweep pins the per-cell seed derivation:
// the parallel engine must produce exactly the points a sequential
// series-by-series sweep with the historic seed formula yields, or every
// recorded figure (REPORT.md, results/) would silently shift.
func TestRunSpecsSeedMatchesLegacySweep(t *testing.T) {
	opts := runner.Options{Replications: 1, Warmup: 20, Measure: 100, Seed: 11, Workers: 4}
	name := "MTTR=10min"
	xs := []float64{8192, 16384}
	mutate := func(cfg *cluster.Config, x float64) { cfg.Processors = int(x) }

	got, err := sweep(baseConfig(), name, xs, mutate, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the pre-refactor sequential loop, inlined.
	want := Series{Name: name}
	for i, x := range xs {
		cfg := baseConfig()
		mutate(&cfg, x)
		o := opts
		o.Workers = 1
		o.Seed = opts.Seed*1000003 + uint64(i)*7919 + hashName(name)
		res, err := runner.Estimate(cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		want.Points = append(want.Points, Point{X: x, Fraction: res.UsefulWorkFraction, Total: res.TotalUsefulWork})
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatalf("parallel sweep diverged from legacy seeding:\n got %+v\nwant %+v", got.Points, want.Points)
	}
}
