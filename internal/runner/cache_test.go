package runner

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// TestEstimateRecyclesInstances pins that the per-worker instance cache is
// actually in the estimate path: a sequential 4-replication run builds one
// instance, recycles it three times, and serves the recycled replications
// from the calendar's warm pool (no schedule raises its high-water mark). (That recycling cannot change results is
// covered by the worker-invariance tests and the model's
// TestRecycleMatchesFreshBuild.)
func TestEstimateRecyclesInstances(t *testing.T) {
	reg := obs.NewRegistry()
	opts := quickOpts()
	opts.Replications = 4
	opts.Workers = 1
	opts.Metrics = reg
	if _, err := Estimate(cluster.Default(), opts); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if b := snap.Counters["runner.instance_builds"]; b != 1 {
		t.Errorf("built %d instances for a sequential run, want 1", b)
	}
	if r := snap.Counters["runner.instance_recycles"]; r != 3 {
		t.Errorf("recycled %d times, want 3", r)
	}
	hits, misses := snap.Counters["des.pool_hits"], snap.Counters["des.pool_misses"]
	if hits == 0 {
		t.Error("event pool never hit across recycled replications")
	}
	// Pool telemetry is flushed per replication; the three recycled
	// trajectories replay entirely from the pool, so misses (all from the
	// first build) must be a small fraction of total scheduling.
	if misses >= hits {
		t.Errorf("pool misses %d not dominated by hits %d", misses, hits)
	}
	if g, ok := snap.Gauges["des.pool_size"]; !ok || g <= 0 {
		t.Errorf("des.pool_size gauge missing or zero: %d (present=%v)", g, ok)
	}
}

// TestCompareSharesCacheAcrossConfigs pins that a paired comparison builds
// each of the two configurations exactly once per worker.
func TestCompareSharesCacheAcrossConfigs(t *testing.T) {
	a := cluster.Default()
	b := a
	b.MTTR *= 2
	reg := obs.NewRegistry()
	opts := quickOpts()
	opts.Replications = 3
	opts.Workers = 1
	opts.Metrics = reg
	if _, err := Compare(a, b, opts); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if builds := snap.Counters["runner.instance_builds"]; builds != 2 {
		t.Errorf("built %d instances for two configs on one worker, want 2", builds)
	}
	if r := snap.Counters["runner.instance_recycles"]; r != 4 {
		t.Errorf("recycled %d times, want 4 (2 configs × 2 later replications)", r)
	}
}
