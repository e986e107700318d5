package runner

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// TestEstimateWorkerInvariance is the contract of the parallel execution
// engine: for the same seed, Estimate must produce byte-identical Results
// for every worker count, because replication seeds are assigned before
// dispatch and results are reduced in replication order.
func TestEstimateWorkerInvariance(t *testing.T) {
	cfg := cluster.Default()
	base := quickOpts()
	base.Replications = 4

	seq := base
	seq.Workers = 1
	want, err := Estimate(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{0, 4, runtime.NumCPU(), -1, 100} {
		o := base
		o.Workers = workers
		got, err := Estimate(cfg, o)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers=%d result differs from sequential:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestCompareWorkerInvariance extends the same contract to the paired
// common-random-numbers estimator.
func TestCompareWorkerInvariance(t *testing.T) {
	a := cluster.Default()
	b := a
	b.MTTR *= 2
	base := quickOpts()

	seq := base
	seq.Workers = 1
	want, err := Compare(a, b, seq)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{4, runtime.NumCPU()} {
		o := base
		o.Workers = workers
		got, err := Compare(a, b, o)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers=%d comparison differs from sequential", workers)
		}
	}
}

func TestEstimateProgress(t *testing.T) {
	var (
		mu    sync.Mutex
		last  Progress
		calls int
	)
	o := quickOpts()
	o.Workers = 2
	o.Progress = func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		last = p
	}
	if _, err := Estimate(cluster.Default(), o); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress hook never called")
	}
	if last.Done != o.Replications || last.Total != o.Replications {
		t.Fatalf("final progress %+v, want Done=Total=%d", last, o.Replications)
	}
	if last.Events == 0 {
		t.Fatal("no simulation events reported")
	}
	if last.Elapsed <= 0 {
		t.Fatalf("elapsed %v", last.Elapsed)
	}
}

// Compare reports its legs in turn: each counts its own replications from
// zero and closes with its own Final snapshot.
func TestCompareProgressPerLeg(t *testing.T) {
	var (
		mu     sync.Mutex
		finals []Progress
	)
	o := quickOpts()
	o.Workers = 2
	o.Progress = func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		if p.Final {
			finals = append(finals, p)
		}
	}
	b := cluster.Default()
	b.MTTR *= 2
	if _, err := Compare(cluster.Default(), b, o); err != nil {
		t.Fatal(err)
	}
	if len(finals) != 2 {
		t.Fatalf("%d final snapshots, want one per leg", len(finals))
	}
	for i, p := range finals {
		if p.Done != o.Replications || p.Total != o.Replications || p.Events == 0 {
			t.Errorf("leg %d final snapshot %+v, want Done=Total=%d with events", i, p, o.Replications)
		}
	}
}

func TestEstimateContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := quickOpts()
	o.Workers = 2
	if _, err := EstimateContext(ctx, cluster.Default(), o); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMergedTelemetryWorkerInvariance holds the registry half of the
// determinism contract as the obs package states it: totals merged from
// per-replication shards keep their counters, histogram counts, bucket
// counts, min and max for every worker count, and their histogram sums to
// within rounding — shards merge in completion order, and float addition
// does not associate. The cache telemetry recorded straight into the
// registry (instance builds and recycles, event-pool hits and misses)
// depends on how workers split the replications and is left out.
func TestMergedTelemetryWorkerInvariance(t *testing.T) {
	schedulingDependent := map[string]bool{
		"runner.instance_builds": true, "runner.instance_recycles": true,
		"des.pool_hits": true, "des.pool_misses": true,
	}
	snapshot := func(workers int) obs.Snapshot {
		reg := obs.NewRegistry()
		opts := quickOpts()
		opts.Replications, opts.Workers, opts.Metrics, opts.VerifySpans = 6, workers, reg, true
		alt := failing()
		alt.CheckpointInterval = cluster.Minutes(60)
		if _, err := Compare(failing(), alt, opts); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	want := snapshot(1)
	if len(want.Histograms) == 0 || want.Counters["phase.rollbacks"] == 0 {
		t.Fatalf("run recorded too little telemetry: %+v", want)
	}
	for _, workers := range []int{2, 3} {
		got := snapshot(workers)
		for name, n := range want.Counters {
			if !schedulingDependent[name] && got.Counters[name] != n {
				t.Errorf("workers %d: counter %s = %d, want %d", workers, name, got.Counters[name], n)
			}
		}
		for name, w := range want.Histograms {
			g, ok := got.Histograms[name]
			switch {
			case !ok:
				t.Errorf("workers %d: histogram %s missing", workers, name)
			case g.Count != w.Count || !reflect.DeepEqual(g.Counts, w.Counts) || g.Min != w.Min || g.Max != w.Max:
				t.Errorf("workers %d: histogram %s = %+v, want %+v", workers, name, g, w)
			case math.Abs(g.Sum-w.Sum) > 1e-12*math.Abs(w.Sum):
				t.Errorf("workers %d: histogram %s sum %v, want %v within rounding", workers, name, g.Sum, w.Sum)
			}
		}
		for name, w := range want.Timers {
			if got.Timers[name].Count != w.Count {
				t.Errorf("workers %d: timer %s count %d, want %d", workers, name, got.Timers[name].Count, w.Count)
			}
		}
	}
}
