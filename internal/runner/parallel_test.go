package runner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cluster"
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
