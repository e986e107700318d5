package model

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
)

// runTrajectory traces one trajectory of an already-built (or recycled)
// instance to the horizon and returns the full event trace plus the final
// metrics. The trace observer is detached afterwards so the instance can be
// recycled and re-measured allocation-free.
func runTrajectory(t *testing.T, in *Instance, horizon float64) ([]traceRecord, Metrics) {
	t.Helper()
	var events []traceRecord
	in.SetTrace(func(tm float64, activity string, _ map[string]int) {
		events = append(events, traceRecord{tm, activity})
	}, false)
	defer in.SetTrace(nil, false)
	mt, err := in.RunSteadyState(horizon/2, horizon/2)
	if err != nil {
		t.Fatal(err)
	}
	return events, mt
}

// TestRecycleMatchesFreshBuild is the recycle differential test: for every
// model variant and seed, an instance that has already run an unrelated
// dirty trajectory and is then Recycle(seed)d must reproduce the trajectory
// of New(cfg, seed) bit-for-bit — same event trace, same metrics. A second
// Recycle of the same instance must match too (recycling is idempotent in
// generation, not just fresh-to-recycled).
func TestRecycleMatchesFreshBuild(t *testing.T) {
	const horizon = 3000.0
	for name, cfg := range differentialConfigs() {
		t.Run(name, func(t *testing.T) {
			// One instance per variant, dirtied once and then recycled for
			// every seed — exactly the runner's instance-reuse lifecycle.
			in, err := New(cfg, 999)
			if err != nil {
				t.Fatal(err)
			}
			in.Advance(500) // leave pending events, rewards, a warm pool
			for _, seed := range []uint64{1, 7, 42} {
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					fresh, freshMt := collectTrajectory(t, cfg, seed, false, horizon)
					if len(fresh) == 0 {
						t.Fatal("empty fresh trace")
					}
					in.Recycle(seed)
					sameTrajectory(t, "recycled", fresh, freshMt, in, horizon)
					in.Recycle(seed)
					sameTrajectory(t, "re-recycled", fresh, freshMt, in, horizon)
				})
			}
		})
	}
}

// sameTrajectory runs in to the horizon and fails unless trace and metrics
// match the fresh-build reference exactly.
func sameTrajectory(t *testing.T, label string, fresh []traceRecord, freshMt Metrics, in *Instance, horizon float64) {
	t.Helper()
	got, gotMt := runTrajectory(t, in, horizon)
	if len(got) != len(fresh) {
		t.Fatalf("%s event count %d, fresh build %d", label, len(got), len(fresh))
	}
	for i := range got {
		if got[i] != fresh[i] {
			t.Fatalf("%s event %d differs: %+v, fresh build %+v", label, i, got[i], fresh[i])
		}
	}
	if gotMt != freshMt {
		t.Fatalf("%s metrics differ:\n%+v\nfresh build:\n%+v", label, gotMt, freshMt)
	}
}

// TestRecycleZeroAlloc pins the allocation contract the runner relies on:
// once an instance has run a trajectory of a given seed (pool and queue
// sized), replaying Recycle + RunSteadyState allocates nothing.
func TestRecycleZeroAlloc(t *testing.T) {
	in, err := New(cluster.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	replicate := func() error {
		in.Recycle(7)
		_, err := in.RunSteadyState(50, 200)
		return err
	}
	if err := replicate(); err != nil { // warm: size pool, queue, free list
		t.Fatal(err)
	}
	var runErr error
	avg := testing.AllocsPerRun(10, func() {
		if err := replicate(); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if avg != 0 {
		t.Errorf("recycled replication allocates %.1f objects, want 0", avg)
	}
}

// TestRareTrajectoryZeroAlloc extends the zero-allocation pin to Recycle's
// other caller: a warm RareTrajectory primed, stepped to a branch point,
// reseeded and stepped on — one splitting branch — must not allocate.
func TestRareTrajectoryZeroAlloc(t *testing.T) {
	tr, err := NewRareTrajectory(smallRareConfig())
	if err != nil {
		t.Fatal(err)
	}
	stepTo := func(h float64) {
		for tr.Now() < h && tr.Step() {
		}
	}
	branch := func() {
		tr.Prime(3)
		stepTo(48)
		tr.Reseed(11)
		stepTo(96)
	}
	branch() // warm: size pool, queue, free list
	// The first collection starts the runtime's mark-worker goroutines,
	// which count as allocations; let it happen before measuring.
	runtime.GC()
	if avg := testing.AllocsPerRun(10, branch); avg != 0 {
		t.Errorf("primed, reseeded trajectory allocates %.1f objects, want 0", avg)
	}
	if tr.Now() < 96 {
		t.Fatalf("trajectory stopped at %v h, before the 96 h horizon", tr.Now())
	}
}

// BenchmarkRecycleVsRebuild measures what the runner's instance reuse
// buys: one replication via model.New per iteration versus one via
// Recycle on a warm instance. Compare allocs/op as well as ns/op.
func BenchmarkRecycleVsRebuild(b *testing.B) {
	cfg := cluster.Default()
	const warmup, measure = 100.0, 400.0
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		var events uint64
		for i := 0; i < b.N; i++ {
			in, err := New(cfg, uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := in.RunSteadyState(warmup, measure); err != nil {
				b.Fatal(err)
			}
			events += in.Fired()
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("recycle", func(b *testing.B) {
		in, err := New(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := in.RunSteadyState(warmup, measure); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var events uint64
		for i := 0; i < b.N; i++ {
			in.Recycle(uint64(i) + 1)
			if _, err := in.RunSteadyState(warmup, measure); err != nil {
				b.Fatal(err)
			}
			events += in.Fired() // Recycle rewinds Fired; this is per-replication
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	})
}
