package model

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// BenchmarkTrajectory runs one steady-state trajectory of the paper's base
// model per iteration (short warmup + measurement window) and reports
// events/sec throughput, incremental vs full-scan scheduling. The ≥1.3×
// incremental speedup recorded in REPORT.md comes from this benchmark.
func BenchmarkTrajectory(b *testing.B) {
	const warmup, measure = 200.0, 1800.0
	for _, mode := range []struct {
		name     string
		fullScan bool
	}{{"incremental", false}, {"fullscan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				in, err := New(cluster.Default(), uint64(i)+1)
				if err != nil {
					b.Fatal(err)
				}
				in.SetFullScan(mode.fullScan)
				if _, err := in.RunSteadyState(warmup, measure); err != nil {
					b.Fatal(err)
				}
				events += in.Fired()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkObsOverhead measures the cost of attaching the observability
// shard to a trajectory: "bare" is the uninstrumented event loop,
// "instrumented" runs the same trajectory with every san.*/des.* metric
// recorded into a per-worker shard and merged at the end. The events/s gap
// between the two is the instrumentation overhead; REPORT.md pins it
// below 3 %.
func BenchmarkObsOverhead(b *testing.B) {
	const warmup, measure = 200.0, 1800.0
	run := func(b *testing.B, instrument bool) {
		var reg *obs.Registry
		if instrument {
			reg = obs.NewRegistry()
		}
		var events uint64
		for i := 0; i < b.N; i++ {
			in, err := New(cluster.Default(), uint64(i)+1)
			if err != nil {
				b.Fatal(err)
			}
			var sh *obs.Shard
			if instrument {
				sh = reg.NewShard()
				in.Instrument(sh)
			}
			if _, err := in.RunSteadyState(warmup, measure); err != nil {
				b.Fatal(err)
			}
			events += in.Fired()
			if instrument {
				in.FlushEngineStats()
				sh.Merge()
			}
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("instrumented", func(b *testing.B) { run(b, true) })
}

// BenchmarkSpanWindow is one replication of the runner's span check: a
// recycled error-propagation instance with a phase recorder folding the
// paper's measurement window (1000 h warmup + 4000 h). allocs/op is 0: the
// instance owns its recorder and keeps its loss storage across
// replications, so only a seed with more rollbacks than any before it
// grows the storage, and nothing grows with the ~30k spans a replication
// closes (TestSpanWindowAllocsTrackLosses holds that).
func BenchmarkSpanWindow(b *testing.B) {
	const warmup, measure = 1000.0, 4000.0
	in, err := New(catalog(b, "error-propagation"), 1)
	if err != nil {
		b.Fatal(err)
	}
	in.AttachPhases().FoldWindow(warmup, warmup+measure) // warm the recorder too
	if _, err := in.RunSteadyState(warmup, measure); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	var spans int
	for i := 0; i < b.N; i++ {
		in.Recycle(uint64(i) + 1)
		rec := in.AttachPhases()
		rec.FoldWindow(warmup, warmup+measure)
		if _, err := in.RunSteadyState(warmup, measure); err != nil {
			b.Fatal(err)
		}
		spans += rec.Window(in.Now()).Spans
		events += in.Fired()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(spans)/float64(b.N), "spans/op")
}
