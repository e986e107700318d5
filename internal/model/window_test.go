package model

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/phasetrace"
	"repro/internal/scenario"
)

// catalog returns a catalog scenario's configuration.
func catalog(t testing.TB, name string) cluster.Config {
	t.Helper()
	sc, err := scenario.Builtin().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.ClusterConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// foldWindow runs one trajectory with a recorder folding [t0, t1] from the
// start, as the runner's span check does, and returns the window.
func foldWindow(t *testing.T, cfg cluster.Config, seed uint64, warmup, measure, t0, t1 float64) phasetrace.Window {
	t.Helper()
	in := mustNew(t, cfg, seed)
	rec := in.AttachPhases()
	rec.FoldWindow(t0, t1)
	if _, err := in.RunSteadyState(warmup, measure); err != nil {
		t.Fatal(err)
	}
	return rec.Window(in.Now())
}

// TestWindowFoldMatchesTimeline: on real trajectories, the live window
// fold equals Finish → SplitRework → BudgetBetween / UsefulFraction /
// len(Spans) of the same trajectory bit for bit — over the full horizon,
// the measurement window, windows whose edges cut a rework/computation
// split, and windows whose edges fall exactly on loss times.
func TestWindowFoldMatchesTimeline(t *testing.T) {
	noBuffer := aggressive()
	noBuffer.NoBufferedRecovery = true
	configs := map[string]cluster.Config{
		"error-propagation":  catalog(t, "error-propagation"),
		"timeout":            catalog(t, "timeout"),
		"NoBufferedRecovery": noBuffer,
	}
	const warmup, measure, seed = 300.0, 1200.0, 5
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			in := mustNew(t, cfg, seed)
			rec := in.AttachPhases()
			if _, err := in.RunSteadyState(warmup, measure); err != nil {
				t.Fatal(err)
			}
			split := rec.Finish(in.Now()).SplitRework()
			end := split.End
			windows := [][2]float64{{0, end}, {warmup, end}}
			// Edges inside a split: t0 in the middle of a rework span,
			// t1 in the middle of the computation span it was split from.
			for i := 0; i+1 < len(split.Spans); i++ {
				rw, comp := split.Spans[i], split.Spans[i+1]
				if rw.Phase == phasetrace.Rework && comp.Phase == phasetrace.Computation && comp.Start == rw.End {
					windows = append(windows, [2]float64{(rw.Start + rw.End) / 2, (comp.Start + comp.End) / 2})
					break
				}
			}
			// Edges on loss times.
			if n := len(split.Losses); n >= 4 {
				ls := split.Losses
				windows = append(windows,
					[2]float64{ls[n/4].Time, ls[3*n/4].Time},
					[2]float64{ls[0].Time, end},
					[2]float64{warmup, ls[n-1].Time})
			}
			if len(windows) < 6 {
				t.Fatalf("trajectory too tame: %d losses, windows %v", len(split.Losses), windows)
			}
			for _, win := range windows {
				t0, t1 := win[0], win[1]
				w := foldWindow(t, cfg, seed, warmup, measure, t0, t1)
				if b := split.BudgetBetween(t0, t1); w.Budget != b {
					t.Errorf("[%v, %v]: fold budget %v, timeline %v", t0, t1, w.Budget, b)
				}
				if got, want := w.UsefulFraction(), split.UsefulFraction(t0, t1); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("[%v, %v]: fold useful fraction %v, timeline %v", t0, t1, got, want)
				}
				if w.Spans != len(split.Spans) {
					t.Errorf("[%v, %v]: fold counted %d spans, timeline %d", t0, t1, w.Spans, len(split.Spans))
				}
				var in []phasetrace.Loss
				for _, l := range split.Losses {
					if l.Time > t0 && l.Time <= t1 {
						in = append(in, l)
					}
				}
				if !slices.Equal(w.Losses, in) {
					t.Errorf("[%v, %v]: fold has %d window losses, timeline %d", t0, t1, len(w.Losses), len(in))
				}
			}
		})
	}
}

// TestSpanWindowAllocsTrackLosses: a recycled instance folding its window
// allocates nothing once warm at a horizon — the instance owns its
// recorder and keeps the loss storage across replications — and nothing
// that grows with the span count. Lengthening the horizon from 2000 h to
// 5000 h multiplies the spans by 2.5; a warm replication still allocates
// 0.
func TestSpanWindowAllocsTrackLosses(t *testing.T) {
	cfg := catalog(t, "error-propagation")
	in := mustNew(t, cfg, 1)
	// The first collection starts the runtime's mark-worker goroutines,
	// which count as allocations; let it happen before measuring.
	runtime.GC()
	const warmup, seed = 1000.0, 7
	type run struct {
		allocs        float64
		spans, losses int
	}
	at := func(measure float64) run {
		var w phasetrace.Window
		var runErr error
		replicate := func() {
			in.Recycle(seed)
			rec := in.AttachPhases()
			rec.FoldWindow(0, warmup+measure)
			if _, err := in.RunSteadyState(warmup, measure); err != nil {
				runErr = err
			}
			w = rec.Window(in.Now())
		}
		replicate() // warm the instance at this horizon
		allocs := testing.AllocsPerRun(5, replicate)
		if runErr != nil {
			t.Fatal(runErr)
		}
		return run{allocs, w.Spans, len(w.Losses)}
	}
	short, long := at(1000), at(4000)
	if long.spans < 2*short.spans {
		t.Fatalf("spans %d → %d: the longer horizon should have ~2.5x the spans", short.spans, long.spans)
	}
	for _, r := range []run{short, long} {
		if r.allocs != 0 {
			t.Errorf("%d spans, %d losses: %v allocs per warm replication, want 0", r.spans, r.losses, r.allocs)
		}
	}
	t.Logf("spans %d → %d, losses %d → %d, allocs %v → %v", short.spans, long.spans, short.losses, long.losses, short.allocs, long.allocs)
}
