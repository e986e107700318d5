package model

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/phasetrace"
	"repro/internal/trace"
)

// aggressive returns a config that exercises failures, recoveries and
// reboots within a short horizon, so phase extraction sees every phase.
func aggressive() cluster.Config {
	cfg := cluster.Default()
	cfg.MTTFPerNode = cluster.Years(10)
	return cfg
}

// TestPhaseRecordingIsObservational pins the differential guarantee:
// attaching a phase recorder never changes the trajectory. Two instances,
// same seed, one traced — bitwise-identical metrics and event counts.
func TestPhaseRecordingIsObservational(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		plain := mustNew(t, aggressive(), seed)
		traced := mustNew(t, aggressive(), seed)
		rec := traced.AttachPhases()

		mPlain, err := plain.RunSteadyState(50, 400)
		if err != nil {
			t.Fatal(err)
		}
		mTraced, err := traced.RunSteadyState(50, 400)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mPlain, mTraced) {
			t.Errorf("seed %d: tracing changed the metrics:\nplain  %+v\ntraced %+v", seed, mPlain, mTraced)
		}
		if plain.Fired() != traced.Fired() {
			t.Errorf("seed %d: tracing changed the event count: %d vs %d", seed, plain.Fired(), traced.Fired())
		}
		if tl := rec.Finish(traced.Now()); len(tl.Spans) == 0 {
			t.Errorf("seed %d: recorder saw no spans", seed)
		}
	}
}

// TestTimelineTilesHorizon: the spans of a timeline partition [0, horizon]
// exactly — no gaps, no overlaps, budget total == horizon.
func TestTimelineTilesHorizon(t *testing.T) {
	in := mustNew(t, aggressive(), 3)
	rec := in.AttachPhases()
	in.Advance(500)
	tl := rec.Finish(in.Now())
	if len(tl.Spans) < 3 {
		t.Fatalf("expected a real timeline, got %d spans", len(tl.Spans))
	}
	prev := 0.0
	for i, sp := range tl.Spans {
		if sp.Start != prev {
			t.Fatalf("span %d starts at %v, previous ended at %v", i, sp.Start, prev)
		}
		if sp.End <= sp.Start {
			t.Fatalf("span %d not positive: %+v", i, sp)
		}
		prev = sp.End
	}
	if prev != 500 {
		t.Fatalf("last span ends at %v, want 500", prev)
	}
	if got := tl.Budget().Total(); math.Abs(got-500) > 1e-9 {
		t.Fatalf("budget total %v, want 500", got)
	}
}

// TestSpanUsefulMatchesReward is the heart of the self-verification story:
// the span-derived useful-work fraction must re-derive the reward-based
// estimate — same trajectory, independent bookkeeping — for each variant.
func TestSpanUsefulMatchesReward(t *testing.T) {
	variants := map[string]func() cluster.Config{
		"base": aggressive,
		"timeout": func() cluster.Config {
			cfg := aggressive()
			cfg.Timeout = cluster.Seconds(120)
			return cfg
		},
		"correlated": func() cluster.Config {
			cfg := aggressive()
			cfg.ProbCorrelated = 0.3
			cfg.CorrelatedFactor = 100
			return cfg
		},
		"max-of-n": func() cluster.Config {
			cfg := aggressive()
			cfg.Coordination = cluster.CoordMaxOfN
			return cfg
		},
		"no-buffered-recovery": func() cluster.Config {
			cfg := aggressive()
			cfg.NoBufferedRecovery = true
			return cfg
		},
		"blocking-fs-write": func() cluster.Config {
			cfg := aggressive()
			cfg.BlockingCheckpointWrite = true
			return cfg
		},
	}
	const warmup, measure = 100, 800
	for name, mkCfg := range variants {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3} {
				in := mustNew(t, mkCfg(), seed)
				rec := in.AttachPhases()
				m, err := in.RunSteadyState(warmup, measure)
				if err != nil {
					t.Fatal(err)
				}
				tl := rec.Finish(in.Now())
				spanFrac := tl.UsefulFraction(warmup, warmup+measure)
				if d := math.Abs(spanFrac - m.UsefulWorkFraction); d > 1e-9 {
					t.Errorf("seed %d: span-derived %v vs reward %v (Δ=%g)",
						seed, spanFrac, m.UsefulWorkFraction, d)
				}
				// The occupancy breakdown and the phase budget are two
				// more independent derivations of the same occupancies.
				b := tl.BudgetBetween(warmup, warmup+measure)
				if d := math.Abs(b[phasetrace.Computation]/measure - m.Breakdown.Execution); d > 1e-9 {
					t.Errorf("seed %d: computation share %v vs breakdown %v",
						seed, b[phasetrace.Computation]/measure, m.Breakdown.Execution)
				}
			}
		})
	}
}

// TestSplitReworkMatchesRepeatedFraction: rework split over the window
// agrees with the model's RepeatedWorkFraction (execution − useful).
func TestSplitReworkMatchesRepeatedFraction(t *testing.T) {
	const warmup, measure = 100, 800
	in := mustNew(t, aggressive(), 5)
	rec := in.AttachPhases()
	m, err := in.RunSteadyState(warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	tl := rec.Finish(in.Now()).SplitRework()
	b := tl.BudgetBetween(warmup, warmup+measure)
	// Rework in the window plus losses charged to the window equals the
	// repeated-work share; the split only localises *where* in the
	// execution time the repetition happened, so compare the sum.
	spanRepeated := (b[phasetrace.Computation]+b[phasetrace.Rework])/measure - tl.UsefulFraction(warmup, warmup+measure)
	if d := math.Abs(spanRepeated - m.RepeatedWorkFraction); d > 1e-9 {
		t.Errorf("span repeated %v vs model %v (Δ=%g)", spanRepeated, m.RepeatedWorkFraction, d)
	}
	if m.Counters.ComputeFailures > 0 && b[phasetrace.Rework] == 0 && m.RepeatedWorkFraction > 0 {
		t.Error("failures occurred but the split found no rework")
	}
}

// TestLiveRecorderMatchesReplay: the live recorder — fed by the hook that
// reads the presence word, looks up precomputed action codes and ticks
// firings that change neither — records, bit for bit, the timeline the
// reference path records: the same trajectory's firings and post-firing
// markings replayed through phasetrace.FromEvents (name-based Observe on
// StateFromMarking's digest). One instance per configuration is recycled
// onto each seed, so the recorder's reset and reused storage are covered.
func TestLiveRecorderMatchesReplay(t *testing.T) {
	noBuffer := aggressive()
	noBuffer.NoBufferedRecovery = true
	configs := map[string]cluster.Config{
		"base":               catalog(t, "base"),
		"max-of-n":           catalog(t, "max-of-n"),
		"timeout":            catalog(t, "timeout"),
		"error-propagation":  catalog(t, "error-propagation"),
		"NoBufferedRecovery": noBuffer,
	}
	const horizon = 1500.0
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			in := mustNew(t, cfg, 1)
			for _, seed := range []uint64{1, 2, 3} {
				in.Recycle(seed)
				rec := in.AttachPhases()
				var events []trace.Event
				in.SetTrace(func(tm float64, activity string, mk map[string]int) {
					events = append(events, trace.Event{Time: tm, Activity: activity, Marking: mk})
				}, true)
				in.Advance(horizon)
				live := rec.Finish(in.Now())
				replay, err := phasetrace.FromEvents(events, in.Now(), phasetrace.Options{NoBufferedRecovery: cfg.NoBufferedRecovery})
				if err != nil {
					t.Fatal(err)
				}
				if len(live.Losses) == 0 {
					t.Fatalf("seed %d: no rollback in %v h; the comparison would not cover losses", seed, horizon)
				}
				if err := sameTimeline(live, replay); err != nil {
					t.Errorf("seed %d (%d firings): live recorder differs from the replay: %v", seed, len(events), err)
				}
			}
		})
	}
}

// sameTimeline compares two timelines span for span and loss for loss,
// every time and amount by its bits.
func sameTimeline(a, b *phasetrace.Timeline) error {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Start, b.Start) || !same(a.End, b.End) {
		return fmt.Errorf("bounds [%v, %v] vs [%v, %v]", a.Start, a.End, b.Start, b.End)
	}
	if len(a.Spans) != len(b.Spans) || len(a.Losses) != len(b.Losses) {
		return fmt.Errorf("%d spans, %d losses vs %d spans, %d losses", len(a.Spans), len(a.Losses), len(b.Spans), len(b.Losses))
	}
	for i, x := range a.Spans {
		y := b.Spans[i]
		if x.Phase != y.Phase || x.Cause != y.Cause || !same(x.Start, y.Start) || !same(x.End, y.End) {
			return fmt.Errorf("span %d: %+v vs %+v", i, x, y)
		}
	}
	for i, x := range a.Losses {
		y := b.Losses[i]
		if x.Cause != y.Cause || !same(x.Time, y.Time) || !same(x.Amount, y.Amount) {
			return fmt.Errorf("loss %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}
