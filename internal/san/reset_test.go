package san

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// TestResetWithHooksAndInstrumentation is the recycle-path contract at the
// san layer: a simulator carrying firing hooks, rate rewards, impulse
// rewards and shard instrumentation is Reset and re-run, and nothing
// double-registers or leaks across trajectories — the hook fires exactly
// once per firing, the reward totals of a reseeded rerun match the first
// run bit-for-bit, and the per-trajectory telemetry snapshots are
// identical (which also pins that Engine.Reset rewinds its counters).
func TestResetWithHooksAndInstrumentation(t *testing.T) {
	const seed, horizon = 11, 200.0
	m := buildHyperExpNet()
	src := rng.New(seed)
	sim, err := NewSimulator(m, src)
	if err != nil {
		t.Fatal(err)
	}
	work := m.LookupPlace("work")
	busy := sim.AddRateReward("busy", func(mk *Marking) float64 {
		return float64(mk.Get(work))
	}, work)
	var drain *Activity
	for _, a := range m.Activities() {
		if a.Name == "drain" {
			drain = a
		}
	}
	drains := sim.AddImpulse("drains", drain, func(*Marking) float64 { return 1 })
	hookCalls, firings := 0, 0
	sim.SetTrace(func(float64, *Activity, *Marking) { firings++ })
	sim.AddFiringHook(func(float64, *Activity, *Marking) { hookCalls++ })

	reg := obs.NewRegistry()
	type outcome struct {
		fired     uint64
		busy      float64
		drainTot  float64
		drainCnt  uint64
		hookCalls int
		firings   int
		telemetry map[string]any
	}
	run := func() outcome {
		sh := reg.NewShard()
		sim.Instrument(sh)
		beforeHooks, beforeFirings := hookCalls, firings
		sim.RunUntil(horizon)
		sim.FlushEngineStats()
		snap := sh.Snapshot()
		sh.Merge()
		return outcome{
			fired:     sim.Fired(),
			busy:      busy.Integral(),
			drainTot:  drains.Total(),
			drainCnt:  drains.Count(),
			hookCalls: hookCalls - beforeHooks,
			firings:   firings - beforeFirings,
			telemetry: snap,
		}
	}

	first := run()
	if first.fired == 0 || first.drainCnt == 0 {
		t.Fatalf("degenerate first trajectory: %+v", first)
	}
	if first.hookCalls != first.firings {
		t.Fatalf("hook fired %d times for %d firings", first.hookCalls, first.firings)
	}

	src.Reseed(seed)
	sim.Reset()
	if got := busy.Integral(); got != 0 {
		t.Fatalf("rate reward not rewound by Reset: %v", got)
	}
	if drains.Total() != 0 || drains.Count() != 0 {
		t.Fatalf("impulse reward not rewound by Reset: %v/%d", drains.Total(), drains.Count())
	}

	second := run()
	if !reflect.DeepEqual(first.telemetry, second.telemetry) {
		t.Fatalf("telemetry differs across Reset:\nfirst:  %v\nsecond: %v",
			first.telemetry, second.telemetry)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("reseeded rerun diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if second.hookCalls != second.firings {
		t.Fatalf("hook double-registered after Reset: %d calls for %d firings",
			second.hookCalls, second.firings)
	}
}

// TestResetKeepsEnginePoolWarm pins the allocation contract of the reset
// path: the second trajectory of a reset simulator is served entirely from
// the calendar's pool — no schedule raises the pending high-water mark.
func TestResetKeepsEnginePoolWarm(t *testing.T) {
	m := buildHyperExpNet()
	src := rng.New(7)
	sim, err := NewSimulator(m, src)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(200)
	src.Reseed(7)
	sim.Reset()
	sim.RunUntil(200)
	hits, misses, _ := sim.PoolStats()
	if misses != 0 {
		t.Fatalf("reset trajectory allocated %d events (hits %d); pool not reused", misses, hits)
	}
	if hits == 0 {
		t.Fatal("reset trajectory scheduled nothing; test degenerate")
	}
}
