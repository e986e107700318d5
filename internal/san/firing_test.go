package san

import (
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// observedRun is what one instrumented trajectory observed: every firing
// with the rewards accrued when it fired, the rewards closed at the
// horizon and the merged telemetry.
type observedRun struct {
	firings []observedFiring
	rewards []float64
	snap    obs.Snapshot
}

type observedFiring struct {
	t       float64
	name    string
	accrued float64 // sum of the rate integrals and impulse totals after the firing
}

// runObserved runs one trajectory of the net build returns up to horizon
// with telemetry and a firing hook attached, under the incremental
// executor or FullScan. Every place gets a declared count reward and an
// indicator, the net an undeclared reward over all places, and every
// activity an impulse. With step the trajectory is driven by Step while
// the next firing is due by the horizon, then closed by RunUntil, which
// must fire nothing more.
func runObserved(t *testing.T, build func() *Model, seed uint64, fullScan, step bool, horizon float64) observedRun {
	t.Helper()
	m := build()
	sim, err := NewSimulator(m, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	sim.FullScan = fullScan
	reg := obs.NewRegistry()
	sh := reg.NewShard()
	sim.Instrument(sh)

	var rates []*RateReward
	for _, p := range m.Places() {
		rates = append(rates,
			sim.AddRateReward("n_"+p.Name, func(mk *Marking) float64 { return float64(mk.Get(p)) }, p),
			sim.AddIndicator("has_"+p.Name, []*Place{p}, nil))
	}
	rates = append(rates, sim.AddRateReward("total", func(mk *Marking) float64 {
		n := 0
		for _, p := range m.Places() {
			n += mk.Get(p)
		}
		return float64(n)
	})) // undeclared: refreshed after every firing
	var impulses []*ImpulseHook
	for _, a := range m.Activities() {
		impulses = append(impulses, sim.AddImpulse("imp_"+a.Name, a, func(mk *Marking) float64 {
			return float64(mk.Present())
		}))
	}
	rewards := func() []float64 {
		var out []float64
		for _, r := range rates {
			out = append(out, r.Integral())
		}
		for _, h := range impulses {
			out = append(out, h.Total(), float64(h.Count()))
		}
		return out
	}

	var run observedRun
	sim.AddFiringHook(func(tm float64, a *Activity, _ *Marking) {
		sum := 0.0
		for _, v := range rewards() {
			sum += v
		}
		run.firings = append(run.firings, observedFiring{tm, a.Name, sum})
	})
	if step {
		for i := sim.cal.next(); i >= 0 && sim.cal.due[i] <= horizon; i = sim.cal.next() {
			if !sim.Step() {
				t.Fatal("Step fired nothing with a firing pending")
			}
		}
		fired := sim.Fired()
		sim.RunUntil(horizon)
		if sim.Fired() != fired {
			t.Fatalf("RunUntil fired %d more after stepping to the horizon", sim.Fired()-fired)
		}
	} else {
		sim.RunUntil(horizon)
	}
	sim.FlushEngineStats()
	sh.Merge()
	run.rewards = rewards()
	run.snap = reg.Snapshot()
	return run
}

// referenceCounters are the telemetry counters both executors keep.
var referenceCounters = []string{
	"san.timed_firings", "san.instant_firings", "san.settles", "san.reactivations",
	"des.events_fired", "des.events_scheduled", "des.events_cancelled",
}

// TestFlatFiringMatchesReference holds the incremental executor's firing
// body to the reference: on the hyper-exponential net and the Shift
// writer net, with telemetry and a firing hook attached, it fires the same
// firings, accrues the same rewards and counts the same firings, settles,
// reactivations and calendar events as FullScan; and a trajectory driven
// by Step equals one driven by RunUntil in every firing, reward and
// telemetry entry, under either executor.
func TestFlatFiringMatchesReference(t *testing.T) {
	nets := []struct {
		name  string
		build func() *Model
	}{
		{"hyperexp", buildHyperExpNet},
		{"shift", func() *Model { return buildShiftNet(true) }},
	}
	for _, net := range nets {
		for _, seed := range []uint64{1, 2, 3} {
			incr := runObserved(t, net.build, seed, false, false, 300)
			full := runObserved(t, net.build, seed, true, false, 300)
			if len(incr.firings) == 0 {
				t.Fatalf("%s seed %d: empty trajectory", net.name, seed)
			}
			if !reflect.DeepEqual(incr.firings, full.firings) || !reflect.DeepEqual(incr.rewards, full.rewards) {
				t.Fatalf("%s seed %d: incremental and FullScan trajectories differ", net.name, seed)
			}
			for _, name := range referenceCounters {
				ic, fc := incr.snap.Counters[name], full.snap.Counters[name]
				if ic != fc {
					t.Errorf("%s seed %d: %s = %d incremental, %d FullScan", net.name, seed, name, ic, fc)
				}
				if ic == 0 {
					t.Errorf("%s seed %d: %s is 0, so the comparison shows nothing", net.name, seed, name)
				}
			}
			for _, ref := range []struct {
				mode string
				run  observedRun
			}{{"incremental", incr}, {"FullScan", full}} {
				stepped := runObserved(t, net.build, seed, ref.mode == "FullScan", true, 300)
				if !reflect.DeepEqual(stepped, ref.run) {
					t.Errorf("%s seed %d: %s trajectory driven by Step differs from RunUntil's", net.name, seed, ref.mode)
				}
			}
		}
	}
}
