package san

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// buildHyperExpNet constructs a synthetic net with hyper-exponential
// delays, reactivation, instantaneous chains and a counter place — the
// distribution shapes the paper's model does not use, so the san-level
// differential test covers them here. The net: a token cycles
// work→buffer→work (timed hyper-exponential, instant return), a mode place
// toggles on a second timer, and a reactivating drain resamples whenever
// the mode flips.
func buildHyperExpNet() *Model {
	m := NewModel("hyperexp")
	work := m.Place("work", 1)
	buffer := m.Place("buffer", 0)
	mode := m.Place("mode", 0)
	modeClock := m.Place("mode_clock", 1)
	pool := m.Place("pool", 3)
	drained := m.Place("drained", 0)

	m.AddTimed(Activity{
		Name:  "serve",
		Input: AllOf(work),
		Delay: func(mk *Marking, src rng.Source) float64 {
			d := rng.HyperExponential{P: 0.2, MeanA: 5, MeanB: 0.5}
			return d.Sample(src)
		},
		Output: Out(func(mk *Marking) { mk.Move(work, buffer) }),
	})
	m.AddInstant(Activity{
		Name:   "recycle",
		Input:  AllOf(buffer),
		Output: Out(func(mk *Marking) { mk.Move(buffer, work) }),
	})
	m.AddTimed(Activity{
		Name:  "mode_flip",
		Input: AllOf(modeClock),
		Delay: func(mk *Marking, src rng.Source) float64 {
			return rng.Exponential{MeanValue: 3}.Sample(src)
		},
		Output: Out(func(mk *Marking) {
			if mk.Has(mode) {
				mk.Clear(mode)
			} else {
				mk.Set(mode, 1)
			}
		}, mode),
	})
	m.AddTimed(Activity{
		Name:  "drain",
		Input: AllOf(pool),
		Delay: func(mk *Marking, src rng.Source) float64 {
			d := rng.HyperExponential{P: 0.5, MeanA: 20, MeanB: 2}
			if mk.Has(mode) {
				d.MeanB = 0.2
			}
			return d.Sample(src)
		},
		Output:       Out(func(mk *Marking) { mk.Move(pool, drained) }),
		ReactivateOn: []*Place{mode},
	})
	// Refill keeps the trajectory alive past the pool's exhaustion; its
	// input gate is deliberately undeclared to mix conservative rescans
	// into the same differential trajectory.
	m.AddInstant(Activity{
		Name:  "refill",
		Input: When(func(mk *Marking) bool { return mk.Get(drained) >= 3 }),
		Output: Out(func(mk *Marking) {
			mk.Clear(drained)
			mk.Set(pool, 3)
		}),
	})
	return m
}

type firing struct {
	t    float64
	name string
}

// runHyperExp collects the trace and reward totals of one trajectory of the
// hyper-exponential net under the chosen scheduler.
func runHyperExp(t *testing.T, seed uint64, fullScan bool, horizon float64) ([]firing, float64, float64, uint64) {
	t.Helper()
	m := buildHyperExpNet()
	sim, err := NewSimulator(m, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	sim.FullScan = fullScan
	work := m.LookupPlace("work")
	mode := m.LookupPlace("mode")
	busy := sim.AddRateReward("busy", func(mk *Marking) float64 {
		return float64(mk.Get(work))
	}, work)
	modal := sim.AddRateReward("modal", func(mk *Marking) float64 {
		if mk.Has(mode) {
			return 1
		}
		return 0
	}) // undeclared: refreshed after every firing
	var drain *Activity
	for _, a := range m.Activities() {
		if a.Name == "drain" {
			drain = a
		}
	}
	drains := sim.AddImpulse("drains", drain, func(*Marking) float64 { return 1 })
	var events []firing
	sim.SetTrace(func(tm float64, a *Activity, _ *Marking) {
		events = append(events, firing{tm, a.Name})
	})
	sim.RunUntil(horizon)
	return events, busy.Integral(), modal.Integral(), drains.Count()
}

// TestHyperExponentialDifferential asserts bit-identical traces and reward
// totals between the incremental and full-scan schedulers on a net with
// hyper-exponential delays, reactivation and undeclared gates.
func TestHyperExponentialDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 11, 99} {
		incr, ibusy, imodal, idrains := runHyperExp(t, seed, false, 500)
		full, fbusy, fmodal, fdrains := runHyperExp(t, seed, true, 500)
		if len(incr) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		if len(incr) != len(full) {
			t.Fatalf("seed %d: event counts differ: %d vs %d", seed, len(incr), len(full))
		}
		for i := range incr {
			if incr[i] != full[i] {
				t.Fatalf("seed %d: event %d differs: %+v vs %+v", seed, i, incr[i], full[i])
			}
		}
		if ibusy != fbusy || imodal != fmodal {
			t.Fatalf("seed %d: reward integrals differ: (%v, %v) vs (%v, %v)",
				seed, ibusy, imodal, fbusy, fmodal)
		}
		if idrains != fdrains {
			t.Fatalf("seed %d: impulse counts differ: %d vs %d", seed, idrains, fdrains)
		}
	}
}

// TestFullScanToggleMidRun flips the scheduler mode between segments of a
// single trajectory: both paths maintain the same caches, so toggling must
// not perturb the trajectory relative to a pure run.
func TestFullScanToggleMidRun(t *testing.T) {
	collect := func(toggle bool) []firing {
		m := buildHyperExpNet()
		sim, err := NewSimulator(m, rng.New(17))
		if err != nil {
			t.Fatal(err)
		}
		var events []firing
		sim.SetTrace(func(tm float64, a *Activity, _ *Marking) {
			events = append(events, firing{tm, a.Name})
		})
		for seg := 1; seg <= 4; seg++ {
			if toggle {
				sim.FullScan = seg%2 == 1
			}
			sim.RunUntil(float64(seg) * 50)
		}
		return events
	}
	pure := collect(false)
	mixed := collect(true)
	if len(pure) != len(mixed) {
		t.Fatalf("event counts differ: %d vs %d", len(pure), len(mixed))
	}
	for i := range pure {
		if pure[i] != mixed[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, pure[i], mixed[i])
		}
	}
}

// TestResetReusesSchedulerState is the Reset regression guard for the
// incremental scheduler: after a completed trajectory, Reset must clear
// rewards, impulse counts and dirty-tracking state while retaining the
// dependency index, and a re-run with the same source state must behave
// like a fresh simulator.
func TestResetReusesSchedulerState(t *testing.T) {
	m := buildHyperExpNet()
	sim, err := NewSimulator(m, rng.New(23))
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
	sim.RunUntil(200)
	if drains.Count() == 0 || busy.Integral() == 0 {
		t.Fatal("first trajectory accrued nothing; test is vacuous")
	}

	sim.Reset()
	if sim.Now() != 0 {
		t.Fatal("Reset did not rewind clock")
	}
	if busy.Integral() != 0 {
		t.Fatalf("Reset left rate integral %v", busy.Integral())
	}
	if drains.Count() != 0 || drains.Total() != 0 {
		t.Fatalf("Reset left impulse state count=%d total=%v", drains.Count(), drains.Total())
	}
	mk := sim.CurrentMarking()
	if mk.dirty != 0 || mk.unabsorbed != 0 {
		t.Fatalf("Reset left open dirty state: dirty=%#x unabsorbed=%#x", mk.dirty, mk.unabsorbed)
	}
	if m.deps == nil {
		t.Fatal("Reset dropped the dependency index")
	}
	for _, p := range m.Places() {
		if mk.Get(p) != p.Initial {
			t.Fatalf("place %q = %d after Reset, want %d", p.Name, mk.Get(p), p.Initial)
		}
	}

	// The reused simulator must stay bit-identical to a fresh one driven
	// by a source in the same state. The reset simulator's source has
	// advanced through the first trajectory, so mirror that consumption
	// in the fresh simulator's source before comparing.
	var reused []firing
	sim.SetTrace(func(tm float64, a *Activity, _ *Marking) {
		reused = append(reused, firing{tm, a.Name})
	})
	sim.RunUntil(200)
	if drains.Count() == 0 {
		t.Fatal("reused simulator accrued no impulses")
	}
	if len(reused) == 0 {
		t.Fatal("reused simulator fired nothing")
	}

	// Cross-check reuse against the full-scan scheduler: Reset + re-run
	// under both modes from identically-seeded sources must agree.
	runTwice := func(fullScan bool) []firing {
		m2 := buildHyperExpNet()
		s2, err := NewSimulator(m2, rng.New(23))
		if err != nil {
			t.Fatal(err)
		}
		s2.FullScan = fullScan
		s2.RunUntil(200)
		s2.Reset()
		var out []firing
		s2.SetTrace(func(tm float64, a *Activity, _ *Marking) {
			out = append(out, firing{tm, a.Name})
		})
		s2.RunUntil(200)
		return out
	}
	incr := runTwice(false)
	full := runTwice(true)
	if len(incr) != len(full) || len(incr) != len(reused) {
		t.Fatalf("post-reset event counts differ: reused=%d incr=%d full=%d",
			len(reused), len(incr), len(full))
	}
	for i := range incr {
		if incr[i] != full[i] || incr[i] != reused[i] {
			t.Fatalf("post-reset event %d differs: reused=%+v incr=%+v full=%+v",
				i, reused[i], incr[i], full[i])
		}
	}
}

// indicatorRun registers indicator rewards — all-of, any-of and both, over
// places that start marked and places that start empty — on the
// hyper-exponential net, each beside a hand-written closure reward of the
// same rate, then runs segments of 50 h under the scheduler mode
// fullScan(segment) picks, resetting the simulator after the third. It
// returns every reward's integral after each segment, indicators first.
func indicatorRun(t *testing.T, seed uint64, fullScan func(seg int) bool) [][]float64 {
	t.Helper()
	m := buildHyperExpNet()
	sim, err := NewSimulator(m, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	work, buffer, mode := m.LookupPlace("work"), m.LookupPlace("buffer"), m.LookupPlace("mode")
	pool, drained := m.LookupPlace("pool"), m.LookupPlace("drained")
	rate := func(on bool) float64 {
		if on {
			return 1
		}
		return 0
	}
	rewards := []*RateReward{
		sim.AddIndicator("work", []*Place{work}, nil),
		sim.AddIndicator("mode_and_pool", []*Place{mode, pool}, nil),
		sim.AddIndicator("buffer_or_drained", nil, []*Place{buffer, drained}),
		sim.AddIndicator("pool_and_mode_or_drained", []*Place{pool}, []*Place{mode, drained}),
		sim.AddRateReward("ref_work", func(mk *Marking) float64 { return rate(mk.Has(work)) }, work),
		sim.AddRateReward("ref_mode_and_pool", func(mk *Marking) float64 {
			return rate(mk.Has(mode) && mk.Has(pool))
		}, mode, pool),
		sim.AddRateReward("ref_buffer_or_drained", func(mk *Marking) float64 {
			return rate(mk.Has(buffer) || mk.Has(drained))
		}, buffer, drained),
		sim.AddRateReward("ref_pool_and_mode_or_drained", func(mk *Marking) float64 {
			return rate(mk.Has(pool) && (mk.Has(mode) || mk.Has(drained)))
		}, pool, mode, drained),
	}
	var out [][]float64
	for seg := 0; seg < 6; seg++ {
		if seg == 3 {
			sim.Reset()
		}
		sim.FullScan = fullScan(seg)
		sim.RunUntil(float64(seg%3+1) * 50)
		row := make([]float64, len(rewards))
		for i, r := range rewards {
			row[i] = r.Integral()
		}
		out = append(out, row)
	}
	return out
}

// TestIndicatorRewardsDifferential: indicator rewards compiled to masks
// (incremental refresh) integrate bit-identically to their Rate closures
// (FullScan) and to hand-written closure rewards of the same rate, in pure
// runs of either mode, across mid-run FullScan toggles and across a Reset.
func TestIndicatorRewardsDifferential(t *testing.T) {
	modes := map[string]func(seg int) bool{
		"fullscan":          func(int) bool { return true },
		"incremental-first": func(seg int) bool { return seg%2 == 1 },
		"fullscan-first":    func(seg int) bool { return seg%2 == 0 },
	}
	for _, seed := range []uint64{1, 5, 23} {
		want := indicatorRun(t, seed, func(int) bool { return false })
		for seg, row := range want {
			half := len(row) / 2
			for i := range half {
				if math.Float64bits(row[i]) != math.Float64bits(row[half+i]) {
					t.Errorf("seed %d segment %d: indicator %d integrates %v, its closure reference %v", seed, seg, i, row[i], row[half+i])
				}
				if row[i] == 0 {
					t.Errorf("seed %d segment %d: indicator %d never held; the comparison is vacuous", seed, seg, i)
				}
			}
		}
		for name, mode := range modes {
			got := indicatorRun(t, seed, mode)
			for seg := range want {
				for i := range want[seg] {
					if math.Float64bits(got[seg][i]) != math.Float64bits(want[seg][i]) {
						t.Errorf("seed %d %s segment %d reward %d: %v, incremental %v", seed, name, seg, i, got[seg][i], want[seg][i])
					}
				}
			}
		}
	}
}
