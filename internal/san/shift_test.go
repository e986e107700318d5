package san

import (
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

// buildShiftNet constructs a small writer net whose token moves are either
// Shift gates (shift) or the equivalent Out closures. A worker cycles
// idle→busy→idle, each finish queueing one unit of data in pending (a
// counter place that often holds several tokens); an instantaneous take
// hands one unit to the single writer, whose write delay depends on mode
// and is resampled whenever mode flips (ReactivateOn). The mode place
// itself is toggled by two Shift gates.
func buildShiftNet(shift bool) *Model {
	m := NewModel("shiftnet")
	idle := m.Place("idle", 1)
	busy := m.Place("busy", 0)
	pending := m.Place("pending", 0)
	free := m.Place("writer_free", 1)
	writing := m.Place("writing", 0)
	clock := m.Place("clock", 1)
	mode := m.Place("mode", 0)

	// gate is Shift(deltas...) or an Out closure adding the same deltas
	// through the marking, as a hand-written gate would.
	gate := func(deltas ...Delta) OutputGate {
		if shift {
			return Shift(deltas...)
		}
		return Out(func(mk *Marking) {
			for _, d := range deltas {
				mk.Add(d.place, d.n)
			}
		})
	}
	exp := func(mean float64) DelayFunc {
		return func(_ *Marking, src rng.Source) float64 {
			return rng.Exponential{MeanValue: mean}.Sample(src)
		}
	}
	m.AddTimed(Activity{
		Name: "start", Input: AllOf(idle), Delay: exp(0.5),
		Output: gate(Tokens(idle, -1), Tokens(busy, 1)),
	})
	m.AddTimed(Activity{
		Name: "finish", Input: AllOf(busy),
		Delay: func(_ *Marking, src rng.Source) float64 {
			return rng.HyperExponential{P: 0.3, MeanA: 2, MeanB: 0.2}.Sample(src)
		},
		Output: gate(Tokens(busy, -1), Tokens(idle, 1), Tokens(pending, 1)),
	})
	m.AddInstant(Activity{
		Name: "take", Input: AllOf(pending, free),
		Output: gate(Tokens(pending, -1), Tokens(free, -1), Tokens(writing, 1)),
	})
	m.AddTimed(Activity{
		Name: "write", Input: AllOf(writing),
		Delay: func(mk *Marking, src rng.Source) float64 {
			mean := 3.0
			if mk.Has(mode) {
				mean = 0.3
			}
			return rng.Exponential{MeanValue: mean}.Sample(src)
		},
		Output:       gate(Tokens(writing, -1), Tokens(free, 1)),
		ReactivateOn: []*Place{mode},
	})
	m.AddTimed(Activity{
		Name: "mode_on", Input: AllOf(clock), Delay: exp(4),
		Output: gate(Tokens(clock, -1), Tokens(mode, 1)),
	})
	m.AddTimed(Activity{
		Name: "mode_off", Input: AllOf(mode), Delay: exp(2),
		Output: gate(Tokens(mode, -1), Tokens(clock, 1)),
	})
	return m
}

// shiftRun is what one run of the writer net observed.
type shiftRun struct {
	events   []firing
	rewards  [][]float64 // per segment: every rate integral, then the impulse total and count
	maxQueue int         // most tokens pending held after any firing
	resetAt  int         // firings before the Reset
}

// runShiftNet runs six segments of 40 h on the writer net, resetting the
// simulator after the third, under the scheduler mode fullScan(segment)
// picks. Rewards: a declared rate on pending's count, an indicator on
// busy, an undeclared rate over mode and an impulse on the Shift
// activity finish. Observers come and go mid-run: the trace is removed
// before a firing hook is added, and an invariant is added after the
// first segment.
func runShiftNet(t *testing.T, seed uint64, shift bool, fullScan func(seg int) bool) shiftRun {
	t.Helper()
	m := buildShiftNet(shift)
	sim, err := NewSimulator(m, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	pending, busy, mode := m.LookupPlace("pending"), m.LookupPlace("busy"), m.LookupPlace("mode")
	var finish *Activity
	for _, a := range m.Activities() {
		if a.Name == "finish" {
			finish = a
		}
	}
	rates := []*RateReward{
		sim.AddRateReward("queue", func(mk *Marking) float64 { return float64(mk.Get(pending)) }, pending),
		sim.AddIndicator("busy", []*Place{busy}, nil),
		sim.AddRateReward("mode", func(mk *Marking) float64 {
			if mk.Has(mode) {
				return 2
			}
			return 0
		}), // undeclared: refreshed after every firing
	}
	finishes := sim.AddImpulse("finishes", finish, func(mk *Marking) float64 { return float64(mk.Get(pending)) })

	var run shiftRun
	var traced, hooked, checked int
	sim.SetTrace(func(float64, *Activity, *Marking) { traced++ })
	sim.SetTrace(nil)
	sim.AddFiringHook(func(tm float64, a *Activity, mk *Marking) {
		hooked++
		run.events = append(run.events, firing{tm, a.Name})
		run.maxQueue = max(run.maxQueue, mk.Get(pending))
	})
	for seg := 0; seg < 6; seg++ {
		if seg == 1 {
			sim.AddInvariant("counted", func(*Marking) error { checked++; return nil })
		}
		if seg == 3 {
			run.resetAt = len(run.events)
			sim.Reset()
		}
		sim.FullScan = fullScan(seg)
		before := len(run.events)
		sim.RunUntil(float64(seg%3+1) * 40)
		if seg >= 1 && checked == 0 {
			t.Fatalf("segment %d: the invariant added mid-run was never checked", seg)
		}
		if len(run.events) == before {
			t.Fatalf("segment %d: no firing reached the hook", seg)
		}
		row := make([]float64, 0, len(rates)+2)
		for _, r := range rates {
			row = append(row, r.Integral())
		}
		run.rewards = append(run.rewards, append(row, finishes.Total(), float64(finishes.Count())))
	}
	if traced != 0 {
		t.Fatalf("removed trace saw %d firings", traced)
	}
	if hooked != len(run.events) {
		t.Fatalf("hook counted %d firings, recorded %d", hooked, len(run.events))
	}
	return run
}

// TestShiftGatesDifferential: Shift gates, applied directly by the
// incremental executor, give the trajectories, rate integrals and impulse
// totals of the equivalent Out closures bit for bit — in pure runs of
// either scheduler, across mid-run FullScan toggles and across a Reset —
// on a net with a multi-token counter place, a rate reward and an
// indicator over shifted places, and a ReactivateOn place a Shift gate
// changes.
func TestShiftGatesDifferential(t *testing.T) {
	modes := map[string]func(seg int) bool{
		"incremental":       func(int) bool { return false },
		"fullscan":          func(int) bool { return true },
		"incremental-first": func(seg int) bool { return seg%2 == 1 },
		"fullscan-first":    func(seg int) bool { return seg%2 == 0 },
	}
	for _, seed := range []uint64{1, 7, 42} {
		want := runShiftNet(t, seed, false, modes["incremental"])
		if want.maxQueue < 2 {
			t.Fatalf("seed %d: pending never held more than %d token(s); the counter case is vacuous", seed, want.maxQueue)
		}
		finishes := 0
		for _, e := range want.events[want.resetAt:] {
			if e.name == "finish" {
				finishes++
			}
		}
		for seg, row := range want.rewards {
			for i, v := range row {
				if v == 0 {
					t.Fatalf("seed %d segment %d: reward %d never accrued; the comparison is vacuous", seed, seg, i)
				}
			}
		}
		if last := want.rewards[5]; int(last[len(last)-1]) != finishes {
			t.Fatalf("seed %d: impulse counted %v firings of finish since the Reset, the hook saw %d", seed, last[len(last)-1], finishes)
		}
		for _, shift := range []bool{false, true} {
			for name, mode := range modes {
				got := runShiftNet(t, seed, shift, mode)
				if len(got.events) != len(want.events) {
					t.Fatalf("seed %d shift=%v %s: %d firings, closure reference %d", seed, shift, name, len(got.events), len(want.events))
				}
				for i := range got.events {
					if got.events[i] != want.events[i] {
						t.Fatalf("seed %d shift=%v %s: firing %d is %+v, closure reference %+v", seed, shift, name, i, got.events[i], want.events[i])
					}
				}
				for seg := range want.rewards {
					for i := range want.rewards[seg] {
						if math.Float64bits(got.rewards[seg][i]) != math.Float64bits(want.rewards[seg][i]) {
							t.Errorf("seed %d shift=%v %s segment %d reward %d: %v, closure reference %v",
								seed, shift, name, seg, i, got.rewards[seg][i], want.rewards[seg][i])
						}
					}
				}
			}
		}
	}
}

// TestShiftValidate: Validate rejects a Shift gate with a zero delta, a nil
// or foreign place, or a place listed twice.
func TestShiftValidate(t *testing.T) {
	other := NewModel("other").Place("elsewhere", 1)
	for name, tc := range map[string]struct {
		deltas func(a, b *Place) []Delta
		want   string
	}{
		"zero":    {func(a, b *Place) []Delta { return []Delta{Tokens(a, -1), Tokens(b, 0)} }, "by zero tokens"},
		"nil":     {func(a, b *Place) []Delta { return []Delta{Tokens(a, -1), Tokens(nil, 1)} }, "nil place"},
		"foreign": {func(a, b *Place) []Delta { return []Delta{Tokens(a, -1), Tokens(other, 1)} }, `foreign place "elsewhere"`},
		"twice":   {func(a, b *Place) []Delta { return []Delta{Tokens(a, -1), Tokens(a, 2)} }, "twice"},
	} {
		m := NewModel(name)
		a, b := m.Place("a", 1), m.Place("b", 0)
		m.AddTimed(Activity{Name: "x", Input: AllOf(a), Delay: fixed(1), Output: Shift(tc.deltas(a, b)...)})
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestShiftNegativePanics: a delta that would leave its place negative
// panics naming the place, under either scheduler.
func TestShiftNegativePanics(t *testing.T) {
	for _, fullScan := range []bool{false, true} {
		m := NewModel("negative")
		a, b := m.Place("a", 1), m.Place("empty_b", 0)
		m.AddTimed(Activity{Name: "x", Input: AllOf(a), Delay: fixed(1), Output: Shift(Tokens(a, -1), Tokens(b, -1))})
		sim, err := NewSimulator(m, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		sim.FullScan = fullScan
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, `"empty_b"`) {
					t.Errorf("fullScan=%v: panic %q, want one naming empty_b", fullScan, msg)
				}
			}()
			sim.RunUntil(2)
		}()
	}
}

// TestObserversAddedMidRun: fire skips the observer calls while none is
// installed, so each kind must switch them on by itself: an invariant
// added to an unobserved run is checked, and a firing hook added after the
// trace is removed is called.
func TestObserversAddedMidRun(t *testing.T) {
	sim, err := NewSimulator(buildShiftNet(true), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var checked, traced, hooked int
	sim.RunUntil(20)
	sim.AddInvariant("counted", func(*Marking) error { checked++; return nil })
	sim.RunUntil(40)
	if checked == 0 {
		t.Fatal("an invariant added to an unobserved run was never checked")
	}
	if sim, err = NewSimulator(buildShiftNet(true), rng.New(3)); err != nil {
		t.Fatal(err)
	}
	sim.SetTrace(func(float64, *Activity, *Marking) { traced++ })
	sim.SetTrace(nil)
	sim.AddFiringHook(func(float64, *Activity, *Marking) { hooked++ })
	sim.RunUntil(20)
	if traced != 0 || hooked == 0 {
		t.Fatalf("removed trace saw %d firings, hook added after it %d", traced, hooked)
	}
}
