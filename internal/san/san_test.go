package san

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/rng"
)

func TestPlaceBasics(t *testing.T) {
	m := NewModel("t")
	p := m.Place("a", 2)
	if p.Name != "a" || p.Initial != 2 {
		t.Fatal("place fields wrong")
	}
	if m.LookupPlace("a") != p {
		t.Fatal("lookup failed")
	}
	if m.LookupPlace("missing") != nil {
		t.Fatal("lookup of missing place should be nil")
	}
	if len(m.Places()) != 1 {
		t.Fatal("Places() wrong length")
	}
}

func TestDuplicatePlacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate place did not panic")
		}
	}()
	m := NewModel("t")
	m.Place("a", 0)
	m.Place("a", 0)
}

func TestNegativeInitialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative initial marking did not panic")
		}
	}()
	NewModel("t").Place("a", -1)
}

func TestValidateCatchesBrokenActivities(t *testing.T) {
	cases := []struct {
		name  string
		build func(m *Model, p *Place)
		want  string
	}{
		{"unnamed", func(m *Model, p *Place) {
			m.AddTimed(Activity{Input: AllOf(p), Output: Out(func(*Marking) {}), Delay: fixed(1)})
		}, "unnamed"},
		{"no predicate", func(m *Model, p *Place) {
			m.AddTimed(Activity{Name: "x", Output: Out(func(*Marking) {}), Delay: fixed(1)})
		}, "enabling predicate"},
		{"no effect", func(m *Model, p *Place) {
			m.AddTimed(Activity{Name: "x", Input: AllOf(p), Delay: fixed(1)})
		}, "firing effect"},
		{"no delay", func(m *Model, p *Place) {
			m.AddTimed(Activity{Name: "x", Input: AllOf(p), Output: Out(func(*Marking) {})})
		}, "no delay"},
		{"duplicate", func(m *Model, p *Place) {
			a := Activity{Name: "x", Input: AllOf(p), Output: Out(func(*Marking) {}), Delay: fixed(1)}
			m.AddTimed(a)
			m.AddTimed(a)
		}, "duplicate"},
		{"foreign reactivation", func(m *Model, p *Place) {
			other := NewModel("other").Place("foreign", 0)
			m.AddTimed(Activity{
				Name: "x", Input: AllOf(p),
				Output: Out(func(*Marking) {}), Delay: fixed(1),
				ReactivateOn: []*Place{other},
			})
		}, "foreign place"},
		{"foreign input read", func(m *Model, p *Place) {
			other := NewModel("other").Place("foreign", 0)
			m.AddTimed(Activity{
				Name: "x", Input: When(func(*Marking) bool { return true }, other),
				Output: Out(func(*Marking) {}), Delay: fixed(1),
			})
		}, "foreign place"},
		{"foreign output read", func(m *Model, p *Place) {
			other := NewModel("other").Place("foreign", 0)
			m.AddTimed(Activity{
				Name: "x", Input: AllOf(p),
				Output: Out(func(*Marking) {}, other), Delay: fixed(1),
			})
		}, "foreign place"},
		{"instantaneous reactivation", func(m *Model, p *Place) {
			m.AddInstant(Activity{
				Name: "x", Input: AllOf(p),
				Output:       Out(func(*Marking) {}),
				ReactivateOn: []*Place{p},
			})
		}, "ReactivateOn"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewModel("bad")
			p := m.Place("p", 1)
			c.build(m, p)
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.want)
			}
		})
	}
}

// TestValidateDedupesReactivateOn: a place listed twice in ReactivateOn is
// indexed once (the duplicate is harmless, so it is deduped, not rejected).
func TestValidateDedupesReactivateOn(t *testing.T) {
	m := NewModel("dedupe")
	p := m.Place("p", 1)
	mode := m.Place("mode", 0)
	a := m.AddTimed(Activity{
		Name: "x", Input: AllOf(p),
		Output:       Out(func(*Marking) {}),
		Delay:        fixed(1),
		ReactivateOn: []*Place{mode, mode, mode},
	})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	want := uint64(1) << mode.index
	if a.react != want || m.deps.react[mode.index] != 1<<a.index {
		t.Fatalf("react = %#x (place row %#x), want single bit for %q", a.react, m.deps.react[mode.index], mode.Name)
	}
	// Validate is idempotent: a second pass must rebuild the same masks.
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.react != want {
		t.Fatalf("second Validate changed react: %#x", a.react)
	}
}

// TestDependencyIndex checks the declarative read-sets feed the
// place→activity dependency index Validate builds.
func TestDependencyIndex(t *testing.T) {
	m := NewModel("deps")
	a := m.Place("a", 1)
	b := m.Place("b", 0)
	ab := m.AddTimed(Activity{
		Name: "ab", Input: AllOf(a),
		Delay:  fixed(1),
		Output: Out(func(mk *Marking) { mk.Move(a, b) }),
	})
	opaque := m.AddTimed(Activity{
		Name:   "opaque",
		Input:  When(func(mk *Marking) bool { return mk.Has(b) }), // no declared reads
		Delay:  fixed(2),
		Output: Out(func(mk *Marking) { mk.Move(b, a) }),
	})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// a's row holds ab; b's is empty, because opaque declares no reads and
	// is rescanned after every firing instead.
	if got := m.deps.enableTimed[a.index]; got != 1<<ab.index {
		t.Fatalf("timed dependents of a = %b, want ab only", got)
	}
	if got := m.deps.enableTimed[b.index]; got != 0 {
		t.Fatalf("timed dependents of b = %b, want none (opaque is undeclared)", got)
	}
	if got := m.deps.scanTimed; got != 1<<opaque.index {
		t.Fatalf("undeclared timed activities = %b, want opaque only", got)
	}
}

func fixed(v float64) DelayFunc {
	return func(*Marking, rng.Source) float64 { return v }
}

// buildCycle makes a two-place token cycle a→b→a with deterministic delays
// and fully declared read-sets.
func buildCycle(da, db float64) (*Model, *Place, *Place) {
	m := NewModel("cycle")
	a := m.Place("a", 1)
	b := m.Place("b", 0)
	m.AddTimed(Activity{
		Name:   "a_to_b",
		Input:  AllOf(a),
		Delay:  fixed(da),
		Output: Out(func(mk *Marking) { mk.Move(a, b) }),
	})
	m.AddTimed(Activity{
		Name:   "b_to_a",
		Input:  AllOf(b),
		Delay:  fixed(db),
		Output: Out(func(mk *Marking) { mk.Move(b, a) }),
	})
	return m, a, b
}

func TestDeterministicCycle(t *testing.T) {
	m, a, b := buildCycle(2, 3)
	sim, err := NewSimulator(m, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	fracA := sim.AddRateReward("fracA", func(mk *Marking) float64 {
		if mk.Has(a) {
			return 1
		}
		return 0
	}, a)
	sim.RunUntil(50) // ten full 5h cycles
	wantA := 50.0 * 2 / 5
	if math.Abs(fracA.Integral()-wantA) > 1e-9 {
		t.Fatalf("time in a = %v, want %v", fracA.Integral(), wantA)
	}
	_ = b
}

func TestResetRestoresInitialState(t *testing.T) {
	m, a, _ := buildCycle(1, 1)
	sim, err := NewSimulator(m, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	r := sim.AddRateReward("inA", func(mk *Marking) float64 { return float64(mk.Get(a)) }, a)
	sim.RunUntil(10)
	if sim.Now() != 10 {
		t.Fatal("clock did not advance")
	}
	sim.Reset()
	if sim.Now() != 0 {
		t.Fatal("Reset did not rewind clock")
	}
	if r.Integral() != 0 {
		t.Fatal("Reset did not clear rate reward")
	}
	if got := sim.Snapshot()["a"]; got != 1 {
		t.Fatalf("Reset marking a = %d, want 1", got)
	}
	sim.RunUntil(10)
	if math.Abs(r.Integral()-5) > 1e-9 {
		t.Fatalf("post-reset integral = %v, want 5", r.Integral())
	}
}

func TestInstantaneousFiresBeforeTime(t *testing.T) {
	m := NewModel("inst")
	trigger := m.Place("trigger", 0)
	done := m.Place("done", 0)
	src := m.Place("src", 1)
	m.AddTimed(Activity{
		Name:   "emit",
		Input:  AllOf(src),
		Delay:  fixed(1),
		Output: Out(func(mk *Marking) { mk.Move(src, trigger) }),
	})
	m.AddInstant(Activity{
		Name:   "react",
		Input:  AllOf(trigger),
		Output: Out(func(mk *Marking) { mk.Move(trigger, done) }),
	})
	sim, err := NewSimulator(m, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var firedAt []float64
	sim.SetTrace(func(tm float64, a *Activity, mk *Marking) {
		if a.Name == "react" {
			firedAt = append(firedAt, tm)
		}
	})
	sim.RunUntil(5)
	if len(firedAt) != 1 || firedAt[0] != 1 {
		t.Fatalf("instantaneous fired at %v, want [1]", firedAt)
	}
	if sim.Snapshot()["done"] != 1 {
		t.Fatal("instantaneous did not move token")
	}
}

func TestInstantaneousPriority(t *testing.T) {
	m := NewModel("prio")
	tok := m.Place("tok", 1)
	hi := m.Place("hi", 0)
	lo := m.Place("lo", 0)
	m.AddInstant(Activity{
		Name: "low", Priority: 1,
		Input:  AllOf(tok),
		Output: Out(func(mk *Marking) { mk.Move(tok, lo) }),
	})
	m.AddInstant(Activity{
		Name: "high", Priority: 2,
		Input:  AllOf(tok),
		Output: Out(func(mk *Marking) { mk.Move(tok, hi) }),
	})
	sim, err := NewSimulator(m, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if sim.Snapshot()["hi"] != 1 || sim.Snapshot()["lo"] != 0 {
		t.Fatalf("priority not respected: %v", sim.Snapshot())
	}
}

func TestInstantLivelockPanics(t *testing.T) {
	m := NewModel("livelock")
	a := m.Place("a", 1)
	b := m.Place("b", 0)
	m.AddInstant(Activity{
		Name:   "ab",
		Input:  AllOf(a),
		Output: Out(func(mk *Marking) { mk.Move(a, b) }),
	})
	m.AddInstant(Activity{
		Name:   "ba",
		Input:  AllOf(b),
		Output: Out(func(mk *Marking) { mk.Move(b, a) }),
	})
	defer func() {
		if recover() == nil {
			t.Fatal("instantaneous livelock did not panic")
		}
	}()
	_, _ = NewSimulator(m, rng.New(5))
}

func TestDisablingCancelsTimedActivity(t *testing.T) {
	// A slow activity enabled by a token that a fast activity steals must
	// never fire (race semantics with cancellation).
	m := NewModel("race")
	shared := m.Place("shared", 1)
	slowDst := m.Place("slow_dst", 0)
	fastDst := m.Place("fast_dst", 0)
	m.AddTimed(Activity{
		Name:   "slow",
		Input:  AllOf(shared),
		Delay:  fixed(10),
		Output: Out(func(mk *Marking) { mk.Move(shared, slowDst) }),
	})
	m.AddTimed(Activity{
		Name:   "fast",
		Input:  AllOf(shared),
		Delay:  fixed(1),
		Output: Out(func(mk *Marking) { mk.Move(shared, fastDst) }),
	})
	sim, err := NewSimulator(m, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(100)
	snap := sim.Snapshot()
	if snap["fast_dst"] != 1 || snap["slow_dst"] != 0 {
		t.Fatalf("race semantics broken: %v", snap)
	}
}

func TestReactivationResamples(t *testing.T) {
	// An activity whose delay depends on a mode place must resample when
	// the mode changes. Mode flips at t=1 making the delay short; without
	// reactivation the activity would fire at t=100, with it at ~t=1+2.
	m := NewModel("react")
	mode := m.Place("mode", 0)
	run := m.Place("run", 1)
	out := m.Place("out", 0)
	flip := m.Place("flip", 1)
	m.AddTimed(Activity{
		Name:   "flip_mode",
		Input:  AllOf(flip),
		Delay:  fixed(1),
		Output: Out(func(mk *Marking) { mk.Clear(flip); mk.Set(mode, 1) }),
	})
	m.AddTimed(Activity{
		Name:  "job",
		Input: AllOf(run),
		Delay: func(mk *Marking, _ rng.Source) float64 {
			if mk.Has(mode) {
				return 2
			}
			return 100
		},
		Output:       Out(func(mk *Marking) { mk.Move(run, out) }),
		ReactivateOn: []*Place{mode},
	})
	sim, err := NewSimulator(m, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var jobAt float64 = -1
	sim.SetTrace(func(tm float64, a *Activity, mk *Marking) {
		if a.Name == "job" {
			jobAt = tm
		}
	})
	sim.RunUntil(50)
	if math.Abs(jobAt-3) > 1e-9 {
		t.Fatalf("job fired at %v, want 3 (reactivated)", jobAt)
	}
}

func TestNoReactivationKeepsSample(t *testing.T) {
	// Same net without ReactivateOn: the original 100h sample must stand.
	m := NewModel("noreact")
	mode := m.Place("mode", 0)
	run := m.Place("run", 1)
	out := m.Place("out", 0)
	flip := m.Place("flip", 1)
	m.AddTimed(Activity{
		Name:   "flip_mode",
		Input:  AllOf(flip),
		Delay:  fixed(1),
		Output: Out(func(mk *Marking) { mk.Clear(flip); mk.Set(mode, 1) }),
	})
	m.AddTimed(Activity{
		Name:  "job",
		Input: AllOf(run),
		Delay: func(mk *Marking, _ rng.Source) float64 {
			if mk.Has(mode) {
				return 2
			}
			return 100
		},
		Output: Out(func(mk *Marking) { mk.Move(run, out) }),
	})
	sim, err := NewSimulator(m, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(200)
	var jobAt float64 = -1
	sim.Reset()
	sim.SetTrace(func(tm float64, a *Activity, mk *Marking) {
		if a.Name == "job" {
			jobAt = tm
		}
	})
	sim.RunUntil(200)
	if math.Abs(jobAt-100) > 1e-9 {
		t.Fatalf("job fired at %v, want 100 (no reactivation)", jobAt)
	}
}

func TestImpulseReward(t *testing.T) {
	m, _, _ := buildCycle(1, 1)
	sim, err := NewSimulator(m, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var ab *Activity
	for _, a := range m.Activities() {
		if a.Name == "a_to_b" {
			ab = a
		}
	}
	h := sim.AddImpulse("count_ab", ab, func(*Marking) float64 { return 2.5 })
	sim.RunUntil(10.5) // a→b at 1,3,5,7,9 → five firings
	if h.Count() != 5 {
		t.Fatalf("impulse count = %d, want 5", h.Count())
	}
	if math.Abs(h.Total()-12.5) > 1e-9 {
		t.Fatalf("impulse total = %v, want 12.5", h.Total())
	}
}

func TestMarkingOperations(t *testing.T) {
	m := NewModel("ops")
	a := m.Place("a", 3)
	b := m.Place("b", 0)
	sim, err := NewSimulator(m, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	mk := sim.Marking()
	if mk.Get(a) != 3 || mk.Has(b) {
		t.Fatal("initial marking wrong")
	}
	mk.Move(a, b)
	if mk.Get(a) != 2 || mk.Get(b) != 1 {
		t.Fatal("Move wrong")
	}
	mk.Add(b, 4)
	if mk.Get(b) != 5 {
		t.Fatal("Add wrong")
	}
	mk.Clear(b)
	if mk.Has(b) {
		t.Fatal("Clear wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative Set did not panic")
			}
		}()
		mk.Set(a, -1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Move from empty did not panic")
			}
		}()
		mk.Move(b, a)
	}()
}

func TestExponentialRaceWinProbability(t *testing.T) {
	// Two competing exponentials with rates 1 and 3: the fast one should
	// win 75% of races.
	m := NewModel("exp-race")
	tok := m.Place("tok", 1)
	fast := m.Place("fast", 0)
	slow := m.Place("slow", 0)
	reload := m.Place("reload", 0)
	m.AddTimed(Activity{
		Name:  "fast_act",
		Input: AllOf(tok),
		Delay: func(_ *Marking, src rng.Source) float64 {
			return rng.Exponential{MeanValue: 1.0 / 3}.Sample(src)
		},
		Output: Out(func(mk *Marking) { mk.Move(tok, fast); mk.Add(reload, 1) }),
	})
	m.AddTimed(Activity{
		Name:  "slow_act",
		Input: AllOf(tok),
		Delay: func(_ *Marking, src rng.Source) float64 {
			return rng.Exponential{MeanValue: 1.0}.Sample(src)
		},
		Output: Out(func(mk *Marking) { mk.Move(tok, slow); mk.Add(reload, 1) }),
	})
	m.AddInstant(Activity{
		Name:  "restart",
		Input: AllOf(reload),
		Output: Out(func(mk *Marking) {
			mk.Clear(reload)
			mk.Set(tok, 1)
		}),
	})
	sim, err := NewSimulator(m, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(3000)
	snap := sim.Snapshot()
	total := snap["fast"] + snap["slow"]
	if total < 1000 {
		t.Fatalf("too few races: %d", total)
	}
	frac := float64(snap["fast"]) / float64(total)
	if math.Abs(frac-0.75) > 0.03 {
		t.Fatalf("fast win fraction = %v, want ~0.75", frac)
	}
}

func TestDescribeMarkingSorted(t *testing.T) {
	m := NewModel("desc")
	m.Place("zeta", 1)
	m.Place("alpha", 2)
	m.Place("mid", 0)
	sim, err := NewSimulator(m, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.DescribeMarking(); got != "alpha=2 zeta=1" {
		t.Fatalf("DescribeMarking = %q", got)
	}
}

func TestRateRewardAfterReset(t *testing.T) {
	// A rate reward added before a Reset must track the restored marking.
	m := NewModel("rr")
	on := m.Place("on", 1)
	off := m.Place("off", 0)
	m.AddTimed(Activity{
		Name:   "kill",
		Input:  AllOf(on),
		Delay:  fixed(1),
		Output: Out(func(mk *Marking) { mk.Move(on, off) }),
	})
	sim, err := NewSimulator(m, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	r := sim.AddRateReward("up", func(mk *Marking) float64 { return float64(mk.Get(on)) }, on)
	sim.RunUntil(5)
	if math.Abs(r.Integral()-1) > 1e-9 {
		t.Fatalf("first run integral = %v, want 1", r.Integral())
	}
	sim.Reset()
	sim.RunUntil(5)
	if math.Abs(r.Integral()-1) > 1e-9 {
		t.Fatalf("post-reset integral = %v, want 1", r.Integral())
	}
}

func TestInvariantViolationPanics(t *testing.T) {
	m := NewModel("inv")
	a := m.Place("a", 1)
	b := m.Place("b", 0)
	m.AddTimed(Activity{
		Name:   "leak",
		Input:  AllOf(a),
		Delay:  fixed(1),
		Output: Out(func(mk *Marking) { mk.Add(b, 2) }), // breaks conservation
	})
	sim, err := NewSimulator(m, rng.New(30))
	if err != nil {
		t.Fatal(err)
	}
	sim.AddInvariant("token conservation", func(mk *Marking) error {
		if mk.Get(a)+mk.Get(b) > 1 {
			return fmt.Errorf("tokens multiplied")
		}
		return nil
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("invariant violation did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "token conservation") || !strings.Contains(msg, "leak") {
			t.Fatalf("panic lacks context: %v", msg)
		}
	}()
	sim.RunUntil(10)
}

func TestInvariantHoldsQuietly(t *testing.T) {
	m, a, b := buildCycle(1, 1)
	sim, err := NewSimulator(m, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	sim.AddInvariant("one token", func(mk *Marking) error {
		if mk.Get(a)+mk.Get(b) != 1 {
			return fmt.Errorf("token count %d", mk.Get(a)+mk.Get(b))
		}
		return nil
	})
	sim.RunUntil(100) // must not panic
	if sim.Fired() < 90 {
		t.Fatalf("only %d firings", sim.Fired())
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	m, _, _ := buildCycle(1, 1)
	sim, err := NewSimulator(m, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()
	snap["a"] = 99
	if sim.Snapshot()["a"] != 1 {
		t.Fatal("Snapshot aliases internal state")
	}
}

func TestTimedActivityReenablesAfterFire(t *testing.T) {
	// A self-re-enabling timed activity must fire repeatedly with fresh
	// samples — its firing changes no place, so the incremental scheduler
	// must reconcile it through the fired-activity hook, not the dirty set.
	m := NewModel("self")
	tick := m.Place("tick", 1)
	count := 0
	m.AddTimed(Activity{
		Name:   "metronome",
		Input:  AllOf(tick),
		Delay:  fixed(2),
		Output: Out(func(mk *Marking) { count++ }),
	})
	sim, err := NewSimulator(m, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(11)
	if count != 5 {
		t.Fatalf("metronome fired %d times in 11h, want 5", count)
	}
}

// TestUndeclaredGateStaysCorrect: a net whose input gates declare no reads
// must still simulate correctly — the scheduler falls back to rescanning
// the undeclared activities after every firing.
func TestUndeclaredGateStaysCorrect(t *testing.T) {
	m := NewModel("opaque")
	a := m.Place("a", 1)
	b := m.Place("b", 0)
	m.AddTimed(Activity{
		Name:   "a_to_b",
		Input:  When(func(mk *Marking) bool { return mk.Has(a) }),
		Delay:  fixed(2),
		Output: Out(func(mk *Marking) { mk.Move(a, b) }),
	})
	m.AddInstant(Activity{
		Name:   "b_back",
		Input:  When(func(mk *Marking) bool { return mk.Has(b) }),
		Output: Out(func(mk *Marking) { mk.Move(b, a) }),
	})
	sim, err := NewSimulator(m, rng.New(34))
	if err != nil {
		t.Fatal(err)
	}
	bounces := 0
	sim.SetTrace(func(_ float64, a *Activity, _ *Marking) {
		if a.Name == "b_back" {
			bounces++
		}
	})
	sim.RunUntil(10)
	if sim.Fired() != 5 { // timed firings at t=2,4,6,8,10
		t.Fatalf("fired %d, want 5", sim.Fired())
	}
	if bounces != 5 {
		t.Fatalf("instant bounced %d times, want 5", bounces)
	}
	if sim.Snapshot()["a"] != 1 {
		t.Fatalf("token not back in a: %v", sim.Snapshot())
	}
}
