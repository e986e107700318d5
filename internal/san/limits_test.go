package san

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
)

// panicText runs f and returns what it panicked with ("" if it returned).
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestSizeLimit pins the executor's one-word limit: a net of MaxSize places
// and MaxSize activities runs, one more place or one more activity fails
// Validate (and NewSimulator) with ErrTooLarge, and a rate reward beyond
// MaxSize panics.
func TestSizeLimit(t *testing.T) {
	largest, _ := buildCellArray(MaxSize / 2)
	if n, k := len(largest.Places()), len(largest.Activities()); n != MaxSize || k != MaxSize {
		t.Fatalf("largest net has %d places, %d activities; want %d each", n, k, MaxSize)
	}
	sim, err := NewSimulator(largest, rng.New(1))
	if err != nil {
		t.Fatalf("net at the limit rejected: %v", err)
	}
	sim.RunUntil(10)
	if sim.Fired() == 0 {
		t.Fatal("net at the limit fired nothing")
	}

	places, _ := buildCellArray(MaxSize / 2)
	places.Place("extra", 0)
	acts, _ := buildCellArray(MaxSize / 2)
	acts.AddInstant(Activity{
		Name:   "extra",
		Input:  When(func(*Marking) bool { return false }),
		Output: Out(func(*Marking) {}),
	})
	for name, m := range map[string]*Model{"65 places": places, "65 activities": acts} {
		err := m.Validate()
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: Validate = %v, want ErrTooLarge", name, err)
		}
		if _, err := NewSimulator(m, rng.New(1)); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: NewSimulator = %v, want ErrTooLarge", name, err)
		}
	}

	p := largest.LookupPlace("a0")
	for i := 0; i < MaxSize; i++ {
		sim.AddRateReward(fmt.Sprintf("r%d", i), func(mk *Marking) float64 { return float64(mk.Get(p)) }, p)
	}
	msg := panicText(func() {
		sim.AddRateReward("one too many", func(*Marking) float64 { return 0 })
	})
	if !strings.HasPrefix(msg, "san: ") || !strings.Contains(msg, "one too many") {
		t.Fatalf("65th rate reward: panic %q, want a san: message naming the reward", msg)
	}
}

// TestAddImpulseRejectsForeignActivity: an impulse hook on another model's
// activity panics with a san: message instead of silently watching this
// model's activity of the same index, or failing with a bare index error.
func TestAddImpulseRejectsForeignActivity(t *testing.T) {
	m, _, _ := buildCycle(1, 1)
	sim, err := NewSimulator(m, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	other, _ := buildCellArray(2)
	acts := other.Activities()
	for _, act := range []*Activity{acts[0], acts[3]} { // in range here, then beyond
		msg := panicText(func() {
			sim.AddImpulse("stray", act, func(*Marking) float64 { return 1 })
		})
		if !strings.HasPrefix(msg, "san: ") || !strings.Contains(msg, "foreign") {
			t.Fatalf("impulse on foreign activity %q (index %d): panic %q, want a san: foreign-activity message",
				act.Name, act.index, msg)
		}
	}
	own := m.Activities()[1]
	if h := sim.AddImpulse("own", own, func(*Marking) float64 { return 1 }); h.Activity != own {
		t.Fatal("impulse on the model's own activity not registered")
	}
}

// TestAllOfCompiles checks which input gates Validate compiles into
// required-place masks: AllOf ones only, and exactly over their places.
func TestAllOfCompiles(t *testing.T) {
	m := NewModel("compile")
	a := m.Place("a", 1)
	b := m.Place("b", 0)
	c := m.Place("c", 0)
	all := m.AddTimed(Activity{Name: "all", Input: AllOf(a, c), Delay: fixed(1), Output: Out(func(*Marking) {})})
	when := m.AddTimed(Activity{Name: "when", Input: When(func(mk *Marking) bool { return mk.Has(b) }, b),
		Delay: fixed(1), Output: Out(func(*Marking) {})})
	literal := m.AddTimed(Activity{Name: "literal", Input: InputGate{Reads: []*Place{a}, Cond: func(mk *Marking) bool { return mk.Has(a) }},
		Delay: fixed(1), Output: Out(func(*Marking) {})})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !all.compiled || all.required != 1<<a.index|1<<c.index {
		t.Fatalf("AllOf(a, c): compiled=%v required=%#b", all.compiled, all.required)
	}
	if when.compiled || literal.compiled {
		t.Fatal("non-AllOf gate compiled into a mask")
	}
}
