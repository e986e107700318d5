// Package san implements Stochastic Activity Networks (SANs), the modeling
// formalism the paper uses (via the Möbius tool, reimplemented here from
// scratch): places holding tokens, timed and instantaneous activities with
// marking-dependent enabling predicates (input gates), firing effects
// (output gates), marking-dependent delay distributions with reactivation,
// and rate/impulse reward variables evaluated over the marking process.
//
// Gates are declarative: an input or output gate names the places its
// closure reads. Validate uses the declarations to build a place→activity
// dependency index, which lets the executor in simulator.go reconcile
// enabling incrementally — after a firing only the activities (and rate
// rewards) whose declared read places actually changed are re-evaluated,
// instead of rescanning the whole net. Gates with an empty read-set are
// treated conservatively as "reads everything" and rescanned after every
// firing, so undeclared nets remain correct, just slower.
//
// The executor holds every place set and activity set as one uint64 word,
// so a model has at most MaxSize places and MaxSize activities; the
// paper's lumped net (Section 4) stays far below that.
//
// The executor in simulator.go turns a Model into a discrete-event
// simulation. It keeps its own event calendar (calendar.go): a timed
// activity has at most one pending firing, so the calendar is one slot per
// activity plus a pending mask, and simultaneous firings fire in
// scheduling order.
package san

import (
	"errors"
	"fmt"

	"repro/internal/rng"
)

// Place is a token holder. Tokens are non-negative integers; most places in
// the paper's model hold zero or one token and act as state flags, matching
// the "all compute nodes modeled as a single unit" abstraction of Section 4.
type Place struct {
	Name    string
	Initial int
	index   int
}

// Bit is p's bit in a place mask such as the marking's presence word
// (Marking.Present): 1 << p's creation index.
func (p *Place) Bit() uint64 { return 1 << p.index }

// Kind distinguishes timed activities (fire after a sampled delay) from
// instantaneous ones (fire immediately when enabled).
type Kind int

const (
	// Timed activities fire after a delay drawn from Delay.
	Timed Kind = iota + 1
	// Instantaneous activities fire as soon as they are enabled, before
	// any timed activity and before simulated time advances.
	Instantaneous
)

// Predicate is an input-gate enabling condition over the marking.
type Predicate func(m *Marking) bool

// Effect is an output-gate firing function: it moves tokens.
type Effect func(m *Marking)

// DelayFunc samples a firing delay for a timed activity in the current
// marking. It is invoked when the activity becomes enabled and again on
// reactivation.
type DelayFunc func(m *Marking, src rng.Source) float64

// InputGate is a declarative enabling condition: the predicate plus the
// places it reads. The read-set must cover every place whose token count
// can change the predicate's value; the simulator relies on it to decide
// which activities need re-evaluation after a firing. A nil/empty Reads
// means "undeclared": the activity is conservatively re-evaluated after
// every firing that changed any place.
type InputGate struct {
	Reads []*Place
	Cond  Predicate

	all []*Place // AllOf's places, compiled by Validate; nil for other gates
}

// OutputGate is a declarative firing function: the effect plus the places
// it reads to decide what to write (e.g. a branch on a counter place).
// Writes need no declaration — the marking records them dynamically. The
// read-set is validated for membership and exposed for introspection and
// tooling; it does not influence scheduling, because effects always run
// against the current marking.
type OutputGate struct {
	Reads []*Place
	Apply Effect
}

// When builds an input gate from a predicate and the places it reads.
func When(cond Predicate, reads ...*Place) InputGate {
	return InputGate{Reads: reads, Cond: cond}
}

// AllOf builds the most common input gate declaratively: enabled exactly
// when every listed place holds at least one token. The read-set is the
// listed places themselves. Validate compiles the list into a
// required-place mask, so the incremental executor tests the gate with one
// AND instead of calling Cond; FullScan still calls Cond.
func AllOf(places ...*Place) InputGate {
	ps := append([]*Place(nil), places...)
	return InputGate{Reads: ps, all: ps, Cond: func(m *Marking) bool {
		for _, p := range ps {
			if !m.Has(p) {
				return false
			}
		}
		return true
	}}
}

// Out builds an output gate from an effect and the places it reads.
func Out(apply Effect, reads ...*Place) OutputGate {
	return OutputGate{Reads: reads, Apply: apply}
}

// Activity is a SAN activity. Use Model.AddTimed / Model.AddInstant to
// create activities; the zero value is not valid.
type Activity struct {
	Name   string
	Kind   Kind
	Input  InputGate
	Delay  DelayFunc // nil for instantaneous activities
	Output OutputGate
	// ReactivateOn lists places whose token-count changes force the
	// activity to resample its delay while it remains enabled. This is
	// how marking-dependent failure rates (correlated-failure windows)
	// are modeled; resampling an exponential is statistically sound by
	// memorylessness. Only timed activities may reactivate — an
	// instantaneous activity never holds a sampled delay to resample.
	ReactivateOn []*Place
	// Priority orders simultaneous instantaneous firings (higher first).
	Priority int

	index    int
	compiled bool   // input gate built by AllOf: enabled ⇔ present&required == required
	required uint64 // AllOf's places as a mask, built by Validate
	react    uint64 // ReactivateOn places as a mask, built by Validate
}

// Index is a's creation index within its model: Model.Activities()[i] is
// the activity of index i. Observers keep per-activity tables by it.
func (a *Activity) Index() int { return a.index }

// Model is an immutable (after Validate) SAN structure: places plus
// activities. Build one with NewModel, then hand it to NewSimulator.
type Model struct {
	Name       string
	places     []*Place
	activities []*Activity
	byName     map[string]*Place
	deps       *depIndex // place→activity dependency index, built by Validate
}

// MaxSize bounds both the places and the activities of one model: the
// executor represents each place set and each activity set as a single
// uint64 word, bit i standing for the place or activity of index i.
const MaxSize = 64

// ErrTooLarge classifies a model Validate rejects for having more than
// MaxSize places or more than MaxSize activities.
var ErrTooLarge = errors.New("net exceeds the 64-place/64-activity executor limit")

// depIndex is the place→activity dependency index: for every place, which
// activities' enabling (and which rewards' rates, tracked separately by the
// simulator) can change when its token count changes. Built by Validate
// from the declared gate read-sets. Every activity set is a mask over
// activity indices, so walking its bits from the lowest visits activities
// in creation order.
type depIndex struct {
	enableTimed []uint64 // place index → timed activities whose input gate reads it
	enableInst  []uint64 // place index → instantaneous activities whose input gate reads it
	react       []uint64 // place index → activities that reactivate on it
	scanTimed   uint64   // timed activities with undeclared input read-sets
	scanInst    uint64   // instantaneous activities with undeclared input read-sets
	timed       uint64   // all timed activities
	instants    uint64   // all instantaneous activities
}

// NewModel returns an empty model.
func NewModel(name string) *Model {
	return &Model{Name: name, byName: make(map[string]*Place)}
}

// Place adds a place with the given name and initial token count. Duplicate
// names panic: the paper's submodels share state by *name identity*, so a
// silent duplicate would split a shared place in two.
func (mod *Model) Place(name string, initial int) *Place {
	if _, dup := mod.byName[name]; dup {
		panic(fmt.Sprintf("san: duplicate place %q", name))
	}
	if initial < 0 {
		panic(fmt.Sprintf("san: place %q has negative initial marking", name))
	}
	p := &Place{Name: name, Initial: initial, index: len(mod.places)}
	mod.places = append(mod.places, p)
	mod.byName[name] = p
	return p
}

// LookupPlace returns the place with the given name, or nil.
func (mod *Model) LookupPlace(name string) *Place { return mod.byName[name] }

// Places returns the model's places in creation order.
func (mod *Model) Places() []*Place {
	out := make([]*Place, len(mod.places))
	copy(out, mod.places)
	return out
}

// Activities returns the model's activities in creation order.
func (mod *Model) Activities() []*Activity {
	out := make([]*Activity, len(mod.activities))
	copy(out, mod.activities)
	return out
}

// AddTimed registers a timed activity.
func (mod *Model) AddTimed(a Activity) *Activity {
	a.Kind = Timed
	return mod.add(a)
}

// AddInstant registers an instantaneous activity.
func (mod *Model) AddInstant(a Activity) *Activity {
	a.Kind = Instantaneous
	a.Delay = nil
	return mod.add(a)
}

func (mod *Model) add(a Activity) *Activity {
	act := a
	act.index = len(mod.activities)
	mod.activities = append(mod.activities, &act)
	mod.deps = nil // structure changed; Validate must rebuild the index
	return &act
}

// owns reports whether p belongs to this model.
func (mod *Model) owns(p *Place) bool {
	return p != nil && p.index < len(mod.places) && mod.places[p.index] == p
}

// ownsActivity reports whether a belongs to this model.
func (mod *Model) ownsActivity(a *Activity) bool {
	return a != nil && a.index < len(mod.activities) && mod.activities[a.index] == a
}

// Validate checks structural well-formedness — at most MaxSize places and
// MaxSize activities (ErrTooLarge otherwise); every activity has a name, an
// enabling predicate, a firing effect, and (if timed) a delay function;
// gate read-sets and reactivation places belong to this model; only timed
// activities reactivate — and builds the place→activity dependency index
// used by the incremental scheduler. Duplicate ReactivateOn entries
// collapse into one mask bit. Validate is idempotent; NewSimulator calls
// it.
func (mod *Model) Validate() error {
	if n := len(mod.places); n > MaxSize {
		return fmt.Errorf("model %s: %d places: %w", mod.Name, n, ErrTooLarge)
	}
	if n := len(mod.activities); n > MaxSize {
		return fmt.Errorf("model %s: %d activities: %w", mod.Name, n, ErrTooLarge)
	}
	seen := make(map[string]bool, len(mod.activities))
	deps := &depIndex{
		enableTimed: make([]uint64, len(mod.places)),
		enableInst:  make([]uint64, len(mod.places)),
		react:       make([]uint64, len(mod.places)),
	}
	for _, a := range mod.activities {
		switch {
		case a.Name == "":
			return fmt.Errorf("model %s: unnamed activity", mod.Name)
		case seen[a.Name]:
			return fmt.Errorf("model %s: duplicate activity %q", mod.Name, a.Name)
		case a.Input.Cond == nil:
			return fmt.Errorf("model %s: activity %q has no enabling predicate", mod.Name, a.Name)
		case a.Output.Apply == nil:
			return fmt.Errorf("model %s: activity %q has no firing effect", mod.Name, a.Name)
		case a.Kind == Timed && a.Delay == nil:
			return fmt.Errorf("model %s: timed activity %q has no delay", mod.Name, a.Name)
		case a.Kind != Timed && a.Kind != Instantaneous:
			return fmt.Errorf("model %s: activity %q has invalid kind %d", mod.Name, a.Name, a.Kind)
		case a.Kind == Instantaneous && len(a.ReactivateOn) > 0:
			return fmt.Errorf("model %s: instantaneous activity %q has ReactivateOn (no sampled delay to resample)", mod.Name, a.Name)
		}
		seen[a.Name] = true
		bit := uint64(1) << a.index
		for _, p := range a.Input.Reads {
			if !mod.owns(p) {
				return fmt.Errorf("model %s: activity %q input gate reads foreign place %q", mod.Name, a.Name, p.Name)
			}
			if a.Kind == Timed {
				deps.enableTimed[p.index] |= bit
			} else {
				deps.enableInst[p.index] |= bit
			}
		}
		a.compiled, a.required = a.Input.all != nil, 0
		for _, p := range a.Input.all {
			if !mod.owns(p) {
				return fmt.Errorf("model %s: activity %q input gate reads foreign place %q", mod.Name, a.Name, p.Name)
			}
			a.required |= 1 << p.index
		}
		for _, p := range a.Output.Reads {
			if !mod.owns(p) {
				return fmt.Errorf("model %s: activity %q output gate reads foreign place %q", mod.Name, a.Name, p.Name)
			}
		}
		a.react = 0
		for _, p := range a.ReactivateOn {
			if !mod.owns(p) {
				return fmt.Errorf("model %s: activity %q reactivates on foreign place %q", mod.Name, a.Name, p.Name)
			}
			a.react |= 1 << p.index
			deps.react[p.index] |= bit
		}
		if a.Kind == Timed {
			deps.timed |= bit
			if len(a.Input.Reads) == 0 {
				deps.scanTimed |= bit
			}
		} else {
			deps.instants |= bit
			if len(a.Input.Reads) == 0 {
				deps.scanInst |= bit
			}
		}
	}
	mod.deps = deps
	return nil
}
