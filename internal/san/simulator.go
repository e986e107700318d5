package san

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Marking is the read/write view of the net's state passed to predicates
// and effects. Besides the token counts it keeps the presence word — the
// places holding at least one token (bit i stands for the place of index
// i), which compiled AllOf gates test with one AND — and the words that
// drive the incremental scheduler:
//
//   - dirty: places changed since the last settle — read by reactivation
//     and cleared once per settle;
//   - reconcile: the timed activities whose enabling or reactivation reads
//     a place changed since the last settle — cleared with dirty;
//   - unabsorbed: the instantaneous activities whose enabling reads a place
//     changed since the instantaneous-enabling cache last absorbed changes
//     — cleared once per instantaneous pick;
//   - refresh: the rate rewards that read a place changed by the current
//     firing — cleared by the rate reward refresh.
//
// Every change ORs the place's watchers (see watchers) into the last three,
// so a settle reads its dependency closure as one word and clearing it is
// one store.
type Marking struct {
	tokens     []int
	present    uint64
	dirty      uint64
	reconcile  uint64
	unabsorbed uint64
	refresh    uint64
	watch      []watchers // place index → the place's watchers
}

// watchers are the dependents of one place, each set a mask: the timed
// activities whose input gate or ReactivateOn list reads it, the
// instantaneous activities whose input gate reads it, and the rate rewards
// that read it. Each set includes the activities or rewards with undeclared
// read-sets, which depend on every place.
type watchers struct {
	timed, inst, rates uint64
}

// closure returns the union of the watchers of the places in set.
func (m *Marking) closure(set uint64) watchers {
	var w watchers
	for ; set != 0; set &= set - 1 {
		pw := m.watch[bits.TrailingZeros64(set)]
		w.timed |= pw.timed
		w.inst |= pw.inst
		w.rates |= pw.rates
	}
	return w
}

// Get returns the number of tokens in p.
func (m *Marking) Get(p *Place) int { return m.tokens[p.index] }

// Has reports whether p holds at least one token.
func (m *Marking) Has(p *Place) bool { return m.present&(1<<p.index) != 0 }

// Present returns the presence word: bit i (Place.Bit) is set exactly when
// the place of index i holds at least one token. An observer digests many
// places at once by masking it.
func (m *Marking) Present() uint64 { return m.present }

// Set assigns the token count of p. Negative counts panic: they always
// indicate a broken gate function.
func (m *Marking) Set(p *Place, n int) {
	if n < 0 {
		panic(fmt.Sprintf("san: place %q set to negative count %d", p.Name, n))
	}
	if m.tokens[p.index] == n {
		return
	}
	m.tokens[p.index] = n
	bit := uint64(1) << p.index
	if n > 0 {
		m.present |= bit
	} else {
		m.present &^= bit
	}
	w := &m.watch[p.index]
	m.dirty |= bit
	m.reconcile |= w.timed
	m.unabsorbed |= w.inst
	m.refresh |= w.rates
}

// Add adds delta tokens to p (delta may be negative).
func (m *Marking) Add(p *Place, delta int) { m.Set(p, m.Get(p)+delta) }

// Move transfers one token from src to dst; it panics when src is empty,
// because moving a non-existent token is a structural modeling error.
func (m *Marking) Move(src, dst *Place) {
	if m.Get(src) < 1 {
		panic(fmt.Sprintf("san: move from empty place %q", src.Name))
	}
	m.Add(src, -1)
	m.Add(dst, 1)
}

// Clear removes all tokens from p.
func (m *Marking) Clear(p *Place) { m.Set(p, 0) }

// RateReward integrates a marking-dependent rate over simulated time, the
// SAN analogue of accumulated reward (the paper's useful-work measure is
// built from one rate reward plus impulse rewards).
type RateReward struct {
	Name string
	Rate func(m *Marking) float64

	integral float64
	lastRate float64
	lastTime float64

	// An indicator (AddIndicator) compiled to place masks: its rate is 1
	// exactly when present&all == all and, if any ≠ 0, present&any ≠ 0.
	indicator bool
	all, any  uint64
}

// indicated returns an indicator's rate given the presence word.
func (r *RateReward) indicated(present uint64) float64 {
	if present&r.all == r.all && (r.any == 0 || present&r.any != 0) {
		return 1
	}
	return 0
}

// Integral returns the accumulated ∫rate dt so far.
func (r *RateReward) Integral() float64 { return r.integral }

// ImpulseHook runs when a specific activity fires, after its Effect. The
// returned value is added to the hook's accumulator; hooks may also mutate
// external reward state (closures).
type ImpulseHook struct {
	Name     string
	Activity *Activity
	Impulse  func(m *Marking) float64

	total float64
	count uint64
}

// Total returns the accumulated impulse reward.
func (h *ImpulseHook) Total() float64 { return h.total }

// Count returns the number of times the hook fired.
func (h *ImpulseHook) Count() uint64 { return h.count }

// TraceFunc observes every firing: time, activity, marking after firing.
type TraceFunc func(t float64, a *Activity, m *Marking)

// Invariant is a marking predicate checked after every firing when
// invariant checking is enabled; returning an error panics with context,
// because a violated invariant means the net itself is broken and no
// result derived from the trajectory can be trusted.
type Invariant struct {
	Name  string
	Check func(m *Marking) error
}

// Simulator executes a Model as a discrete-event simulation. Create with
// NewSimulator; a Simulator is single-use for one trajectory (call Reset to
// reuse, which restores the initial marking and clears rewards).
//
// By default the simulator schedules incrementally: after each firing only
// the activities and rate rewards whose declared read places changed are
// reconciled, found through the model's dependency index. The FullScan
// option restores the historic O(places + activities) rescan of the whole
// net after every firing; both schedulers produce bit-identical
// trajectories when all read-sets are declared correctly, which the
// differential tests assert.
//
// Pending timed firings live in the simulator's own calendar, one slot per
// timed activity (see calendar): an activity is scheduled exactly when its
// calendar bit is set.
type Simulator struct {
	model *Model
	src   rng.Source
	cal   calendar

	marking *Marking
	instOn  uint64 // instantaneous activities: cached input-gate truth

	// shiftWatch holds, per activity with a Shift output gate (a bit of
	// shifts), the union of its shifted places' watchers: the dependency
	// closure one firing marks dirty.
	shifts     uint64
	shiftWatch []watchers

	rates  []*RateReward
	rateOn uint64 // rate rewards whose current rate is non-zero (or NaN)

	impulses [][]*ImpulseHook // per-activity impulse hooks
	impulsed uint64           // activities with at least one impulse hook

	trace      TraceFunc
	hooks      []TraceFunc
	invariants []Invariant
	observed   bool      // an invariant, a trace or a firing hook is installed
	stats      *simStats // nil when uninstrumented (the default)

	// FullScan disables incremental reconciliation: every settle rescans
	// all activities and every firing re-evaluates all rate rewards, as
	// the pre-index executor did. Kept for differential testing and as a
	// debugging aid when a gate's declared read-set is suspect. The flag
	// may be toggled between runs of the same simulator; both modes keep
	// the incremental caches coherent.
	FullScan bool

	// MaxInstantChain guards against livelock among instantaneous
	// activities; exceeded chains panic. Default 10000.
	MaxInstantChain int
}

// simStats holds the simulator's shard-local observability handles. The
// hot loop pays one nil check per instrumented site when detached and a
// plain integer increment when attached; every handle lives on an
// obs.Shard, so parallel replications never share a cache line.
type simStats struct {
	settles       *obs.LocalCounter   // settle passes (one per firing chain)
	timedFirings  *obs.LocalCounter   // timed activity firings
	instFirings   *obs.LocalCounter   // instantaneous activity firings
	reactivations *obs.LocalCounter   // in-place delay resamples (ReactivateOn)
	closureInc    *obs.LocalHistogram // dirty-closure sizes (incremental mode)
	closureFull   *obs.LocalHistogram // reconcile set sizes (full-scan mode)
	queueDepth    *obs.LocalHistogram // pending firings, sampled per settle
	engFired      *obs.LocalCounter   // filled from the calendar by FlushEngineStats
	engScheduled  *obs.LocalCounter
	engCancelled  *obs.LocalCounter
	sampleTick    uint64 // settles seen; drives the histogram sampling below
}

// statsSampleMask thins the per-settle histogram observations (queue depth,
// closure sizes) to 1 in 16: histogram updates cost several times a plain
// counter increment, and the sampled distribution is statistically
// indistinguishable over the millions of settles of a real trajectory.
// Counters are never sampled. The tick is derived from the settle count, a
// pure function of the trajectory, so sampled telemetry — and the run
// journal built from it — stays deterministic.
const statsSampleMask = 15

// closureBuckets covers reconcile-set sizes from single-activity settles
// up to nets far larger than the paper model's 23 activities.
var closureBuckets = obs.ExpBuckets(1, 2, 9) // 1..256

// Instrument attaches the simulator's telemetry to sh (nil detaches):
// firing/settle/reactivation counters, dirty-closure and queue-depth
// histograms, and — via FlushEngineStats — the calendar's event counters.
// Call after NewSimulator (or Reset) and FlushEngineStats once when the
// trajectory ends; then merge the shard into its registry.
func (s *Simulator) Instrument(sh *obs.Shard) {
	if sh == nil {
		s.stats = nil
		return
	}
	s.stats = &simStats{
		settles:       sh.Counter("san.settles"),
		timedFirings:  sh.Counter("san.timed_firings"),
		instFirings:   sh.Counter("san.instant_firings"),
		reactivations: sh.Counter("san.reactivations"),
		closureInc:    sh.Histogram("san.dirty_closure", closureBuckets),
		closureFull:   sh.Histogram("san.fullscan_closure", closureBuckets),
		queueDepth:    sh.Histogram("des.queue_depth", closureBuckets),
		engFired:      sh.Counter("des.events_fired"),
		engScheduled:  sh.Counter("des.events_scheduled"),
		engCancelled:  sh.Counter("des.events_cancelled"),
	}
}

// FlushEngineStats folds the calendar's event counters (des.events_fired,
// des.events_scheduled, des.events_cancelled) into the attached shard.
// Call exactly once, after the trajectory's last RunUntil — the counts are
// cumulative, so flushing twice without a Reset in between would
// double-count.
func (s *Simulator) FlushEngineStats() {
	st := s.stats
	if st == nil {
		return
	}
	st.engFired.Add(s.cal.fired)
	st.engScheduled.Add(s.cal.scheduled)
	st.engCancelled.Add(s.cal.cancelled)
}

// PoolStats reports the calendar's numbers in the terms of a pooled event
// engine: hits are schedules that left the pending high-water mark
// unchanged, misses are schedules that raised it (when a pool would have
// allocated a fresh event), and size is the high-water mark minus the
// firings pending (the events a pool would hold). The high-water mark
// counts from construction; hits and misses rewind on Reset, so after a
// reset they describe the current trajectory only.
func (s *Simulator) PoolStats() (hits, misses uint64, size int) {
	return s.cal.poolStats()
}

// NewSimulator validates the model (building its dependency index) and
// prepares an executor with the given random source: it turns the index
// into per-place watchers and each Shift gate's dependency closure.
func NewSimulator(model *Model, src rng.Source) (*Simulator, error) {
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("san: %w", err)
	}
	deps := model.deps
	n := len(model.places)
	ws := make([]watchers, n+len(model.activities)) // one allocation for both tables
	watch := ws[:n:n]
	for i := range watch {
		watch[i] = watchers{
			timed: deps.enableTimed[i] | deps.react[i] | deps.scanTimed,
			inst:  deps.enableInst[i] | deps.scanInst,
		}
	}
	s := &Simulator{
		model:           model,
		src:             src,
		shiftWatch:      ws[n:],
		impulses:        make([][]*ImpulseHook, len(model.activities)),
		MaxInstantChain: 10000,
		cal:             newCalendar(len(model.activities)),
		marking:         &Marking{tokens: make([]int, len(model.places)), watch: watch},
	}
	for _, a := range model.activities {
		if a.shifted != 0 {
			s.shifts |= 1 << a.index
			s.shiftWatch[a.index] = s.marking.closure(a.shifted)
		}
	}
	s.Reset()
	return s, nil
}

// Reset restores the initial marking, clears the calendar and rewards,
// and rewinds the clock to zero. The random source is NOT reset, so
// consecutive trajectories are independent. The model's dependency index
// and the rewards' declared read-sets are retained — only trajectory state
// is rewound, in place: the marking, the calendar and the per-activity
// caches are reused, so a reset trajectory runs without allocating.
// Trajectories on a reset simulator are bit-identical to ones on a freshly
// built simulator fed the same random stream: the calendar restarts its
// sequence numbers and every place starts dirty, so the initial settle
// reconciles every activity in creation order.
func (s *Simulator) Reset() {
	n := len(s.model.places)
	s.cal.reset()
	s.instOn = 0
	m := s.marking
	m.present = 0
	for _, p := range s.model.places {
		m.tokens[p.index] = p.Initial
		if p.Initial > 0 {
			m.present |= 1 << p.index
		}
	}
	// Every place starts dirty so the first settle performs the initial
	// reconciliation through the same incremental path as any other.
	m.dirty = uint64(1)<<n - 1 // n ≤ MaxSize; the shift wraps to all ones at 64
	all := m.closure(m.dirty)
	m.reconcile, m.unabsorbed = all.timed, all.inst
	for _, hooks := range s.impulses {
		for _, h := range hooks {
			h.total, h.count = 0, 0
		}
	}
	s.fireTimed(-1)
	for i, r := range s.rates {
		r.integral = 0
		s.refreshRate(i, 0)
	}
}

// SetSource swaps the random source future delay samples are drawn from.
// Pending events keep the delays they were scheduled with — only draws made
// after the call see the new source. The variance-reduction layer uses this
// to run a reflected (antithetic) trajectory on a recycled simulator by
// wrapping the original stream, and the importance-splitting driver uses it
// to branch a trajectory's future randomness mid-run; call it before Reset
// when the whole trajectory must use the new source (Reset's initial settle
// already samples delays).
func (s *Simulator) SetSource(src rng.Source) { s.src = src }

// Now returns the current simulated time.
func (s *Simulator) Now() float64 { return s.cal.now }

// Fired returns the number of activity firings so far.
func (s *Simulator) Fired() uint64 { return s.cal.fired }

// SetTrace installs a firing observer (nil disables tracing).
func (s *Simulator) SetTrace(f TraceFunc) {
	s.trace = f
	s.noteObservers()
}

// noteObservers keeps the observed flag, which guards fire's observer
// calls, in step with the installed observers.
func (s *Simulator) noteObservers() {
	s.observed = s.trace != nil || len(s.hooks) > 0 || len(s.invariants) > 0
}

// AddFiringHook registers an additional firing observer, called after the
// SetTrace observer with the same (time, activity, post-firing marking)
// arguments. Hooks are independent of SetTrace so a tool can stream raw
// events while a phase-span recorder watches the same trajectory; they are
// strictly observational — a hook must not mutate the marking or draw from
// the random source, which is what keeps traced and untraced trajectories
// bit-identical. Hooks survive Reset and cannot be removed; a Simulator
// that needs different observers is rebuilt.
func (s *Simulator) AddFiringHook(f TraceFunc) {
	if f == nil {
		panic("san: nil firing hook")
	}
	s.hooks = append(s.hooks, f)
	s.noteObservers()
}

// AddInvariant registers a marking predicate evaluated after every firing.
// A violation panics with the firing context — invariants exist to catch
// modeling bugs in tests, not to report runtime errors.
func (s *Simulator) AddInvariant(name string, check func(m *Marking) error) {
	s.invariants = append(s.invariants, Invariant{Name: name, Check: check})
	s.noteObservers()
}

// AddRateReward registers a rate reward evaluated over the marking process.
// The variadic reads declare the places the rate function depends on; with
// them the incremental scheduler re-evaluates the rate only when one of
// those places changes. Omitting reads is always correct but re-evaluates
// the rate after every firing. A simulator holds at most MaxSize rate
// rewards; registering one more panics.
func (s *Simulator) AddRateReward(name string, rate func(m *Marking) float64, reads ...*Place) *RateReward {
	return s.addRate(&RateReward{Name: name, Rate: rate}, reads)
}

// AddIndicator registers an occupancy rate reward declaratively: its rate
// is 1 while every place in allOf holds a token and, when anyOf is
// non-empty, at least one place in anyOf does; 0 otherwise. The read-set
// is allOf ∪ anyOf, and at least one place is required. The incremental
// refresh tests the indicator with two masks against the presence word and
// calls no closure; FullScan calls the equivalent Rate closure, so the
// differential tests check every compiled mask against it, as for AllOf
// gates.
func (s *Simulator) AddIndicator(name string, allOf, anyOf []*Place) *RateReward {
	if len(allOf)+len(anyOf) == 0 {
		panic(fmt.Sprintf("san: indicator reward %q reads no place", name))
	}
	reads := append(append([]*Place(nil), allOf...), anyOf...)
	all, some := reads[:len(allOf)], reads[len(allOf):]
	r := &RateReward{Name: name, indicator: true, Rate: func(m *Marking) float64 {
		for _, p := range all {
			if !m.Has(p) {
				return 0
			}
		}
		if len(some) == 0 {
			return 1
		}
		for _, p := range some {
			if m.Has(p) {
				return 1
			}
		}
		return 0
	}}
	for _, p := range all {
		r.all |= p.Bit()
	}
	for _, p := range some {
		r.any |= p.Bit()
	}
	return s.addRate(r, reads)
}

// addRate validates reward r's read-set, registers it and evaluates its
// initial rate.
func (s *Simulator) addRate(r *RateReward, reads []*Place) *RateReward {
	if len(s.rates) == MaxSize {
		panic(fmt.Sprintf("san: rate reward %q exceeds the limit of %d rate rewards", r.Name, MaxSize))
	}
	for _, p := range reads {
		if !s.model.owns(p) {
			panic(fmt.Sprintf("san: rate reward %q reads foreign place %q", r.Name, p.Name))
		}
	}
	bit := uint64(1) << len(s.rates)
	s.rates = append(s.rates, r)
	s.refreshRate(len(s.rates)-1, s.cal.now)
	watch := s.marking.watch
	var read uint64
	for _, p := range reads {
		read |= p.Bit()
		watch[p.index].rates |= bit
	}
	if len(reads) == 0 {
		read = ^uint64(0)
		for i := range watch {
			watch[i].rates |= bit
		}
	}
	for set := s.shifts; set != 0; set &= set - 1 {
		ai := bits.TrailingZeros64(set)
		if s.model.activities[ai].shifted&read != 0 {
			s.shiftWatch[ai].rates |= bit
		}
	}
	return r
}

// AddImpulse registers an impulse reward accrued each time act fires. act
// must be an activity of this simulator's model; a foreign one panics.
func (s *Simulator) AddImpulse(name string, act *Activity, impulse func(m *Marking) float64) *ImpulseHook {
	if !s.model.ownsActivity(act) {
		panic(fmt.Sprintf("san: impulse reward %q watches an activity foreign to model %s", name, s.model.Name))
	}
	h := &ImpulseHook{Name: name, Activity: act, Impulse: impulse}
	s.impulses[act.index] = append(s.impulses[act.index], h)
	s.impulsed |= 1 << act.index
	return h
}

// RunUntil fires every timed activity due at or before the horizon, in
// (due time, scheduling order) order, and leaves the clock at the horizon;
// later firings stay scheduled. Rate rewards are closed out exactly at
// the horizon.
func (s *Simulator) RunUntil(horizon float64) {
	for i := s.cal.next(); i >= 0 && s.cal.due[i] <= horizon; i = s.cal.next() {
		s.fireTimed(i)
	}
	if s.cal.now < horizon {
		s.cal.now = horizon
	}
	s.closeRates(horizon)
}

// Step fires the next scheduled activity (if any) and reports whether one
// fired.
func (s *Simulator) Step() bool {
	i := s.cal.next()
	if i < 0 {
		return false
	}
	s.fireTimed(i)
	return true
}

// fireTimed fires timed activity i, the calendar's next slot, and settles
// the net; i < 0 fires nothing and only settles, which is Reset's initial
// settle. FullScan runs the reference executor: fire, then settle.
//
// The incremental executor runs the whole firing here, in one function,
// because at a few tens of nanoseconds per firing the calls between its
// steps were a large share of it:
//
//  1. pop the firing and accrue the rate rewards whose rate is on;
//  2. apply the output gate (a Shift gate's deltas directly), run the
//     impulse hooks, refresh the rate rewards the firing changed and notify
//     the observers, as fire does;
//  3. when an instantaneous activity may be enabled, absorb the changed
//     instantaneous gates and fire the highest-priority enabled one (fire)
//     until none is;
//  4. reconcile the timed activities in the dirty closure — the watchers of
//     every place the firing chain changed — plus the one that fired, whose
//     schedule changed without any place needing to. Walking the closure
//     from its lowest bit is creation order, which keeps the delay-sampling
//     order, and so the random stream, identical to the full scan.
func (s *Simulator) fireTimed(i int) {
	if s.FullScan {
		if i >= 0 {
			s.cal.pop(i)
			s.fire(s.model.activities[i])
		}
		s.settle()
		return
	}
	m, c, acts := s.marking, &s.cal, s.model.activities
	var set uint64 // the timed activities to reconcile besides the closure
	if i >= 0 {
		c.pop(i)
		now, a, bit := c.now, acts[i], uint64(1)<<i
		set = bit
		s.accrueRates(now)
		m.refresh = 0
		if s.shifts&bit != 0 {
			s.shift(a)
		} else {
			a.Output.Apply(m)
		}
		if s.impulsed&bit != 0 {
			for _, h := range s.impulses[i] {
				h.total += h.Impulse(m)
				h.count++
			}
		}
		for on := m.refresh; on != 0; on &= on - 1 {
			ri := bits.TrailingZeros64(on)
			r := s.rates[ri]
			if r.indicator {
				r.lastRate = r.indicated(m.present)
			} else {
				r.lastRate = r.Rate(m)
			}
			r.lastTime = now
			if r.lastRate != 0 {
				s.rateOn |= 1 << ri
			} else {
				s.rateOn &^= 1 << ri
			}
		}
		if s.observed {
			s.observe(now, a)
		}
	}
	if m.unabsorbed|s.instOn != 0 {
		for chain := 0; ; chain++ {
			if chain > s.MaxInstantChain {
				panic(fmt.Sprintf("san: instantaneous livelock in model %s", s.model.Name))
			}
			for u := m.unabsorbed; u != 0; u &= u - 1 {
				ai := bits.TrailingZeros64(u)
				if s.gate(acts[ai]) {
					s.instOn |= 1 << ai
				} else {
					s.instOn &^= 1 << ai
				}
			}
			m.unabsorbed = 0
			var best *Activity
			for on := s.instOn; on != 0; on &= on - 1 {
				if a := acts[bits.TrailingZeros64(on)]; best == nil || a.Priority > best.Priority {
					best = a
				}
			}
			if best == nil {
				break
			}
			s.fire(best)
		}
	}
	set |= m.reconcile
	closure, now := set, c.now
	var reactivations uint64
	for ; set != 0; set &= set - 1 {
		ai := bits.TrailingZeros64(set)
		a, bit := acts[ai], uint64(1)<<ai
		on, was := s.gate(a), c.pend&bit != 0
		switch {
		case !on && was:
			c.pend &^= bit
			c.cancelled++
			continue
		case on && was && a.react&m.dirty != 0:
			c.pend &^= bit
			c.cancelled++
			reactivations++
		case !on || was:
			continue
		}
		d := a.Delay(m, s.src)
		if d < 0 || math.IsNaN(d) {
			panic(fmt.Sprintf("san: activity %q sampled invalid delay %v", a.Name, d))
		}
		c.schedule(ai, now+d)
	}
	m.dirty, m.reconcile, m.unabsorbed = 0, 0, 0
	if st := s.stats; st != nil {
		if i >= 0 {
			st.timedFirings.Inc()
		}
		sampled := st.sampleTick&statsSampleMask == 0
		if sampled {
			st.closureInc.Observe(float64(bits.OnesCount64(closure)))
		}
		st.reactivations.Add(reactivations)
		st.settles.Inc()
		if sampled {
			st.queueDepth.Observe(float64(c.pending()))
		}
		st.sampleTick++
	}
}

// gate evaluates a's input gate for the incremental executor: one AND
// against the presence word for a compiled AllOf gate, the Cond closure
// otherwise. The full scan always calls Cond, so the differential tests
// check every compiled mask against its closure.
func (s *Simulator) gate(a *Activity) bool {
	if a.compiled {
		return s.marking.present&a.required == a.required
	}
	return a.Input.Cond(s.marking)
}

// settle is FullScan's post-firing fixed point: fire enabled instantaneous
// activities (highest priority first) until none are enabled, then
// reconcile every timed activity's schedule with the new marking. It keeps
// the incremental caches coherent, so the mode may change between runs.
func (s *Simulator) settle() {
	for chain := 0; ; chain++ {
		if chain > s.MaxInstantChain {
			panic(fmt.Sprintf("san: instantaneous livelock in model %s", s.model.Name))
		}
		a := s.nextInstantFull()
		if a == nil {
			break
		}
		s.fire(a)
	}
	s.reconcileTimedFull()
	m := s.marking
	m.dirty, m.reconcile, m.unabsorbed = 0, 0, 0
	if st := s.stats; st != nil {
		st.settles.Inc()
		if st.sampleTick&statsSampleMask == 0 {
			st.queueDepth.Observe(float64(s.cal.pending()))
		}
		st.sampleTick++
	}
}

// nextInstantFull scans every instantaneous activity, refreshing the
// enabling cache as it goes, and returns the highest-priority enabled one
// (ties break by creation order for determinism), or nil.
func (s *Simulator) nextInstantFull() *Activity {
	var best *Activity
	for set := s.model.deps.instants; set != 0; set &= set - 1 {
		ai := bits.TrailingZeros64(set)
		a := s.model.activities[ai]
		if !a.Input.Cond(s.marking) {
			s.instOn &^= 1 << ai
			continue
		}
		s.instOn |= 1 << ai
		if best == nil || a.Priority > best.Priority {
			best = a
		}
	}
	return best
}

// reconcileTimedFull cancels newly-disabled timed activities, schedules
// newly-enabled ones, and resamples activities whose reactivation places
// changed — scanning every timed activity (the historic scheduler).
func (s *Simulator) reconcileTimedFull() {
	timed := s.model.deps.timed
	if st := s.stats; st != nil && st.sampleTick&statsSampleMask == 0 {
		st.closureFull.Observe(float64(bits.OnesCount64(timed)))
	}
	for ; timed != 0; timed &= timed - 1 {
		a := s.model.activities[bits.TrailingZeros64(timed)]
		s.reconcileOne(a, a.Input.Cond(s.marking))
	}
}

// reconcileOne applies FullScan's schedule/cancel/resample decision for one
// timed activity whose input gate now evaluates to on.
func (s *Simulator) reconcileOne(a *Activity, on bool) {
	was := s.cal.scheduledAt(a.index)
	switch {
	case on && !was:
		s.schedule(a)
	case !on && was:
		s.cal.cancel(a.index)
	case on && was && a.react&s.marking.dirty != 0:
		s.cal.cancel(a.index)
		s.schedule(a)
		if st := s.stats; st != nil {
			st.reactivations.Inc()
		}
	}
}

// schedule samples a delay for a and puts its firing on the calendar.
func (s *Simulator) schedule(a *Activity) {
	d := a.Delay(s.marking, s.src)
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("san: activity %q sampled invalid delay %v", a.Name, d))
	}
	s.cal.schedule(a.index, s.cal.now+d)
}

// fire applies a's effect, accrues rewards and notifies the observers. It
// fires every activity under FullScan and the instantaneous ones under the
// incremental executor, whose timed firings run in fireTimed. The
// incremental executor applies a compiled Shift gate itself; FullScan, and
// every other gate, calls Apply.
func (s *Simulator) fire(a *Activity) {
	now := s.cal.now
	if st := s.stats; st != nil {
		if a.Kind == Timed {
			st.timedFirings.Inc()
		} else {
			st.instFirings.Inc()
		}
	}
	s.accrueRates(now)
	s.marking.refresh = 0
	if a.shifted != 0 && !s.FullScan {
		s.shift(a)
	} else {
		a.Output.Apply(s.marking)
	}
	if s.impulsed&(1<<a.index) != 0 {
		for _, h := range s.impulses[a.index] {
			h.total += h.Impulse(s.marking)
			h.count++
		}
	}
	if s.FullScan {
		s.refreshRatesFull(now)
	} else {
		s.refreshRatesDirty(now)
	}
	if s.observed {
		s.observe(now, a)
	}
}

// shift applies a's Shift gate as Apply would: each delta in order, with
// Set's panic on a negative count. Every delta changes its place, so the
// dirty words gain exactly the places and the closure Set would add.
func (s *Simulator) shift(a *Activity) {
	m := s.marking
	for _, d := range a.Output.shift {
		i := d.place.index
		n := m.tokens[i] + d.n
		if n < 0 {
			panic(fmt.Sprintf("san: place %q set to negative count %d", d.place.Name, n))
		}
		m.tokens[i] = n
		if n > 0 {
			m.present |= 1 << i
		} else {
			m.present &^= 1 << i
		}
	}
	w := &s.shiftWatch[a.index]
	m.dirty |= a.shifted
	m.reconcile |= w.timed
	m.unabsorbed |= w.inst
	m.refresh |= w.rates
}

// observe checks the invariants and notifies the trace and the firing
// hooks after a fired.
func (s *Simulator) observe(now float64, a *Activity) {
	for _, inv := range s.invariants {
		if err := inv.Check(s.marking); err != nil {
			panic(fmt.Sprintf("san: invariant %q violated after %s at t=%v: %v (marking: %s)",
				inv.Name, a.Name, now, err, s.DescribeMarking()))
		}
	}
	if s.trace != nil {
		s.trace(now, a, s.marking)
	}
	for _, h := range s.hooks {
		h(now, a, s.marking)
	}
}

// accrueRates integrates the rate rewards up to time t with the
// pre-firing rate, in both modes. A non-zero rate is accrued at every
// firing: splitting or merging its steps would change the floating-point
// sums and break bit-identity with the full scan. A zero rate is skipped,
// which is exact — adding 0·dt leaves an integral unchanged — except at an
// infinite clock, where 0·(+Inf) is NaN; there every reward is accrued.
func (s *Simulator) accrueRates(t float64) {
	set := s.rateOn
	if math.IsInf(t, 1) {
		set = 1<<len(s.rates) - 1 // len ≤ MaxSize; the shift wraps to all ones at 64
	}
	for ; set != 0; set &= set - 1 {
		r := s.rates[bits.TrailingZeros64(set)]
		r.integral += r.lastRate * (t - r.lastTime)
		r.lastTime = t
	}
}

// refreshRate re-evaluates rate reward i against the current marking at
// time t and keeps its rateOn bit in step with the new rate. The
// incremental scheduler tests a compiled indicator's masks against the
// presence word; FullScan, and every other reward, calls the Rate closure.
func (s *Simulator) refreshRate(i int, t float64) {
	r := s.rates[i]
	if r.indicator && !s.FullScan {
		r.lastRate = r.indicated(s.marking.present)
	} else {
		r.lastRate = r.Rate(s.marking)
	}
	r.lastTime = t
	if r.lastRate != 0 {
		s.rateOn |= 1 << i
	} else {
		s.rateOn &^= 1 << i
	}
}

// refreshRatesFull re-evaluates every rate against the post-firing marking.
func (s *Simulator) refreshRatesFull(t float64) {
	for i := range s.rates {
		s.refreshRate(i, t)
	}
}

// refreshRatesDirty re-evaluates only the rates whose declared reads
// include a place changed by this firing, plus the undeclared ones, each
// once; the marking collected them as it changed. A skipped rate would
// have re-evaluated to the same value, so the accrued integrals stay
// bit-identical to the full scan.
func (s *Simulator) refreshRatesDirty(t float64) {
	for set := s.marking.refresh; set != 0; set &= set - 1 {
		s.refreshRate(bits.TrailingZeros64(set), t)
	}
}

// closeRates integrates rates up to the horizon.
func (s *Simulator) closeRates(t float64) {
	for _, r := range s.rates {
		if t > r.lastTime {
			r.integral += r.lastRate * (t - r.lastTime)
			r.lastTime = t
		}
	}
}

// CurrentMarking exposes the live marking for read-only observation —
// firing hooks and phase extractors read individual places from it without
// paying for a map snapshot. Mutating it corrupts the simulation.
func (s *Simulator) CurrentMarking() *Marking { return s.marking }

// Snapshot returns a copy of the token counts keyed by place name, for
// tests and debugging.
func (s *Simulator) Snapshot() map[string]int {
	out := make(map[string]int, len(s.model.places))
	for _, p := range s.model.places {
		out[p.Name] = s.marking.Get(p)
	}
	return out
}

// DescribeMarking renders the non-empty places sorted by name — handy in
// panic messages and traces.
func (s *Simulator) DescribeMarking() string {
	type pv struct {
		name string
		n    int
	}
	var list []pv
	for _, p := range s.model.places {
		if n := s.marking.Get(p); n > 0 {
			list = append(list, pv{p.Name, n})
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	out := ""
	for i, e := range list {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", e.name, e.n)
	}
	return out
}
