// Package des implements a general discrete-event simulation core: a
// simulation clock and a cancellable future-event list with deterministic
// tie-breaking. The message-level protocol simulator (internal/protocol)
// schedules closures here. The SAN executor (internal/san) does not: a
// timed activity has at most one pending firing, so it keeps a slot-per-
// activity calendar of its own, with the same (time, scheduling order)
// firing order and the same counters.
//
// The engine owns an intrusive free-list event pool: events that fire or are
// cancelled return to the pool and are recycled by the next Schedule, so a
// warmed engine allocates nothing per event (pinned by TestScheduleFireZeroAlloc).
// Callers therefore never hold *Event directly — Schedule returns a
// generation-stamped Handle that detects recycling, and Engine.Reset rewinds
// the clock and counters while keeping the queue storage and pool, so one
// engine survives across replications.
package des

import (
	"fmt"
	"math"
)

// Handler is the code executed when an event fires. It receives the engine
// so it can schedule further events.
type Handler func(e *Engine)

// Event is a scheduled occurrence. Events are owned by the engine's pool and
// recycled after they fire or are cancelled; callers refer to them through
// the generation-stamped Handle returned by Schedule.
type Event struct {
	Time    float64
	Name    string
	handler Handler
	seq     uint64 // FIFO tie-break for simultaneous events
	index   int    // heap index; -1 when not queued
	gen     uint64 // bumped on every reuse; stale Handles detect it
	state   eventState
}

// eventState distinguishes an event that ran from one that was removed:
// both leave the queue (index -1, handler nil), so a separate state is the
// only way Cancelled can answer truthfully.
type eventState uint8

const (
	eventPending eventState = iota
	eventFired
	eventCancelled
)

// Handle is a caller's reference to a scheduled event. It is a value type:
// copy it freely, compare against the zero Handle to test emptiness. A
// Handle remembers the generation of the event it was issued for, so once
// the pool recycles that event into a new occurrence the old handle turns
// inert — Cancel through it is a no-op and the state queries report it as
// recycled rather than leaking the new occupant's state. This is what lets
// a caller keep handles across firings without ever cancelling someone
// else's event.
type Handle struct {
	ev  *Event
	gen uint64
}

// live reports whether the handle still refers to the occurrence it was
// issued for (the pooled event has not been recycled since).
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// Pending reports whether the event is still scheduled.
func (h Handle) Pending() bool { return h.live() && h.ev.state == eventPending }

// Fired reports whether the event already executed. False once the pool has
// recycled the event into a new occurrence.
func (h Handle) Fired() bool { return h.live() && h.ev.state == eventFired }

// Cancelled reports whether the event was removed before firing. An event
// that already fired is not cancelled. False once the pool has recycled the
// event into a new occurrence.
func (h Handle) Cancelled() bool { return h.live() && h.ev.state == eventCancelled }

// Recycled reports whether the pool has reused this handle's event for a
// newer occurrence (the handle is stale). The zero Handle is not recycled —
// it never referred to anything.
func (h Handle) Recycled() bool { return h.ev != nil && h.ev.gen != h.gen }

// Time returns the scheduled time of the occurrence, or NaN for a zero or
// recycled handle.
func (h Handle) Time() float64 {
	if !h.live() {
		return math.NaN()
	}
	return h.ev.Time
}

// Engine is a sequential discrete-event simulator. The zero value is not
// usable; construct with New.
type Engine struct {
	now        float64
	queue      []*Event
	free       []*Event // pool of fired/cancelled events awaiting reuse
	nextSeq    uint64
	fired      uint64
	scheduled  uint64
	cancelled  uint64
	poolHits   uint64
	poolMisses uint64
	maxPending int
}

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Fired returns the number of events executed so far (useful for progress
// reporting and runaway detection in tests).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return len(e.queue) }

// Scheduled returns the number of events enqueued so far (fired, cancelled
// and still pending alike) — together with Cancelled and MaxPending it is
// the engine's contribution to the observability layer.
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// Cancelled returns the number of events removed before firing.
func (e *Engine) Cancelled() uint64 { return e.cancelled }

// MaxPending returns the high-water mark of the future-event list.
func (e *Engine) MaxPending() int { return e.maxPending }

// PoolSize returns the number of recycled events currently waiting in the
// free list.
func (e *Engine) PoolSize() int { return len(e.free) }

// PoolHits returns the number of Schedule calls served from the free list
// since the engine was created or Reset.
func (e *Engine) PoolHits() uint64 { return e.poolHits }

// PoolMisses returns the number of Schedule calls that had to allocate a
// fresh Event since the engine was created or Reset. A warmed engine in
// steady state reports zero new misses.
func (e *Engine) PoolMisses() uint64 { return e.poolMisses }

// Schedule enqueues handler to run at absolute time t. Scheduling in the
// past (t < Now) panics: it is always a model bug, and silently clamping
// would corrupt causality. Events at identical times fire in scheduling
// order.
func (e *Engine) Schedule(t float64, name string, handler Handler) Handle {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling %q at %v before now %v", name, t, e.now))
	}
	if math.IsNaN(t) {
		panic(fmt.Sprintf("des: scheduling %q at NaN", name))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.gen++
		ev.Time, ev.Name, ev.handler, ev.seq, ev.state = t, name, handler, e.nextSeq, eventPending
		e.poolHits++
	} else {
		ev = &Event{Time: t, Name: name, handler: handler, seq: e.nextSeq}
		e.poolMisses++
	}
	e.nextSeq++
	e.push(ev)
	e.scheduled++
	if len(e.queue) > e.maxPending {
		e.maxPending = len(e.queue)
	}
	return Handle{ev: ev, gen: ev.gen}
}

// ScheduleAfter enqueues handler to run delay time units from now. The delay
// must be finite-or-+Inf and non-negative: a negative or NaN delay is always
// an upstream sampling bug (a broken distribution, an uninitialised field),
// so it panics with the offending delay rather than letting it surface as a
// confusing absolute-time error from Schedule.
func (e *Engine) ScheduleAfter(delay float64, name string, handler Handler) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("des: scheduling %q after negative delay %v", name, delay))
	}
	if math.IsNaN(delay) {
		panic(fmt.Sprintf("des: scheduling %q after NaN delay", name))
	}
	return e.Schedule(e.now+delay, name, handler)
}

// Cancel removes a pending event. Cancelling through a zero handle, a stale
// (recycled) handle, or a handle whose event already fired or was already
// cancelled is a harmless no-op, which keeps caller bookkeeping simple.
func (e *Engine) Cancel(h Handle) {
	if !h.live() || h.ev.state != eventPending {
		return
	}
	ev := h.ev
	e.removeAt(ev.index)
	ev.handler = nil
	ev.state = eventCancelled
	e.cancelled++
	e.free = append(e.free, ev)
}

// Step fires the next event, advancing the clock, and reports whether an
// event was available. The fired event returns to the pool before its
// handler runs, so a handler that schedules immediately reuses the hottest
// event object.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.removeAt(0)
	e.now = ev.Time
	h := ev.handler
	ev.handler = nil
	ev.state = eventFired
	e.fired++
	e.free = append(e.free, ev)
	h(e)
	return true
}

// RunUntil executes events until the clock would pass horizon or the queue
// empties. The clock is left at min(horizon, last event time); events
// scheduled beyond the horizon remain queued.
func (e *Engine) RunUntil(horizon float64) {
	for len(e.queue) > 0 && e.queue[0].Time <= horizon {
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Reset rewinds the engine to the state New returns — clock at zero,
// sequence numbers restarted, telemetry counters cleared — while keeping
// the queue storage and the event pool, so an engine reused across
// replications reaches steady state with zero allocations. Pending events
// are discarded into the pool (their handles turn stale on reuse).
// Restarting seq at zero is what makes a replication on a recycled engine
// bit-identical to one on a fresh engine: FIFO tie-breaking depends on it.
func (e *Engine) Reset() {
	for i, ev := range e.queue {
		ev.index = -1
		ev.handler = nil
		ev.state = eventCancelled
		e.free = append(e.free, ev)
		e.queue[i] = nil
	}
	e.queue = e.queue[:0]
	e.now = 0
	e.nextSeq = 0
	e.fired, e.scheduled, e.cancelled = 0, 0, 0
	e.poolHits, e.poolMisses = 0, 0
	e.maxPending = 0
}

// The future-event list is a hand-rolled binary min-heap ordered by
// (Time, seq) with intrusive indices. container/heap would force an
// interface call per sift step and an allocation per Push via
// interface{} boxing; open-coding it keeps the hot loop monomorphic.

func (e *Engine) less(i, j int) bool {
	a, b := e.queue[i], e.queue[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	q := e.queue
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (e *Engine) push(ev *Event) {
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.siftUp(ev.index)
}

// removeAt unlinks the event at heap position i and restores the heap
// property; it is both Pop (i == 0) and arbitrary removal (Cancel).
func (e *Engine) removeAt(i int) *Event {
	n := len(e.queue) - 1
	ev := e.queue[i]
	if i != n {
		e.swap(i, n)
	}
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if i < n {
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
	ev.index = -1
	return ev
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

// siftDown reports whether the element moved, so removeAt knows to try
// sifting up instead (the swapped-in tail element may belong above i).
func (e *Engine) siftDown(i int) bool {
	n := len(e.queue)
	i0 := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		m := left
		if right := left + 1; right < n && e.less(right, left) {
			m = right
		}
		if !e.less(m, i) {
			break
		}
		e.swap(i, m)
		i = m
	}
	return i > i0
}
