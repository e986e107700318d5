package des

import (
	"math"
	"strings"
	"testing"
)

// TestScheduleAfterRejectsBadDelay pins the delay-specific panics: a
// negative or NaN delay is an upstream sampling bug and must be reported as
// such, not as a confusing absolute-time error from Schedule.
func TestScheduleAfterRejectsBadDelay(t *testing.T) {
	for name, delay := range map[string]float64{
		"negative": -1.5,
		"nan":      math.NaN(),
	} {
		t.Run(name, func(t *testing.T) {
			e := New()
			e.Schedule(10, "advance", func(*Engine) {})
			e.Run() // now = 10, so -1.5 would land at 8.5 — in the past
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("bad delay did not panic")
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "delay") {
					t.Fatalf("panic %v does not mention the delay", r)
				}
			}()
			e.ScheduleAfter(delay, "bad", func(*Engine) {})
		})
	}
}

// TestEventPoolRecycles pins the free-list mechanics: fired and cancelled
// events return to the pool and the next Schedule reuses them instead of
// allocating.
func TestEventPoolRecycles(t *testing.T) {
	e := New()
	a := e.Schedule(1, "a", func(*Engine) {})
	e.Cancel(a)
	if e.PoolSize() != 1 {
		t.Fatalf("pool size after cancel = %d, want 1", e.PoolSize())
	}
	b := e.Schedule(2, "b", func(*Engine) {})
	if e.PoolSize() != 0 {
		t.Fatalf("pool size after reuse = %d, want 0", e.PoolSize())
	}
	if e.PoolHits() != 1 || e.PoolMisses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", e.PoolHits(), e.PoolMisses())
	}
	e.Run()
	if e.PoolSize() != 1 {
		t.Fatalf("pool size after fire = %d, want 1", e.PoolSize())
	}
	if !b.Fired() {
		t.Fatal("pooled event does not report Fired before reuse")
	}
}

// TestStaleHandleIsInert is the generation-counter contract: once the pool
// recycles an event into a new occurrence, old handles to it must read as
// recycled and Cancel through them must not touch the new occupant — the
// exact hazard for a caller that holds handles across firings.
func TestStaleHandleIsInert(t *testing.T) {
	e := New()
	old := e.Schedule(1, "old", func(*Engine) {})
	e.Cancel(old)

	reusedFired := false
	reused := e.Schedule(2, "reused", func(*Engine) { reusedFired = true })
	if old.Pending() || old.Fired() || old.Cancelled() {
		t.Fatal("stale handle leaks the new occupant's state")
	}
	if !old.Recycled() {
		t.Fatal("stale handle does not report Recycled")
	}
	if !math.IsNaN(old.Time()) {
		t.Fatalf("stale handle Time = %v, want NaN", old.Time())
	}

	// The critical case: cancelling through the stale handle must not
	// cancel the recycled event.
	e.Cancel(old)
	if !reused.Pending() {
		t.Fatal("Cancel through a stale handle cancelled the recycled event")
	}
	e.Run()
	if !reusedFired {
		t.Fatal("recycled event did not fire")
	}
	if (Handle{}).Recycled() {
		t.Fatal("zero handle reports Recycled")
	}
}

// TestEngineReset pins that Reset rewinds clock, sequence numbers and
// telemetry while keeping the pool, and that a run on a reset engine fires
// in exactly the order a fresh engine would (seq restart ⇒ identical FIFO
// tie-breaking).
func TestEngineReset(t *testing.T) {
	run := func(e *Engine) []int {
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			e.Schedule(float64(i%3), "ev", func(*Engine) { order = append(order, i) })
		}
		e.Schedule(5, "late", func(*Engine) {})
		e.RunUntil(4) // "late" is still pending at Reset time
		return order
	}

	e := New()
	first := run(e)
	if e.Pending() != 1 {
		t.Fatalf("pending before reset = %d, want 1", e.Pending())
	}
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 || e.Scheduled() != 0 || e.Cancelled() != 0 || e.MaxPending() != 0 {
		t.Fatalf("reset left state behind: now=%v pending=%d fired=%d scheduled=%d cancelled=%d maxPending=%d",
			e.Now(), e.Pending(), e.Fired(), e.Scheduled(), e.Cancelled(), e.MaxPending())
	}
	if e.PoolSize() != 9 {
		t.Fatalf("pool size after reset = %d, want 9 (8 fired + 1 pending discarded)", e.PoolSize())
	}

	second := run(e)
	if len(first) != len(second) {
		t.Fatalf("runs fired different counts: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("firing order diverged after Reset: %v vs %v", first, second)
		}
	}
	if e.PoolMisses() != 0 {
		t.Fatalf("second run allocated %d events despite a warm pool", e.PoolMisses())
	}
}

var noopHandler = func(*Engine) {}

// TestScheduleFireZeroAlloc is the allocation-regression gate for the event
// loop: a warmed engine must schedule and fire an event without touching
// the heap.
func TestScheduleFireZeroAlloc(t *testing.T) {
	e := New()
	for i := 0; i < 64; i++ { // warm the pool and the queue storage
		e.ScheduleAfter(1, "warm", noopHandler)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleAfter(1, "hot", noopHandler)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocates %.1f objects/event, want 0", allocs)
	}
}

// TestCancelZeroAlloc extends the gate to the cancel path.
func TestCancelZeroAlloc(t *testing.T) {
	e := New()
	for i := 0; i < 64; i++ {
		e.ScheduleAfter(1, "warm", noopHandler)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		h := e.ScheduleAfter(1, "hot", noopHandler)
		e.Cancel(h)
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %.1f objects/event, want 0", allocs)
	}
}
