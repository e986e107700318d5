package san

import "math/bits"

// calendar is the executor's future-event list. A timed activity has at
// most one pending firing, so the list is one slot per activity: slot i
// holds the due time and schedule sequence number of activity i, and bit i
// of pend says whether the slot is scheduled. The next firing is the
// lowest (due, seq) among the pending slots — the pair a heap ordered by
// time with FIFO tie-breaking would pop — so simultaneous firings fire in
// scheduling order. A net has at most MaxSize activities and only a few
// pending at once (six on the paper's base model), so one pass over the
// pending word finds the minimum without a heap, event objects or
// handler closures.
//
// The counters mirror a pooled event engine's telemetry. A schedule that
// raises the pending high-water mark since construction counts as a pool
// miss — the moment a pooled engine has no recycled event to hand out —
// and every other schedule as a hit; the pool size is the high-water mark
// minus the slots pending.
type calendar struct {
	now     float64
	due     []float64 // activity index → due time of its pending firing
	seq     []uint64  // activity index → sequence number of that scheduling
	pend    uint64    // activities with a pending firing
	nextSeq uint64

	fired, scheduled, cancelled uint64
	hits, misses                uint64
	highWater                   int // most slots pending at once since construction
}

// newCalendar returns an empty calendar for n activities.
func newCalendar(n int) calendar {
	return calendar{due: make([]float64, n), seq: make([]uint64, n)}
}

// reset empties the calendar and rewinds the clock, the sequence numbers
// and the counters. The high-water mark survives, as a pool's events do.
func (c *calendar) reset() {
	c.now, c.pend, c.nextSeq = 0, 0, 0
	c.fired, c.scheduled, c.cancelled = 0, 0, 0
	c.hits, c.misses = 0, 0
}

// poolStats returns the pool hits, pool misses and pool size.
func (c *calendar) poolStats() (hits, misses uint64, size int) {
	return c.hits, c.misses, c.highWater - c.pending()
}

// pending returns the number of scheduled slots.
func (c *calendar) pending() int { return bits.OnesCount64(c.pend) }

// scheduledAt reports whether slot i has a pending firing.
func (c *calendar) scheduledAt(i int) bool { return c.pend&(1<<i) != 0 }

// schedule makes slot i, which must not be pending, fire at t, behind
// every slot already due at t.
func (c *calendar) schedule(i int, t float64) {
	c.due[i], c.seq[i] = t, c.nextSeq
	c.nextSeq++
	c.pend |= 1 << i
	c.scheduled++
	if n := c.pending(); n > c.highWater {
		c.highWater = n
		c.misses++
	} else {
		c.hits++
	}
}

// cancel removes slot i's pending firing; a slot with none is left alone.
func (c *calendar) cancel(i int) {
	if c.scheduledAt(i) {
		c.pend &^= 1 << i
		c.cancelled++
	}
}

// next returns the slot that fires next, or -1 when none is pending.
func (c *calendar) next() int {
	set := c.pend
	if set == 0 {
		return -1
	}
	best := bits.TrailingZeros64(set)
	due, seq := c.due[best], c.seq[best]
	for set &= set - 1; set != 0; set &= set - 1 {
		i := bits.TrailingZeros64(set)
		if d := c.due[i]; d < due || d == due && c.seq[i] < seq {
			best, due, seq = i, d, c.seq[i]
		}
	}
	return best
}

// pop removes slot i — the one next returned — and advances the clock to
// its due time.
func (c *calendar) pop(i int) {
	c.now = c.due[i]
	c.pend &^= 1 << i
	c.fired++
}
