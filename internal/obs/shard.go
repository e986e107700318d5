package obs

import "math"

// Shard is a per-worker view of a registry: its counters and histograms
// are plain (non-atomic) values owned by one goroutine, so a simulation
// hot loop increments them without synchronization or cache-line sharing.
// Merge folds the accumulated values into the parent registry atomically
// and resets the shard for reuse.
//
// A Shard must not be used from more than one goroutine at a time; Merge
// and Snapshot are part of that single-goroutine contract.
type Shard struct {
	reg      *Registry
	byName   map[string]any
	counters []*LocalCounter
	hists    []*LocalHistogram
}

// NewShard returns an empty shard attached to r.
func (r *Registry) NewShard() *Shard {
	return &Shard{reg: r, byName: make(map[string]any)}
}

// LocalCounter is a shard-owned counter; Inc/Add are plain integer
// operations.
type LocalCounter struct {
	name string
	n    uint64
	dst  *Counter
}

// Inc adds one.
func (c *LocalCounter) Inc() { c.n++ }

// Add adds n.
func (c *LocalCounter) Add(n uint64) { c.n += n }

// Value returns the unmerged local count.
func (c *LocalCounter) Value() uint64 { return c.n }

// LocalHistogram is a shard-owned histogram with the same bucket layout as
// its registry counterpart.
type LocalHistogram struct {
	name   string
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
	dst    *Histogram
}

// Observe records one observation.
func (h *LocalHistogram) Observe(x float64) {
	h.counts[bucketIndex(h.bounds, x)]++
	if h.count == 0 {
		h.min, h.max = x, x
	} else {
		if x < h.min {
			h.min = x
		}
		if x > h.max {
			h.max = x
		}
	}
	h.count++
	h.sum += x
}

// Count returns the unmerged local observation count.
func (h *LocalHistogram) Count() uint64 { return h.count }

// Snapshot returns the local (unmerged) state as a summary without the
// bucket vectors — the compact per-replication form journal records embed.
// Quantiles are estimated from the local bucket counts before they are
// dropped, so the summary stays a pure function of the observations.
func (h *LocalHistogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	if h.count > 0 {
		s.Min, s.Max = h.min, h.max
	}
	s.fillQuantiles(h.bounds, h.counts)
	return s
}

// Counter returns the shard-local counter named name, creating it (and its
// registry counterpart) if needed.
func (sh *Shard) Counter(name string) *LocalCounter {
	if m, ok := sh.byName[name]; ok {
		if c, ok := m.(*LocalCounter); ok {
			return c
		}
		panic("obs: shard metric " + name + " is not a counter")
	}
	c := &LocalCounter{name: name, dst: sh.reg.Counter(name)}
	sh.byName[name] = c
	sh.counters = append(sh.counters, c)
	return c
}

// Histogram returns the shard-local histogram named name, creating it (and
// its registry counterpart, with the given bounds) if needed.
func (sh *Shard) Histogram(name string, bounds []float64) *LocalHistogram {
	if m, ok := sh.byName[name]; ok {
		if h, ok := m.(*LocalHistogram); ok {
			return h
		}
		panic("obs: shard metric " + name + " is not a histogram")
	}
	dst := sh.reg.Histogram(name, bounds)
	h := &LocalHistogram{
		name:   name,
		bounds: dst.bounds,
		counts: make([]uint64, len(dst.bounds)+1),
		dst:    dst,
	}
	sh.byName[name] = h
	sh.hists = append(sh.hists, h)
	return h
}

// Merge folds every local value into the parent registry and resets the
// shard to zero, so a reused shard never double-counts.
func (sh *Shard) Merge() {
	for _, c := range sh.counters {
		if c.n > 0 {
			c.dst.Add(c.n)
			c.n = 0
		}
	}
	for _, h := range sh.hists {
		h.dst.observeBatch(h.counts, h.count, h.sum, h.min, h.max)
		for i := range h.counts {
			h.counts[i] = 0
		}
		h.count, h.sum = 0, 0
		h.min, h.max = math.Inf(1), math.Inf(-1)
	}
}

// Snapshot returns the shard's unmerged values keyed by metric name —
// counters as uint64, histograms as summary HistogramSnapshots. The result
// is a pure function of the observations, so journal records built from it
// are deterministic. Call before Merge (which zeroes the shard).
func (sh *Shard) Snapshot() map[string]any {
	out := make(map[string]any, len(sh.byName))
	for _, c := range sh.counters {
		out[c.name] = c.n
	}
	for _, h := range sh.hists {
		out[h.name] = h.Snapshot()
	}
	return out
}
