// Package obs is the observability layer of the reproduction: a
// lightweight, allocation-conscious metrics registry shared by the
// simulator core (internal/san, internal/des), the execution engine
// (internal/exec), the estimation runner (internal/runner) and the CLIs.
//
// The registry holds four metric kinds — monotonic counters, gauges,
// fixed-bucket histograms and timers (histograms over seconds) — all safe
// for concurrent use through atomics, so a -debug-addr HTTP endpoint can
// read a consistent-enough snapshot while a run is in flight.
//
// Hot paths do not touch the registry directly. A simulation trajectory
// runs on one goroutine, so it records into a Shard: a per-worker view
// whose counters and histograms are plain (non-atomic) values, incremented
// without synchronization and folded into the registry once, when the
// trajectory ends (Shard.Merge). This keeps the deterministic parallel
// pool of internal/exec contention-free: replications never share a cache
// line. Shards merge in the order replications finish, which depends on
// worker count and scheduling. The merged counters, histogram counts,
// bucket counts, min and max do not (integer sums and extrema commute),
// and neither do the quantiles derived from them. A histogram's Sum (and
// Mean) can differ in the last bits, because float addition does not
// associate. Whatever must be byte-identical across runs — the run
// journal — records per-replication shard snapshots, not merged values.
//
// The package also provides the structured JSONL run journal
// (journal.go) and the live debug HTTP server (debug.go).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set assigns the gauge.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an instantaneous float64 value.
type FloatGauge struct{ bits atomic.Uint64 }

// Set assigns the gauge. Non-finite values are stored as-is but are
// clamped to 0 in snapshots, because JSON cannot represent them.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations in fixed buckets. Bucket i counts the
// observations x with x ≤ Bounds[i] (and > Bounds[i-1] for i > 0); one
// implicit overflow bucket counts x > Bounds[len-1]. The bucket layout is
// fixed at creation, so observing is lock-free: one atomic add into the
// bucket plus CAS loops for the float sum/min/max.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is overflow
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf until the first observation
	maxBits atomic.Uint64 // -Inf until the first observation
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex returns the bucket for x: the first i with x ≤ bounds[i],
// else len(bounds) (overflow). Bucket counts are small and fixed, so a
// linear scan beats binary search on the branch predictor.
func bucketIndex(bounds []float64, x float64) int {
	for i, b := range bounds {
		if x <= b {
			return i
		}
	}
	return len(bounds)
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	h.counts[bucketIndex(h.bounds, x)].Add(1)
	h.count.Add(1)
	casAdd(&h.sumBits, x)
	casMin(&h.minBits, x)
	casMax(&h.maxBits, x)
}

// observeBatch folds a pre-aggregated shard histogram in (see Shard.Merge).
func (h *Histogram) observeBatch(counts []uint64, count uint64, sum, min, max float64) {
	for i, n := range counts {
		if n > 0 {
			h.counts[i].Add(n)
		}
	}
	if count == 0 {
		return
	}
	h.count.Add(count)
	casAdd(&h.sumBits, sum)
	casMin(&h.minBits, min)
	casMax(&h.maxBits, max)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns a copy of the histogram state. Min/Max are 0 when the
// histogram is empty, so the snapshot is always JSON-marshalable.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.Count(),
		Sum:    h.Sum(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	s.fillQuantiles(h.bounds, s.Counts)
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram, shaped for
// JSON (journal records, /metricz).
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// P50/P90/P99 estimate the quantiles from the bucket counts by linear
	// interpolation within the owning bucket, clamped to [Min, Max]; exact
	// when the distribution is uniform within buckets, and always inside
	// the bucket that truly contains the quantile.
	P50    float64   `json:"p50"`
	P90    float64   `json:"p90"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"` // len(Bounds)+1; last is overflow
}

// fillQuantiles populates P50/P90/P99 from a bucket-count vector (which
// need not be retained in the snapshot itself — the shard form drops it).
func (s *HistogramSnapshot) fillQuantiles(bounds []float64, counts []uint64) {
	if s.Count == 0 {
		return
	}
	s.P50 = bucketQuantile(bounds, counts, s.Count, s.Min, s.Max, 0.50)
	s.P90 = bucketQuantile(bounds, counts, s.Count, s.Min, s.Max, 0.90)
	s.P99 = bucketQuantile(bounds, counts, s.Count, s.Min, s.Max, 0.99)
}

// bucketQuantile estimates the q-quantile of a fixed-bucket histogram: find
// the bucket holding the rank q·total, then interpolate linearly across it.
// The first bucket's lower edge and the overflow bucket's upper edge are
// unknown, so the observed min/max stand in; every estimate is clamped to
// [min, max], which also makes single-observation histograms exact.
func bucketQuantile(bounds []float64, counts []uint64, total uint64, min, max, q float64) float64 {
	rank := q * float64(total)
	cum := 0.0
	for i, n := range counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo := min
			if i > 0 && bounds[i-1] > lo {
				lo = bounds[i-1]
			}
			hi := max
			if i < len(bounds) && bounds[i] < hi {
				hi = bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*((rank-cum)/float64(n))
		}
		cum = next
	}
	return max
}

// Mean returns the snapshot's mean observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Timer is a histogram over durations in seconds.
type Timer struct{ h *Histogram }

// DefaultTimerBuckets spans 100µs to ~15min in decades — wide enough for
// per-event work on the fast end and paper-scale replications on the slow
// end.
var DefaultTimerBuckets = []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1000}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) { t.h.Observe(d.Seconds()) }

// Snapshot returns the underlying histogram snapshot (seconds).
func (t *Timer) Snapshot() HistogramSnapshot { return t.h.Snapshot() }

// LinearBuckets returns n ascending bounds start, start+width, …
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// ExpBuckets returns n ascending bounds start, start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; metric handles are get-or-create, so independent
// subsystems share a metric by agreeing on its name. Reusing a name with a
// different kind (or different histogram buckets) panics — it is always a
// programming error, and silently splitting the metric would corrupt both.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// lookup returns the existing metric under name after asserting its kind,
// or nil. The caller holds r.mu.
func lookup[T any](r *Registry, name, kind string) *T {
	m, ok := r.metrics[name]
	if !ok {
		return nil
	}
	t, ok := m.(*T)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T, not a %s", name, m, kind))
	}
	return t
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := lookup[Counter](r, name, "counter"); c != nil {
		return c
	}
	c := &Counter{}
	r.metrics[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := lookup[Gauge](r, name, "gauge"); g != nil {
		return g
	}
	g := &Gauge{}
	r.metrics[name] = g
	return g
}

// FloatGauge returns the float gauge registered under name, creating it if
// needed.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := lookup[FloatGauge](r, name, "float gauge"); g != nil {
		return g
	}
	g := &FloatGauge{}
	r.metrics[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket bounds if needed. Requesting an existing
// histogram with different bounds panics.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := lookup[Histogram](r, name, "histogram"); h != nil {
		if !equalBounds(h.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with bounds %v (has %v)", name, bounds, h.bounds))
		}
		return h
	}
	h := newHistogram(bounds)
	r.metrics[name] = h
	return h
}

// Timer returns the timer registered under name (buckets are
// DefaultTimerBuckets), creating it if needed.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := lookup[Timer](r, name, "timer"); t != nil {
		return t
	}
	t := &Timer{h: newHistogram(DefaultTimerBuckets)}
	r.metrics[name] = t
	return t
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Snapshot is a point-in-time copy of a whole registry, shaped for JSON.
type Snapshot struct {
	Counters    map[string]uint64            `json:"counters,omitempty"`
	Gauges      map[string]int64             `json:"gauges,omitempty"`
	FloatGauges map[string]float64           `json:"float_gauges,omitempty"`
	Histograms  map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Timers      map[string]HistogramSnapshot `json:"timers,omitempty"` // seconds
}

// Snapshot copies every metric. Counters and gauges are read atomically;
// histograms may be mid-update, so a snapshot taken during a run is
// consistent per-field, not across fields — fine for monitoring.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	metrics := make(map[string]any, len(r.metrics))
	for k, v := range r.metrics {
		metrics[k] = v
	}
	r.mu.Unlock()
	s := Snapshot{
		Counters:    map[string]uint64{},
		Gauges:      map[string]int64{},
		FloatGauges: map[string]float64{},
		Histograms:  map[string]HistogramSnapshot{},
		Timers:      map[string]HistogramSnapshot{},
	}
	for name, m := range metrics {
		switch m := m.(type) {
		case *Counter:
			s.Counters[name] = m.Value()
		case *Gauge:
			s.Gauges[name] = m.Value()
		case *FloatGauge:
			v := m.Value()
			if math.IsInf(v, 0) || math.IsNaN(v) {
				v = 0 // JSON cannot represent non-finite floats
			}
			s.FloatGauges[name] = v
		case *Histogram:
			s.Histograms[name] = m.Snapshot()
		case *Timer:
			s.Timers[name] = m.Snapshot()
		}
	}
	return s
}

// WriteTable renders a human-readable summary of every metric, sorted by
// name within each kind — the output of `ccsim -metrics`.
func (r *Registry) WriteTable(w io.Writer) error {
	s := r.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	if len(s.Counters) > 0 {
		p("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			p("  %-40s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		p("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			p("  %-40s %d\n", name, s.Gauges[name])
		}
	}
	if len(s.FloatGauges) > 0 {
		p("float gauges:\n")
		for _, name := range sortedKeys(s.FloatGauges) {
			p("  %-40s %g\n", name, s.FloatGauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		p("histograms:\n")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			p("  %-40s count=%d mean=%.4g min=%g p50=%.4g p99=%.4g max=%g\n", name, h.Count, h.Mean(), h.Min, h.P50, h.P99, h.Max)
		}
	}
	if len(s.Timers) > 0 {
		p("timers (seconds):\n")
		for _, name := range sortedKeys(s.Timers) {
			h := s.Timers[name]
			p("  %-40s count=%d mean=%.4gs min=%.4gs p50=%.4gs p99=%.4gs max=%.4gs\n", name, h.Count, h.Mean(), h.Min, h.P50, h.P99, h.Max)
		}
	}
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// casAdd atomically adds delta to the float64 stored in bits.
func casAdd(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// casMin atomically lowers the float64 stored in bits to x if x is smaller.
func casMin(bits *atomic.Uint64, x float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= x {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
}

// casMax atomically raises the float64 stored in bits to x if x is larger.
func casMax(bits *atomic.Uint64, x float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= x {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
}
