package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("Counter not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d, want 4", g.Value())
	}
	f := r.FloatGauge("f")
	f.Set(1.5)
	if f.Value() != 1.5 {
		t.Fatalf("float gauge = %v", f.Value())
	}
}

// TestHistogramBucketBoundaries pins the bucket semantics: bucket i counts
// x ≤ bounds[i] (and > bounds[i-1]), the last implicit bucket counts
// overflow, and values below the first bound land in bucket 0.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, x := range []float64{-3, 0, 1} { // ≤ 1 → bucket 0
		h.Observe(x)
	}
	h.Observe(1.5) // bucket 1
	h.Observe(2)   // boundary: still bucket 1 (≤ 2)
	h.Observe(4)   // bucket 2
	h.Observe(4.1) // overflow
	s := h.Snapshot()
	wantCounts := []uint64{3, 2, 1, 1}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d (snapshot %+v)", i, s.Counts[i], want, s)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Min != -3 || s.Max != 4.1 {
		t.Fatalf("min/max = %v/%v, want -3/4.1", s.Min, s.Max)
	}
	wantSum := -3 + 0 + 1 + 1.5 + 2 + 4 + 4.1
	if math.Abs(s.Sum-wantSum) > 1e-12 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	if math.Abs(s.Mean()-wantSum/7) > 1e-12 {
		t.Fatalf("mean = %v, want %v", s.Mean(), wantSum/7)
	}
}

func TestEmptyHistogramSnapshotIsFinite(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2})
	s := r.Snapshot()
	hs := s.Histograms["h"]
	if hs.Min != 0 || hs.Max != 0 || hs.Count != 0 {
		t.Fatalf("empty histogram snapshot %+v", hs)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(2, 3, 4)
	want := []float64{2, 5, 8, 11}
	for i := range want {
		if lin[i] != want[i] {
			t.Fatalf("LinearBuckets = %v", lin)
		}
	}
	exp := ExpBuckets(1, 2, 5)
	want = []float64{1, 2, 4, 8, 16}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind mismatch")
		}
	}()
	r.Gauge("x")
}

func TestHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bounds mismatch")
		}
	}()
	r.Histogram("h", []float64{1, 3})
}

// TestShardMerge checks that shard-local values fold into the registry and
// that the shard resets for reuse without double-counting.
func TestShardMerge(t *testing.T) {
	r := NewRegistry()
	sh := r.NewShard()
	c := sh.Counter("events")
	h := sh.Histogram("sizes", []float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)

	snap := sh.Snapshot()
	if snap["events"].(uint64) != 10 {
		t.Fatalf("shard snapshot events = %v", snap["events"])
	}
	hs := snap["sizes"].(HistogramSnapshot)
	if hs.Count != 3 || hs.Min != 1 || hs.Max != 9 || hs.Sum != 13 {
		t.Fatalf("shard snapshot sizes = %+v", hs)
	}

	sh.Merge()
	if got := r.Counter("events").Value(); got != 10 {
		t.Fatalf("merged counter = %d, want 10", got)
	}
	rh := r.Histogram("sizes", []float64{1, 2, 4}).Snapshot()
	if rh.Count != 3 || rh.Min != 1 || rh.Max != 9 {
		t.Fatalf("merged histogram = %+v", rh)
	}
	if rh.Counts[0] != 1 || rh.Counts[2] != 1 || rh.Counts[3] != 1 {
		t.Fatalf("merged buckets = %v", rh.Counts)
	}
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("shard not reset by Merge")
	}

	// Reuse after Merge: totals accumulate, min/max re-seed correctly.
	c.Add(5)
	h.Observe(2)
	sh.Merge()
	if got := r.Counter("events").Value(); got != 15 {
		t.Fatalf("counter after second merge = %d, want 15", got)
	}
	rh = r.Histogram("sizes", []float64{1, 2, 4}).Snapshot()
	if rh.Count != 4 || rh.Min != 1 || rh.Max != 9 {
		t.Fatalf("histogram after second merge = %+v", rh)
	}
}

// TestConcurrentShardsAndCounters exercises the contention model under
// -race: one shard per goroutine (plain increments) merging into shared
// atomics, plus direct registry updates from every goroutine.
func TestConcurrentShardsAndCounters(t *testing.T) {
	const workers, perWorker = 8, 10000
	r := NewRegistry()
	direct := r.Counter("direct")
	hist := r.Histogram("direct_hist", []float64{0.25, 0.5, 0.75})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := r.NewShard()
			c := sh.Counter("sharded")
			h := sh.Histogram("sharded_hist", []float64{10, 100})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
				direct.Inc()
				hist.Observe(float64(i%4) / 4)
			}
			sh.Merge()
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	if got := r.Counter("sharded").Value(); got != total {
		t.Fatalf("sharded total = %d, want %d", got, total)
	}
	if got := direct.Value(); got != total {
		t.Fatalf("direct total = %d, want %d", got, total)
	}
	if got := hist.Count(); got != total {
		t.Fatalf("direct histogram count = %d, want %d", got, total)
	}
	hs := r.Histogram("sharded_hist", []float64{10, 100}).Snapshot()
	if hs.Count != total || hs.Min != 0 || hs.Max != 199 {
		t.Fatalf("sharded histogram = %+v", hs)
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("wall")
	tm.Observe(250 * time.Millisecond)
	tm.Observe(time.Millisecond)
	s := tm.Snapshot()
	if s.Count != 2 {
		t.Fatalf("timer count = %d", s.Count)
	}
	if s.Max < 0.25 || s.Max > 0.3 {
		t.Fatalf("timer max = %v, want ≈0.25", s.Max)
	}
}

func TestWriteTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("g").Set(-1)
	r.Histogram("h", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"a.count", "b.count", "counters:", "gauges:", "histograms:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Fatalf("table not sorted:\n%s", out)
	}
}

func TestJournal(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if err := j.Record("alpha", map[string]any{"x": 1, "inf": math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("beta", nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rec["kind"] != "alpha" || rec["x"] != float64(1) {
		t.Fatalf("record = %v", rec)
	}
	if v, present := rec["inf"]; !present || v != nil {
		t.Fatalf("non-finite field not nulled: %v", rec)
	}
	if _, err := time.Parse(time.RFC3339Nano, rec["ts"].(string)); err != nil {
		t.Fatalf("bad ts: %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, &json.UnsupportedValueError{} }

func TestJournalStickyError(t *testing.T) {
	j := NewJournal(failWriter{})
	if err := j.Record("x", nil); err == nil {
		t.Fatal("no error from failing writer")
	}
	if j.Err() == nil {
		t.Fatal("error not sticky")
	}
}

func BenchmarkShardCounterInc(b *testing.B) {
	sh := NewRegistry().NewShard()
	c := sh.Counter("c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkShardHistogramObserve(b *testing.B) {
	sh := NewRegistry().NewShard()
	h := sh.Histogram("h", ExpBuckets(1, 2, 9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 255))
	}
}

func BenchmarkRegistryCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
