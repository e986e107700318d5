package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/phasetrace"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// catalogConfig loads a scenario from the built-in catalog.
func catalogConfig(name string) (scenario.Scenario, cluster.Config, error) {
	sc, err := scenario.Builtin().Get(name)
	if err != nil {
		return sc, cluster.Config{}, err
	}
	cfg, err := sc.ClusterConfig()
	return sc, cfg, err
}

// bandCheck fails when a useful-work fraction leaves the scenario's
// catalog band.
func bandCheck(sc scenario.Scenario, frac float64) error {
	if sc.Expect == nil {
		return fmt.Errorf("scenario %s has no expected band", sc.Name)
	}
	if !(frac >= sc.Expect.UsefulFractionMin && frac <= sc.Expect.UsefulFractionMax) {
		return fmt.Errorf("useful-work fraction %v outside %s band [%v, %v]",
			frac, sc.Name, sc.Expect.UsefulFractionMin, sc.Expect.UsefulFractionMax)
	}
	return nil
}

// sameMetrics fails unless two trajectories' metrics agree bit for bit.
// %#v prints every float with the digits that round-trip it exactly.
func sameMetrics(what string, got, want model.Metrics) error {
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		return fmt.Errorf("%s: metrics differ:\n got  %s\n want %s", what, g, w)
	}
	return nil
}

func fractions(ms []model.Metrics) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m.UsefulWorkFraction
	}
	return out
}

// halfWidth is the 95 % Student-t half-width of the mean of xs.
func halfWidth(xs []float64) float64 {
	var a stats.Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	return a.CI(0.95).HalfWide
}

// instanceCache mirrors the runner's per-worker cache: one model instance
// per configuration, built on first use and recycled afterwards.
type instanceCache map[cluster.Config]*cached

type cached struct {
	in *model.Instance
	// peak sums the instance's event-pool misses. Misses rewind on every
	// recycle and occur only when the free list is empty, so the sum is the
	// most events the instance ever had pending at once.
	peak uint64
}

// leg is one trajectory run by the benchmark itself.
type leg struct {
	metrics   model.Metrics
	fired     uint64
	peak      uint64 // the instance's pending-event high-water mark so far
	draws     []uint64
	spanFrac  float64
	wall, sim time.Duration
}

// replicate runs one trajectory the way runner's replication loop does —
// cached instance recycled onto the seed, telemetry shard attached, optional
// per-purpose streams (crn) and phase recorder — with spans around each call
// into the model when tr is non-nil.
func replicate(tr *tracer, parent, lane int, cache instanceCache, cfg cluster.Config, seed uint64,
	warmup, measure float64, crn, phases bool, reg *obs.Registry) (leg, error) {
	start := time.Now()
	rs := tr.begin("replication", "runner", parent, lane)
	defer tr.end(rs)
	c, ok := cache[cfg]
	if !ok {
		s := tr.begin("model.New", "model", rs, lane)
		in, err := model.New(cfg, seed)
		tr.end(s)
		if err != nil {
			return leg{}, err
		}
		c = &cached{in: in}
		cache[cfg] = c
	}
	in := c.in
	if ok || crn {
		s := tr.begin("Instance.Recycle", "model", rs, lane)
		in.SetVR(false, crn)
		in.Recycle(seed)
		tr.end(s)
	}
	s := tr.begin("obs.attach", "obs", rs, lane)
	var sh *obs.Shard
	if reg != nil {
		sh = reg.NewShard()
		in.Instrument(sh)
	}
	var rec *phasetrace.Recorder
	if phases {
		rec = in.AttachPhases()
	}
	tr.end(s)
	s = tr.begin("Instance.RunSteadyState", "sim", rs, lane)
	t0 := time.Now()
	m, err := in.RunSteadyState(warmup, measure)
	out := leg{metrics: m, fired: in.Fired(), sim: time.Since(t0)}
	tr.end(s)
	if err != nil {
		return out, err
	}
	s = tr.begin("obs.flush", "obs", rs, lane)
	if sh != nil {
		in.FlushEngineStats()
		sh.Merge()
	}
	_, misses, _ := in.PoolStats()
	c.peak += misses
	out.peak = c.peak
	out.draws = in.DrawCounts()
	if rec != nil {
		out.spanFrac = rec.Finish(in.Now()).SplitRework().UsefulFraction(warmup, warmup+measure)
	}
	tr.end(s)
	out.wall = time.Since(start)
	return out, nil
}

// fanOut runs items 0..n-1 on `workers` goroutines (lanes 1..workers), each
// under a worker span, the whole under a dispatch span; it returns once
// every worker has finished. do receives its lane and the worker span id.
func fanOut(tr *tracer, parent, workers, n int, do func(lane, item, workerSpan int)) int {
	d := tr.begin("dispatch", "runner", parent, 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			ws := tr.begin("worker", "runner", d, lane)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				do(lane, i, ws)
			}
			tr.end(ws)
		}(w)
	}
	wg.Wait()
	tr.end(d)
	return d
}

// finite replaces values JSON cannot carry; they occur only when a job
// failed, and the failure is already counted.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
