package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// compareCorrelated is runner.Compare at the paper's windows between the
// catalog's error-propagation scenario (A) and the same model with a
// 60-minute checkpoint interval (B), with the CRN sync audit, span
// verification, a metrics registry and an in-memory journal attached. The
// layers are the estimate's, used differently: correlated windows drive
// instantaneous cascades through san settle, per-purpose CRN streams
// multiply the rng streams, and phase hooks and registry shards run on every
// event.
var compareCorrelated = workload{
	name: "compare-correlated",
	full: size{reps: 10, warmup: 1000, measure: 4000, jobSecs: 1.8},
	tiny: size{reps: 4, warmup: 50, measure: 200, jobSecs: 1},
	job:  compareJob,
}

// compareConfigs returns the error-propagation scenario (A) and its
// 60-minute-interval variant (B).
func compareConfigs() (sc scenario.Scenario, a, b cluster.Config, err error) {
	sc, a, err = catalogConfig("error-propagation")
	b = a
	b.CheckpointInterval = cluster.Minutes(60)
	return sc, a, b, err
}

func compareOptions(e *env, seed uint64, reps int) runner.Options {
	return runner.Options{
		Replications: reps, Warmup: e.size.warmup, Measure: e.size.measure, Seed: seed, Workers: e.workers,
		SyncReport: true, VerifySpans: true,
	}
}

func compareJob(e *env, seed uint64, tr *tracer) (job, error) {
	sz := e.size
	t0 := e.setupStart()
	sc, a, b, err := compareConfigs()
	if err != nil {
		return job{}, err
	}
	// Planned as runner.Compare plans it: two cells on one root seed.
	plan, err := planCompare(a, b, seed, sz)
	if err != nil {
		return job{}, err
	}
	if _, err := model.New(a, plan.Blocks[0].Seeds[0]); err != nil {
		return job{}, err
	}
	reg := obs.NewRegistry()
	var journal bytes.Buffer
	opts := compareOptions(e, seed, sz.reps)
	opts.Metrics, opts.Journal = reg, obs.NewJournal(&journal)
	j := job{setup: time.Since(t0)}
	cpu0, _ := rusage()
	start := time.Now()
	comp, err := runner.Compare(a, b, opts)
	if err != nil {
		e.count(sz.reps, sz.reps)
		fmt.Fprintln(e.log, "compare failed:", err)
		return j, nil
	}
	e.count(sz.reps, 0)
	e.check("compare-band-A", bandCheck(sc, comp.A.UsefulWorkFraction.Mean))
	e.check("compare-band-B", bandCheck(sc, comp.B.UsefulWorkFraction.Mean))
	e.check("compare-sync", syncCheck(comp, sz.reps))
	j.wall = time.Since(start)
	cpu1, _ := rusage()
	j.cpu, j.rssMB = cpu1-cpu0, peakRSSMB()
	j.events = reg.Counter("runner.events").Value()
	j.series = [][]float64{pairDiffs(comp)}

	// Outside the timed window: the span cross-check on the first pair.
	e.check("compare-spans", spanCheck(e, a, b, seed, comp))
	if tr != nil {
		return j, traceCompare(e, tr, a, b, seed, comp, j, journal.Len())
	}
	return j, nil
}

func planCompare(a, b cluster.Config, seed uint64, sz size) (*blocks.Manifest, error) {
	return blocks.Plan([]blocks.Cell{
		{Label: "A", Seed: seed, Replications: sz.reps, Config: a},
		{Label: "B", Seed: seed, Replications: sz.reps, Config: b},
	}, blocks.PlanOptions{Name: "compare", Warmup: sz.warmup, Measure: sz.measure, Confidence: 0.95, BlockSize: sz.reps})
}

func pairDiffs(c runner.Comparison) []float64 {
	out := make([]float64, len(c.A.PerReplication))
	for i := range out {
		out[i] = c.B.PerReplication[i].UsefulWorkFraction - c.A.PerReplication[i].UsefulWorkFraction
	}
	return out
}

func syncCheck(c runner.Comparison, pairs int) error {
	switch {
	case c.Sync == nil:
		return fmt.Errorf("no sync report")
	case c.Sync.Pairs != pairs:
		return fmt.Errorf("sync report covers %d pairs, want %d", c.Sync.Pairs, pairs)
	case len(c.A.PerReplication) != pairs || len(c.B.PerReplication) != pairs:
		return fmt.Errorf("%d/%d replications, want %d", len(c.A.PerReplication), len(c.B.PerReplication), pairs)
	}
	return nil
}

// spanCheck runs the first pair's legs through runner.Estimate with the
// same options — Compare plans the same seeds, so the trajectories are the
// same — to obtain its SpanCheck: the span-derived useful work must agree
// with the reward-based one within the leg's half-width, and the
// trajectories must reproduce the comparison's bit for bit.
func spanCheck(e *env, a, b cluster.Config, seed uint64, comp runner.Comparison) error {
	const n = 1
	for _, l := range []struct {
		name string
		cfg  cluster.Config
		res  runner.Result
	}{{"A", a, comp.A}, {"B", b, comp.B}} {
		res, err := runner.Estimate(l.cfg, compareOptions(e, seed, n))
		if err != nil {
			return err
		}
		sc := res.SpanCheck
		if sc == nil {
			return fmt.Errorf("leg %s: no span check", l.name)
		}
		tol := math.Max(l.res.UsefulWorkFraction.HalfWide, 1e-9)
		if !sc.Within || sc.MaxDelta > tol {
			return fmt.Errorf("leg %s: span and reward useful work differ by %v (tolerance %v)", l.name, sc.MaxDelta, tol)
		}
		for r := 0; r < n && r < len(l.res.PerReplication); r++ {
			if err := sameMetrics(fmt.Sprintf("leg %s pair %d", l.name, r), res.PerReplication[r], l.res.PerReplication[r]); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceCompare is the traced pass: every pair re-driven by the benchmark's
// workers with per-purpose streams, a telemetry shard and a phase recorder
// on each leg, as runner.Compare runs them, with spans around every model
// call. Both legs must reproduce the comparison bit for bit.
func traceCompare(e *env, tr *tracer, a, b cluster.Config, seed uint64, comp runner.Comparison, untimed job, journalBytes int) error {
	L, sz := e.layers, e.size
	root := tr.begin("compare-correlated", "bench", 0, 0)
	p := tr.begin("blocks.Plan", "runner", root, 0)
	plan, err := planCompare(a, b, seed, sz)
	tr.end(p)
	if err != nil {
		return err
	}
	seeds := plan.Blocks[0].Seeds
	reg := obs.NewRegistry()
	legs := make([]leg, 2*len(seeds))
	errs := make([]error, 2*len(seeds))
	caches := make([]instanceCache, e.workers+1)
	for i := range caches {
		caches[i] = instanceCache{}
	}
	d := fanOut(tr, root, e.workers, len(seeds), func(lane, r, ws int) {
		ps := tr.begin("pair", "runner", ws, lane)
		for k, cfg := range []cluster.Config{a, b} {
			legs[2*r+k], errs[2*r+k] = replicate(tr, ps, lane, caches[lane], cfg, seeds[r], sz.warmup, sz.measure, true, true, reg)
		}
		tr.end(ps)
	})
	rd := tr.begin("reduce", "runner", root, 0)
	var want []model.Metrics
	for r := range seeds {
		want = append(want, comp.A.PerReplication[r], comp.B.PerReplication[r])
	}
	mismatch := matchLegs(legs, errs, want)
	tr.end(rd)
	tr.end(root)
	e.check("compare-traced-redrive", mismatch)

	L.planMS = append(L.planMS, ms(tr.get(p).dur()))
	L.addLegs(legs)
	L.addDispatch(tr, d, e.workers)
	L.addSnapshot(reg.Snapshot())
	L.addOverhead(untimed, legs, tr.get(d).dur())
	for _, l := range legs {
		L.maxDelta = math.Max(L.maxDelta, math.Abs(l.spanFrac-l.metrics.UsefulWorkFraction))
	}
	L.inSync = append(L.inSync, comp.Sync.InSyncFraction)
	L.shrink = append(L.shrink, comp.Sync.CIShrinkFactor)
	L.obsJournalBytes += int64(journalBytes)
	L.rung = rungSpec{cfgs: []cluster.Config{a, b}, warmup: sz.warmup, measure: sz.measure, crn: true, phases: true, telemetry: true}
	return nil
}
