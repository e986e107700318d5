package main

import (
	"fmt"
	"time"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/runner"
)

// estimateBase is runner.Estimate on the catalog's base scenario at the
// paper's windows, with no telemetry attached — how repro.Simulate uses it.
// Almost all of its time is the rng → des → san → model hot loop.
var estimateBase = workload{
	name: "estimate-base",
	full: size{reps: 10, warmup: 1000, measure: 4000, jobSecs: 0.5},
	tiny: size{reps: 4, warmup: 50, measure: 200, jobSecs: 1},
	job:  estimateJob,
}

func estimateJob(e *env, seed uint64, tr *tracer) (job, error) {
	sz := e.size
	t0 := e.setupStart()
	sc, cfg, err := catalogConfig("base")
	if err != nil {
		return job{}, err
	}
	plan, err := planEstimate(cfg, seed, sz)
	if err != nil {
		return job{}, err
	}
	seeds := plan.Blocks[0].Seeds
	var events uint64
	opts := runner.Options{
		Replications: sz.reps, Warmup: sz.warmup, Measure: sz.measure, Seed: seed, Workers: e.workers,
		Progress: func(p runner.Progress) {
			if p.Final {
				events = p.Events
			}
		},
	}
	// The first cold model build belongs to set-up; the instance is reused
	// below to re-drive replications outside the timed window.
	in, err := model.New(cfg, seeds[0])
	j := job{setup: time.Since(t0)}
	if err != nil {
		e.count(sz.reps, sz.reps)
		return j, nil
	}
	cpu0, _ := rusage()
	start := time.Now()
	res, err := runner.Estimate(cfg, opts)
	if err != nil {
		e.count(sz.reps, sz.reps)
		fmt.Fprintln(e.log, "estimate failed:", err)
		return j, nil
	}
	e.count(sz.reps, 0)
	e.check("estimate-band", bandCheck(sc, res.UsefulWorkFraction.Mean))
	j.wall = time.Since(start)
	cpu1, _ := rusage()
	j.cpu, j.rssMB = cpu1-cpu0, peakRSSMB()
	j.events = events
	j.series = [][]float64{fractions(res.PerReplication)}

	// Outside the timed window: re-drive the last replication on the cold
	// instance.
	e.check("estimate-redrive", redriveCheck(instanceCache{cfg: {in: in}}, cfg, seeds, res, sz))
	if tr != nil {
		return j, traceEstimate(e, tr, cfg, seed, res, j)
	}
	return j, nil
}

// planEstimate plans the job the way runner.Estimate does: one cell, one
// block holding every replication.
func planEstimate(cfg cluster.Config, seed uint64, sz size) (*blocks.Manifest, error) {
	return blocks.Plan([]blocks.Cell{{Seed: seed, Replications: sz.reps, Config: cfg}},
		blocks.PlanOptions{Name: "estimate", Warmup: sz.warmup, Measure: sz.measure, Confidence: 0.95, BlockSize: sz.reps})
}

// redriveCheck re-runs the last replication on the benchmark's own instance
// and compares it with the estimate's.
func redriveCheck(cache instanceCache, cfg cluster.Config, seeds []uint64, res runner.Result, sz size) error {
	if len(res.PerReplication) != len(seeds) {
		return fmt.Errorf("%d replications, want %d", len(res.PerReplication), len(seeds))
	}
	r := len(seeds) - 1
	l, err := replicate(nil, 0, 0, cache, cfg, seeds[r], sz.warmup, sz.measure, false, false, nil)
	if err != nil {
		return err
	}
	return sameMetrics(fmt.Sprintf("replication %d", r), l.metrics, res.PerReplication[r])
}

// traceEstimate is the traced pass: the same replications, planned with the
// seeds runner.Estimate uses and re-driven by the benchmark's own workers
// with a span around every model call and a telemetry shard attached.
func traceEstimate(e *env, tr *tracer, cfg cluster.Config, seed uint64, res runner.Result, untimed job) error {
	L, sz := e.layers, e.size
	root := tr.begin("estimate-base", "bench", 0, 0)
	p := tr.begin("blocks.Plan", "runner", root, 0)
	plan, err := planEstimate(cfg, seed, sz)
	tr.end(p)
	if err != nil {
		return err
	}
	seeds := plan.Blocks[0].Seeds
	e.check("estimate-seeds", sameSeeds(seeds, blocks.ReplicationSeeds(seed, sz.reps)))
	reg := obs.NewRegistry()
	legs := make([]leg, len(seeds))
	errs := make([]error, len(seeds))
	caches := make([]instanceCache, e.workers+1)
	for i := range caches {
		caches[i] = instanceCache{}
	}
	d := fanOut(tr, root, e.workers, len(seeds), func(lane, r, ws int) {
		legs[r], errs[r] = replicate(tr, ws, lane, caches[lane], cfg, seeds[r], sz.warmup, sz.measure, false, false, reg)
	})
	rd := tr.begin("reduce", "runner", root, 0)
	mismatch := matchLegs(legs, errs, res.PerReplication)
	if mismatch == nil {
		traced := make([]model.Metrics, len(legs))
		for i, l := range legs {
			traced[i] = l.metrics
		}
		if hw := halfWidth(fractions(traced)); hw != res.UsefulWorkFraction.HalfWide {
			mismatch = fmt.Errorf("traced half-width %v, estimate %v", hw, res.UsefulWorkFraction.HalfWide)
		}
	}
	tr.end(rd)
	tr.end(root)
	e.check("estimate-traced-redrive", mismatch)

	L.planMS = append(L.planMS, ms(tr.get(p).dur()))
	L.addLegs(legs)
	L.addDispatch(tr, d, e.workers)
	L.addSnapshot(reg.Snapshot())
	L.addOverhead(untimed, legs, tr.get(d).dur())
	L.rung = rungSpec{cfgs: []cluster.Config{cfg}, warmup: sz.warmup, measure: sz.measure}
	return nil
}

// matchLegs fails unless every traced trajectory reproduces the program's
// own replication bit for bit.
func matchLegs(legs []leg, errs []error, want []model.Metrics) error {
	if len(legs) != len(want) {
		return fmt.Errorf("%d traced replications, want %d", len(legs), len(want))
	}
	for r, l := range legs {
		if errs[r] != nil {
			return errs[r]
		}
		if err := sameMetrics(fmt.Sprintf("traced replication %d", r), l.metrics, want[r]); err != nil {
			return err
		}
	}
	return nil
}

func sameSeeds(a, b []uint64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d seeds, want %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("seed %d: %d, want %d", i, a[i], b[i])
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
