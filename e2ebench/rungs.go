package main

import (
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rng"
)

// The rungs time one layer in isolation at the operating point the traced
// pass observed: the rng rung at the model's per-purpose draw mix and
// Table-3 rates, the des rung at the heap depth the model reached, the model
// rung with the workload's configuration and windows. Each timing is the
// median of rungRepeats batches.
const (
	rungRepeats  = 5
	rngBatch     = 200_000
	desBatch     = 200_000
	buildRepeats = 5
	allocReps    = 3
)

// sink keeps the compiler from discarding the rung loops' results.
var sink float64

// rungSpec is the workload's operating point for the rungs.
type rungSpec struct {
	cfgs            []cluster.Config
	warmup, measure float64
	fresh           bool // a fresh model per replication (BlockRunner) rather than a recycled one
	crn, phases     bool // per-purpose streams and phase recording, as the workload runs them
	telemetry       bool // a registry shard attached to every replication
}

// purposeDist maps a random purpose of the model to the distribution it
// samples under cfg (internal/model's failure, recovery and coordination
// delays; output-gate decisions draw one uniform).
func purposeDist(cfg cluster.Config, purpose string) rng.Dist {
	nodes := float64(cfg.Processors) / float64(cfg.ProcsPerNode)
	ioNodes := nodes / float64(cfg.ComputePerIONode)
	switch purpose {
	case "comp_failure", "recovery_failure":
		return rng.Exponential{MeanValue: cfg.MTTFPerNode / nodes}
	case "io_failure":
		return rng.Exponential{MeanValue: cfg.MTTFPerNode / ioNodes}
	case "recovery":
		return rng.Exponential{MeanValue: cfg.MTTR}
	case "io_restart":
		return rng.Exponential{MeanValue: cfg.MTTRIONodes}
	case "coord":
		switch cfg.Coordination {
		case cluster.CoordMaxOfN:
			return rng.MaxOfNExponentials{N: cfg.Processors, PerNodeMean: cfg.MTTQ}
		case cluster.CoordNone:
			return rng.Exponential{MeanValue: cfg.MTTQ}
		}
	}
	return rng.Uniform{Low: 0, High: 1}
}

// nsPerSample is the median time of one sample of d over rungRepeats batches.
func nsPerSample(d rng.Dist) float64 {
	src := rng.New(0x72756e67) // "rung"
	var per []float64
	for k := 0; k < rungRepeats; k++ {
		var s float64
		start := time.Now()
		for i := 0; i < rngBatch; i++ {
			s += d.Sample(src)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/rngBatch)
		sink += s
	}
	return median(per)
}

// rngRung times the draw mix: each purpose's distribution weighted by its
// share of the draws. It also times the two inverse-CDF families the model
// samples, exponential and max-of-n, alone.
type rngRung struct {
	nsPerDraw       float64
	nsExp, nsMaxOfN float64
	draws           int
}

func runRNGRung(cfg cluster.Config, draws []uint64) rngRung {
	var r rngRung
	var weight, total float64
	for p, name := range model.PurposeNames() {
		if p >= len(draws) || draws[p] == 0 {
			continue
		}
		ns := nsPerSample(purposeDist(cfg, name))
		r.draws += rungRepeats * rngBatch
		weight += float64(draws[p])
		total += float64(draws[p]) * ns
	}
	if weight > 0 {
		r.nsPerDraw = total / weight
	}
	nodes := float64(cfg.Processors) / float64(cfg.ProcsPerNode)
	r.nsExp = nsPerSample(rng.Exponential{MeanValue: cfg.MTTFPerNode / nodes})
	r.nsMaxOfN = nsPerSample(rng.MaxOfNExponentials{N: cfg.Processors, PerNodeMean: cfg.MTTQ})
	r.draws += 2 * rungRepeats * rngBatch
	return r
}

// desRung times Step on an engine holding `depth` pending events, each
// handler scheduling its successor, so the heap stays at depth: one
// schedule and one fire per event. Delays come from a precomputed table so
// no rng work is timed.
func desRung(depth int) (nsPerEvent float64, events int) {
	depth = max(depth, 1)
	delays := make([]float64, 4096)
	src := rng.New(0x646573) // "des"
	for i := range delays {
		delays[i] = rng.Exponential{MeanValue: float64(depth)}.Sample(src)
	}
	eng := des.New()
	k := 0
	var h des.Handler
	h = func(e *des.Engine) {
		k++
		e.ScheduleAfter(delays[k&4095], "rung", h)
	}
	for i := 0; i < depth; i++ {
		eng.ScheduleAfter(delays[i&4095], "rung", h)
	}
	for i := 0; i < depth; i++ {
		eng.Step()
	}
	var per []float64
	for r := 0; r < rungRepeats; r++ {
		start := time.Now()
		for i := 0; i < desBatch; i++ {
			eng.Step()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/desBatch)
	}
	return median(per), rungRepeats * desBatch
}

// modelRung times a cold model.New and an Instance.Recycle, and counts the
// heap allocations of a replication run the workload's way, sequentially so
// nothing else allocates meanwhile. It also reports the pending-event peak
// those replications reached.
type modelRung struct {
	buildMS, recycleUS float64
	allocsPerRep       float64
	peak               uint64
}

func runModelRung(spec rungSpec, seeds []uint64) (modelRung, error) {
	var r modelRung
	cfg := spec.cfgs[0]
	var builds, recycles []float64
	var in *model.Instance
	for i := 0; i < buildRepeats; i++ {
		start := time.Now()
		var err error
		in, err = model.New(cfg, seeds[i%len(seeds)])
		if err != nil {
			return r, err
		}
		builds = append(builds, ms(time.Since(start)))
	}
	if _, err := in.RunSteadyState(spec.warmup, spec.measure); err != nil {
		return r, err
	}
	for i := 0; i < buildRepeats; i++ {
		start := time.Now()
		in.Recycle(seeds[i%len(seeds)])
		recycles = append(recycles, float64(time.Since(start).Nanoseconds())/1e3)
	}
	r.buildMS, r.recycleUS = median(builds), median(recycles)

	var reg *obs.Registry
	if spec.telemetry {
		reg = obs.NewRegistry()
	}
	cache := instanceCache{}
	var mallocs uint64
	n := 0
	for _, c := range spec.cfgs {
		if !spec.fresh { // warm the cache: the workload recycles
			if _, err := replicate(nil, 0, 0, cache, c, seeds[0], spec.warmup, spec.measure, spec.crn, spec.phases, reg); err != nil {
				return r, err
			}
		}
		for i := 0; i < allocReps; i++ {
			if spec.fresh {
				cache = instanceCache{}
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			l, err := replicate(nil, 0, 0, cache, c, seeds[(i+1)%len(seeds)], spec.warmup, spec.measure, spec.crn, spec.phases, reg)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return r, err
			}
			mallocs += m1.Mallocs - m0.Mallocs
			n++
			r.peak = max(r.peak, l.peak)
		}
	}
	r.allocsPerRep = float64(mallocs) / float64(n)
	return r, nil
}

// drawMix counts per-purpose draws and events on trajectories run with
// per-purpose streams, for workloads whose own trajectories do not count
// their draws. The counts stand for the plain routing's draws: the model
// makes the same draws either way, only from different streams.
func drawMix(spec rungSpec, seeds []uint64) ([]uint64, uint64, error) {
	draws := make([]uint64, len(model.PurposeNames()))
	var events uint64
	for _, c := range spec.cfgs {
		cache := instanceCache{}
		for _, s := range seeds[:2] {
			l, err := replicate(nil, 0, 0, cache, c, s, spec.warmup, spec.measure, true, false, nil)
			if err != nil {
				return nil, 0, err
			}
			for p, d := range l.draws {
				draws[p] += d
			}
			events += l.fired
		}
	}
	return draws, events, nil
}
