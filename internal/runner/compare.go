package runner

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/phasetrace"
	"repro/internal/stats"
	"repro/internal/vr"
)

// Bucket layouts for the span-derived metrics: phase budgets span minutes
// to thousands of hours per window, loss impulses fractions of an hour to
// a few hundred.
var (
	phaseBuckets = obs.ExpBuckets(0.25, 2, 16)
	lossBuckets  = obs.ExpBuckets(0.01, 4, 10)
)

// Comparison is the outcome of a paired A/B estimate.
type Comparison struct {
	// A and B are the independent estimates of the two configurations.
	A, B Result
	// FractionDiff is the paired confidence interval of
	// (B − A) useful-work fraction. Pairing with common random numbers
	// cancels most sampling noise, so small design effects resolve with
	// far fewer replications than two independent estimates would need.
	FractionDiff stats.Interval
	// TotalDiff is the paired CI of (B − A) total useful work.
	TotalDiff stats.Interval
	// Sync is the common-random-numbers audit (Options.SyncReport only):
	// per-purpose draw alignment between the paired replications and the
	// residual output correlation the pairing achieved.
	Sync *vr.SyncReport
}

// Significant reports whether the fraction difference is statistically
// nonzero at the comparison's confidence level.
func (c Comparison) Significant() bool {
	return !c.FractionDiff.Contains(0)
}

// Compare estimates two configurations with common random numbers:
// replication r of A and replication r of B share the same seed, so the
// same failure times and quiesce samples drive both systems wherever their
// dynamics coincide. The returned intervals are paired-t CIs of the
// differences (B − A).
func Compare(a, b cluster.Config, opts Options) (Comparison, error) {
	return CompareContext(context.Background(), a, b, opts)
}

// CompareContext is Compare with cancellation. Each replication pair
// (A and B under the same seed) is one job on the worker pool; as with
// EstimateContext, seeds are assigned before dispatch and the reduction
// runs in replication order, so the comparison is bit-identical for every
// Workers value.
func CompareContext(ctx context.Context, a, b cluster.Config, opts Options) (Comparison, error) {
	if opts.VarianceReduction != vr.ModeNone {
		// A comparison pairs A with B on common random numbers; it has no
		// reflected leg to run and no pair means to fold.
		return Comparison{}, fmt.Errorf("runner: Compare cannot run %s variance reduction (it pairs A with B on common random numbers; use SyncReport)", opts.VarianceReduction)
	}
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return Comparison{}, err
	}
	if err := a.Validate(); err != nil {
		return Comparison{}, fmt.Errorf("runner: config A: %w", err)
	}
	if err := b.Validate(); err != nil {
		return Comparison{}, fmt.Errorf("runner: config B: %w", err)
	}
	// A comparison is a two-cell plan sharing one root seed: cell A and
	// cell B draw identical seed streams, which is the common-random-numbers
	// pairing. Planning it through the block planner keeps the seed
	// derivation in one place.
	plan, err := blocks.Plan([]blocks.Cell{
		{Label: "A", Seed: opts.Seed, Replications: opts.Replications, Config: a},
		{Label: "B", Seed: opts.Seed, Replications: opts.Replications, Config: b},
	}, blocks.PlanOptions{
		Name:       "compare",
		Warmup:     opts.Warmup,
		Measure:    opts.Measure,
		Confidence: opts.Confidence,
		BlockSize:  opts.Replications,
	})
	if err != nil {
		return Comparison{}, fmt.Errorf("runner: %w", err)
	}
	seeds := plan.Blocks[0].Seeds // == Blocks[1].Seeds: same root seed
	type pair struct {
		a, b           model.Metrics
		drawsA, drawsB []uint64
	}
	var events atomic.Uint64
	// One cache per worker covers both configurations: a worker holds at
	// most one A instance and one B instance and recycles them pair after
	// pair.
	pairs, err := exec.MapLocal(ctx, pool(opts, &events), opts.Replications, newInstanceCache,
		func(_ context.Context, cache *instanceCache, r int) (pair, error) {
			oa, err := runOne(a, seeds[r], false, opts, cache)
			events.Add(oa.fired)
			if err != nil {
				return pair{}, err
			}
			ob, err := runOne(b, seeds[r], false, opts, cache)
			events.Add(ob.fired)
			if err != nil {
				return pair{}, err
			}
			return pair{oa.metrics, ob.metrics, oa.draws, ob.draws}, nil
		})
	if err != nil {
		return Comparison{}, err
	}
	var (
		comp              Comparison
		fracDiff, totDiff stats.Accumulator
		fracA, totA       stats.Accumulator
		fracB, totB       stats.Accumulator
	)
	for _, p := range pairs {
		comp.A.PerReplication = append(comp.A.PerReplication, p.a)
		comp.B.PerReplication = append(comp.B.PerReplication, p.b)
		fracA.Add(p.a.UsefulWorkFraction)
		fracB.Add(p.b.UsefulWorkFraction)
		totA.Add(p.a.TotalUsefulWork)
		totB.Add(p.b.TotalUsefulWork)
		fracDiff.Add(p.b.UsefulWorkFraction - p.a.UsefulWorkFraction)
		totDiff.Add(p.b.TotalUsefulWork - p.a.TotalUsefulWork)
	}
	comp.A.UsefulWorkFraction = fracA.CI(opts.Confidence)
	comp.A.TotalUsefulWork = totA.CI(opts.Confidence)
	comp.B.UsefulWorkFraction = fracB.CI(opts.Confidence)
	comp.B.TotalUsefulWork = totB.CI(opts.Confidence)
	comp.FractionDiff = fracDiff.CI(opts.Confidence)
	comp.TotalDiff = totDiff.CI(opts.Confidence)
	if opts.SyncReport {
		drawsA := make([][]uint64, len(pairs))
		drawsB := make([][]uint64, len(pairs))
		outA := make([]float64, len(pairs))
		outB := make([]float64, len(pairs))
		for r, p := range pairs {
			drawsA[r], drawsB[r] = p.drawsA, p.drawsB
			outA[r] = p.a.UsefulWorkFraction
			outB[r] = p.b.UsefulWorkFraction
		}
		rep := vr.BuildSyncReport(model.PurposeNames(), drawsA, drawsB, outA, outB)
		comp.Sync = &rep
	}
	return comp, nil
}

// repOut is everything one trajectory hands back to the reducer: the
// paper's metrics, the event count, the trajectory's wall time, and — when
// a journal is attached — the deterministic simulator-telemetry snapshot
// destined for its "replication" record.
type repOut struct {
	metrics model.Metrics
	fired   uint64
	wall    time.Duration
	sim     map[string]any

	// Span-derived accounting (Options.VerifySpans only): the useful-work
	// fraction re-derived from phase spans, the windowed per-phase budget
	// with rework split out, and the rollback count inside the window.
	spanFrac  float64
	phase     phasetrace.Budget
	rollbacks int

	// draws holds the per-purpose variate counts of the trajectory
	// (Options.SyncReport only) — the raw material of the CRN audit.
	draws []uint64
}

// runOne simulates one trajectory on an instance from the worker's cache
// (built on first use, recycled after). When telemetry is requested it
// attaches a fresh obs.Shard to the instance (one shard per replication,
// owned by whichever pool worker runs it), flushes the engine counters at
// the end, snapshots the shard for the journal and merges it into the
// registry. Journal-only runs (Journal set, Metrics nil) instrument into a
// throwaway registry so the snapshot exists without polluting anyone's
// metrics.
//
// Cache telemetry (instance builds/recycles, event-pool hits/misses) goes
// to the registry only, never into the shard: the shard snapshot lands in
// the journal, whose bytes are pinned identical across worker counts, and
// whether an instance was fresh or recycled depends on how many workers
// split the replications.
func runOne(cfg cluster.Config, seed uint64, reflected bool, opts Options, cache *instanceCache) (repOut, error) {
	start := time.Now()
	// Per-purpose sub-streams are on for the CRN audit and for antithetic
	// pairs (both legs): with one interleaved stream the legs desynchronize
	// at the first divergence and reflection stops pairing matching draws;
	// purpose-split streams keep the k-th failure draw of the reflected leg
	// the exact mirror of the plain leg's k-th, which is what makes the
	// antithetic correlation strong.
	crn := opts.SyncReport || opts.VarianceReduction == vr.ModeAntithetic
	in, recycled, err := cache.instance(cfg, seed, reflected, crn)
	if err != nil {
		return repOut{}, err
	}
	var sh *obs.Shard
	if opts.Metrics != nil || opts.Journal != nil || opts.forceSim {
		reg := opts.Metrics
		if reg == nil {
			reg = obs.NewRegistry()
		}
		sh = reg.NewShard()
		in.Instrument(sh)
	}
	var rec *phasetrace.Recorder
	if opts.VerifySpans {
		rec = in.AttachPhases()
	}
	m, err := in.RunSteadyState(opts.Warmup, opts.Measure)
	out := repOut{metrics: m, fired: in.Fired(), wall: time.Since(start)}
	if opts.SyncReport {
		out.draws = in.DrawCounts()
	}
	if rec != nil {
		t0, t1 := opts.Warmup, opts.Warmup+opts.Measure
		tl := rec.Finish(in.Now()).SplitRework()
		out.spanFrac = tl.UsefulFraction(t0, t1)
		out.phase = tl.BudgetBetween(t0, t1)
		for _, l := range tl.Losses {
			if l.Time > t0 && l.Time <= t1 {
				out.rollbacks++
				if sh != nil {
					sh.Histogram("phase.loss_hours", lossBuckets).Observe(l.Amount)
				}
			}
		}
		if sh != nil {
			for _, p := range phasetrace.Phases() {
				sh.Histogram("phase.hours."+p.String(), phaseBuckets).Observe(out.phase[p])
			}
			sh.Counter("phase.rollbacks").Add(uint64(out.rollbacks))
			sh.Counter("phase.spans").Add(uint64(len(tl.Spans)))
		}
	}
	if sh != nil {
		in.FlushEngineStats()
		if opts.Journal != nil || opts.forceSim {
			out.sim = sh.Snapshot()
		}
		sh.Merge()
	}
	if reg := opts.Metrics; reg != nil {
		reg.Counter("runner.replications").Inc()
		reg.Counter("runner.events").Add(out.fired)
		reg.Timer("runner.replication_wall_s").Observe(out.wall)
		if recycled {
			reg.Counter("runner.instance_recycles").Inc()
		} else {
			reg.Counter("runner.instance_builds").Inc()
		}
		hits, misses, size := in.PoolStats()
		reg.Counter("des.pool_hits").Add(hits)
		reg.Counter("des.pool_misses").Add(misses)
		reg.Gauge("des.pool_size").Set(int64(size))
	}
	return out, err
}
