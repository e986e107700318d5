package runner

import (
	"context"
	"fmt"
	"time"

	"repro/internal/blocks"
	"repro/internal/cluster"
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

// CompareContext is Compare with cancellation. A comparison is a two-cell
// plan, cell A and cell B on one root seed. Cell A's block runs whole
// through the estimate path, then cell B's, so each leg is bit-identical
// for every Workers value, journals and verifies spans as an estimate
// does, and reports its own progress. The journal holds one provenance
// record (when set), then A's records labelled "A", then B's labelled "B":
// the reduced journal of the same plan run through a run directory.
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
	// Cell A and cell B draw identical seed streams, which is the
	// common-random-numbers pairing. Planning it through the block planner
	// keeps the seed derivation in one place.
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
	var comp Comparison
	legs := []*Result{&comp.A, &comp.B}
	outs := make([][]repOut, len(legs))
	for i, blk := range plan.Blocks {
		cell := plan.Cells[blk.CellIndex]
		o := opts
		o.Label = cell.Label
		if i > 0 {
			o.Provenance = nil // one provenance record leads the journal
		}
		*legs[i], outs[i], err = estimateBlock(ctx, cell.Config, blk, o)
		if err != nil {
			return Comparison{}, err
		}
	}
	// The paired intervals fold the per-replication differences B − A;
	// the CRN audit pairs the legs' draw counts replication by replication.
	n := opts.Replications
	fracDiff, totDiff := stats.NewFold(opts.Confidence, false), stats.NewFold(opts.Confidence, false)
	drawsA, drawsB := make([][]uint64, n), make([][]uint64, n)
	fracA, fracB := make([]float64, n), make([]float64, n)
	for r := range n {
		oa, ob := outs[0][r], outs[1][r]
		fracA[r], fracB[r] = oa.metrics.UsefulWorkFraction, ob.metrics.UsefulWorkFraction
		drawsA[r], drawsB[r] = oa.draws, ob.draws
		fracDiff.Add(fracB[r] - fracA[r])
		totDiff.Add(ob.metrics.TotalUsefulWork - oa.metrics.TotalUsefulWork)
	}
	comp.FractionDiff, comp.TotalDiff = fracDiff.CI(), totDiff.CI()
	if opts.SyncReport {
		rep := vr.BuildSyncReport(model.PurposeNames(), drawsA, drawsB, fracA, fracB)
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

// runOne simulates one trajectory on in, recycled onto seed, or on a fresh
// instance when in is nil, and returns the instance it ran on for the
// caller to reuse (nil only when the build failed). When telemetry is
// requested it attaches a fresh obs.Shard to the instance (one shard per
// replication, owned by whichever pool worker runs it), flushes the engine
// counters at the end, snapshots the shard for the journal and merges it
// into the registry. Journal-only runs (Journal set, Metrics nil)
// instrument into a throwaway registry so the snapshot exists without
// polluting anyone's metrics.
//
// Reuse telemetry (instance builds/recycles, event-pool hits/misses) goes
// to the registry only, never into the shard: the shard snapshot lands in
// the journal, whose bytes are pinned identical across worker counts, and
// whether an instance was fresh or recycled depends on how many workers
// split the replications.
func runOne(in *model.Instance, cfg cluster.Config, seed uint64, reflected bool, opts Options) (*model.Instance, repOut, error) {
	start := time.Now()
	// Per-purpose sub-streams are on for the CRN audit and for antithetic
	// pairs (both legs): with one interleaved stream the legs desynchronize
	// at the first divergence and reflection stops pairing matching draws;
	// purpose-split streams keep the k-th failure draw of the reflected leg
	// the exact mirror of the plain leg's k-th, which is what makes the
	// antithetic correlation strong. Both flags act through SetVR, which
	// takes effect on the next Recycle — so a fresh build under either is
	// recycled onto its own seed at once, and a reused instance clears
	// them for a plain replication (a pinned no-op for the trajectory:
	// model's TestSetVROffIsBitTransparent).
	crn := opts.SyncReport || opts.VarianceReduction == vr.ModeAntithetic
	recycled := in != nil
	if !recycled {
		var err error
		if in, err = model.New(cfg, seed); err != nil {
			return nil, repOut{}, err
		}
	}
	if recycled || reflected || crn {
		in.SetVR(reflected, crn)
		in.Recycle(seed)
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
	// Span verification folds each span into the measurement window as it
	// closes; the replication never holds its timeline.
	var rec *phasetrace.Recorder
	if opts.VerifySpans {
		rec = in.AttachPhases()
		rec.FoldWindow(opts.Warmup, opts.Warmup+opts.Measure)
	}
	m, err := in.RunSteadyState(opts.Warmup, opts.Measure)
	out := repOut{metrics: m, fired: in.Fired(), wall: time.Since(start)}
	if opts.SyncReport {
		out.draws = in.DrawCounts()
	}
	if rec != nil {
		w := rec.Window(in.Now())
		out.spanFrac = w.UsefulFraction()
		out.phase = w.Budget
		out.rollbacks = len(w.Losses)
		if sh != nil {
			if len(w.Losses) > 0 {
				h := sh.Histogram("phase.loss_hours", lossBuckets)
				for _, l := range w.Losses {
					h.Observe(l.Amount)
				}
			}
			for _, p := range phasetrace.Phases() {
				sh.Histogram("phase.hours."+p.String(), phaseBuckets).Observe(out.phase[p])
			}
			sh.Counter("phase.rollbacks").Add(uint64(out.rollbacks))
			sh.Counter("phase.spans").Add(uint64(w.Spans))
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
	return in, out, err
}
