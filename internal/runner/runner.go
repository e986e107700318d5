// Package runner estimates steady-state measures of the checkpointing
// model by independent replications: each replication simulates a transient
// warmup (discarded, the paper uses 1000 h) plus a measurement window, and
// the replication means feed Student-t confidence intervals at the paper's
// 95 % level.
package runner

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/exec"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/phasetrace"
	"repro/internal/provenance"
	"repro/internal/stats"
	"repro/internal/vr"
)

// Options controls the estimation procedure.
type Options struct {
	// Replications is the number of independent trajectories (≥ 2 for a
	// confidence interval). Default 5.
	Replications int
	// Warmup is the discarded transient, in hours. Default 1000 (paper).
	Warmup float64
	// Measure is the measurement window per replication, in hours.
	// Default 4000.
	Measure float64
	// Confidence is the CI level. Default 0.95 (paper).
	Confidence float64
	// Seed is the root seed; replication r uses an independent sub-stream
	// derived from it. Default 1.
	Seed uint64
	// Workers bounds how many replications simulate concurrently on the
	// internal/exec pool. 0 (the zero-value default) and 1 run
	// sequentially — the historic behavior — and a negative value means
	// one worker per CPU. The estimate is bit-identical for every value:
	// replication seeds are drawn from the root stream before dispatch
	// and results are reduced in replication order.
	Workers int
	// Progress, when non-nil, receives a snapshot after every
	// replication state change. Calls are serialized by the pool; the
	// callback must be fast. Compare reports its legs in turn, A then B,
	// each counting from zero with its own Final snapshot.
	Progress func(Progress)
	// Metrics, when non-nil, receives live telemetry: the exec pool's job
	// counters, per-replication runner.* metrics, and the simulator's
	// san.*/des.* counters and histograms (recorded through per-worker
	// shards, merged once per replication, so the hot loop stays
	// contention-free). The registry may be shared across estimates and
	// watched live by an obs.DebugServer.
	Metrics *obs.Registry
	// Journal, when non-nil, receives one structured "replication" record
	// per trajectory plus a closing "estimate" record. Records are written
	// after all replications complete, in replication order, so the
	// journal content is byte-identical for every Workers value apart from
	// the fields named in obs.TimestampFields. Compare writes leg A's
	// records, then leg B's. Concurrent estimates must not share one: the
	// opt and sensitivity searches reject it.
	Journal *obs.Journal
	// Label, when non-empty, tags every journal record of this estimate —
	// sweeps and experiment grids use it to identify the cell. Compare
	// labels its legs "A" and "B" instead.
	Label string
	// VarianceReduction selects the replication-scheduling scheme.
	// vr.ModeAntithetic runs replications as (plain, reflected) pairs
	// sharing a seed: pair k occupies replications 2k (plain leg) and 2k+1
	// (reflected leg, every uniform draw mirrored u → 1−u), and the
	// estimate is formed over the pair means, whose variance the negative
	// leg correlation shrinks. An odd Replications count is rounded up to
	// complete the last pair. The measured efficiency is reported in
	// Result.VR and the journal's estimate record; plain mode (the zero
	// value) is bit-identical to pre-VR behavior. Compare rejects it: its
	// pairs are A against B on common random numbers.
	VarianceReduction vr.Mode
	// SyncReport makes Compare route every stochastic purpose through its
	// own labelled CRN sub-stream and audit the synchronization from the
	// two legs' per-purpose draw counts: the fraction of pairs that stayed
	// on literally common variates, and the output correlation achieved
	// (Comparison.Sync). The purpose routing changes trajectories relative
	// to a plain Compare — it is the hardened-CRN mode, not an observer.
	// Estimate routes the same way, so one leg re-runs alone bit for bit.
	SyncReport bool
	// VerifySpans attaches a phase-span recorder (internal/phasetrace) to
	// every replication and cross-checks the span-derived useful-work
	// fraction against the reward-based estimate — two independent
	// derivations from the same trajectory. The outcome is published as
	// Result.SpanCheck, per-phase time budgets flow into Metrics
	// (phase.hours.*) and the journal, and recording is purely
	// observational: the trajectory is bit-identical with or without it.
	// Spans are folded into the measurement window as they close, so a
	// replication keeps only its rollback losses, never its timeline.
	VerifySpans bool
	// Provenance, when non-nil, is written as a leading "provenance"
	// record before any replication record, answering "which binary and
	// config produced this journal?" months later. It is deliberately NOT
	// part of the block-sweep journal contract: block and sweep journals
	// must stay byte-identical across commits (the crash-resume identity
	// tests compare them), so provenance there lives in the run manifest
	// and heartbeats instead. Single-estimate CLIs (ccsim) set it.
	Provenance *provenance.Stamp
	// forceSim makes every replication snapshot its simulator telemetry
	// even without a Journal. BlockRunner sets it: block workers carry no
	// journal of their own but must hand back records carrying the same
	// "sim" field a monolithic journaling run would write.
	forceSim bool
}

// Progress is a snapshot of an in-flight estimation.
type Progress struct {
	// Done and Total count finished and scheduled replications (for
	// Compare, of the leg in flight; for EstimateGrid, cells).
	Done, Total int
	// Events is the cumulative number of simulation events fired across
	// the completed replications (for Compare, of the leg in flight).
	Events uint64
	// Elapsed is the wall time since the estimation started.
	Elapsed time.Duration
	// Final marks the last snapshot of the estimation, delivered exactly
	// once whether the run finished or ended early (see exec.Progress).
	Final bool
}

// WithDefaults fills unset fields with the values an estimate runs.
// Callers that derive cell seeds from Seed default it first, so a zero
// seed means what it means to Estimate.
func (o Options) WithDefaults() Options {
	if o.Replications == 0 {
		o.Replications = 5
	}
	if o.Warmup == 0 {
		o.Warmup = 1000
	}
	if o.Measure == 0 {
		o.Measure = 4000
	}
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.VarianceReduction == vr.ModeAntithetic && o.Replications%2 == 1 {
		o.Replications++ // complete the last (plain, reflected) pair
	}
	return o
}

// Validate reports option problems (after defaulting).
func (o Options) Validate() error {
	if o.Replications < 1 {
		return fmt.Errorf("runner: Replications %d < 1", o.Replications)
	}
	if o.Warmup < 0 {
		return fmt.Errorf("runner: negative Warmup %v", o.Warmup)
	}
	if o.Measure <= 0 {
		return fmt.Errorf("runner: Measure %v must be positive", o.Measure)
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		return fmt.Errorf("runner: Confidence %v outside (0,1)", o.Confidence)
	}
	return nil
}

// Result aggregates the replications of one configuration.
type Result struct {
	// UsefulWorkFraction is the replication-mean fraction with its CI.
	UsefulWorkFraction stats.Interval
	// TotalUsefulWork is the replication-mean total useful work with CI.
	TotalUsefulWork stats.Interval
	// PerReplication holds the raw metrics of each trajectory.
	PerReplication []model.Metrics
	// SpanCheck reports the span-vs-reward cross-check; nil unless
	// Options.VerifySpans was set.
	SpanCheck *SpanCheck
	// VR reports the measured antithetic efficiency; nil unless
	// Options.VarianceReduction was vr.ModeAntithetic.
	VR *vr.Report
}

// SpanCheck is the outcome of the phase-accounting self-verification: the
// reward-based and span-derived useful-work estimates of the same
// trajectories, and whether their worst per-replication disagreement stays
// within tolerance.
type SpanCheck struct {
	// RewardMean and SpanMean are the replication means of the two
	// derivations (they use identical trajectories, so the difference is
	// pure accounting error, not sampling noise).
	RewardMean float64
	SpanMean   float64
	// MaxDelta is the largest per-replication |span − reward|.
	MaxDelta float64
	// Tolerance is the acceptance threshold: the reward estimate's CI
	// half-width (the issue's yardstick), floored at 1e-9 so a zero-width
	// interval still admits float round-off.
	Tolerance float64
	// Within reports MaxDelta ≤ Tolerance.
	Within bool
}

// spanCheck folds the per-replication comparisons into a SpanCheck.
func spanCheck(outs []repOut, res Result) *SpanCheck {
	sc := &SpanCheck{RewardMean: res.UsefulWorkFraction.Mean}
	for _, o := range outs {
		sc.SpanMean += o.spanFrac
		if d := math.Abs(o.spanFrac - o.metrics.UsefulWorkFraction); d > sc.MaxDelta {
			sc.MaxDelta = d
		}
	}
	if len(outs) > 0 {
		sc.SpanMean /= float64(len(outs))
	}
	sc.Tolerance = res.UsefulWorkFraction.HalfWide
	if math.IsNaN(sc.Tolerance) || math.IsInf(sc.Tolerance, 0) || sc.Tolerance < 1e-9 {
		sc.Tolerance = 1e-9
	}
	sc.Within = sc.MaxDelta <= sc.Tolerance
	return sc
}

// Estimate runs the model for cfg under the given options.
func Estimate(cfg cluster.Config, opts Options) (Result, error) {
	return EstimateContext(context.Background(), cfg, opts)
}

// EstimateContext is Estimate with cancellation: when ctx is cancelled no
// further replications start and the context error is returned.
func EstimateContext(ctx context.Context, cfg cluster.Config, opts Options) (Result, error) {
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, fmt.Errorf("runner: %w", err)
	}
	// A single estimate is the degenerate sweep: one cell, planned through
	// the same block planner the distributed engine uses, then "claimed"
	// whole and reduced in this process. Every replication's seed is
	// therefore fixed by the plan before any replication is dispatched —
	// a pure function of opts.Seed — which is the core of both the
	// worker-count and the process-count determinism guarantees.
	plan, err := blocks.Plan([]blocks.Cell{{
		Label:        opts.Label,
		Seed:         opts.Seed,
		Replications: opts.Replications,
		Config:       cfg,
	}}, blocks.PlanOptions{
		Name:       "estimate",
		Warmup:     opts.Warmup,
		Measure:    opts.Measure,
		Confidence: opts.Confidence,
		BlockSize:  opts.Replications,
		VR:         opts.VarianceReduction,
	})
	if err != nil {
		return Result{}, fmt.Errorf("runner: %w", err)
	}
	res, _, err := estimateBlock(ctx, cfg, plan.Blocks[0], opts)
	return res, err
}

// estimateBlock runs one planned block whole and reduces it in this
// process: the replications through runBlock, the fold, the span check,
// the telemetry and the journal. It is EstimateContext's body and each of
// CompareContext's two legs, which hands back the raw outputs as well for
// its paired fold and CRN audit.
func estimateBlock(ctx context.Context, cfg cluster.Config, b blocks.Block, opts Options) (Result, []repOut, error) {
	start := time.Now()
	outs, err := runBlock(ctx, cfg, b, opts)
	if err != nil {
		return Result{}, nil, err
	}
	metrics := make([]model.Metrics, len(outs))
	for i, o := range outs {
		metrics[i] = o.metrics
	}
	res := reduce(metrics, opts)
	if opts.VerifySpans {
		res.SpanCheck = spanCheck(outs, res)
	}
	recordEstimate(opts, outs, res, time.Since(start))
	if opts.Journal != nil {
		if err := writeJournal(opts, b.Seeds, outs, res); err != nil {
			return Result{}, nil, fmt.Errorf("runner: journal: %w", err)
		}
	}
	return res, outs, nil
}

// runBlock runs one planned block's replications on the exec pool and
// returns their outputs in replication order. It is the one replication
// loop: estimateBlock runs each whole planned block through it and
// BlockRunner each claimed block. A block has one configuration, so its
// model instances are interchangeable: a job takes one from the block's
// free list, or builds one if none is free, and puts it back when its
// replication ends. At most one instance per pool worker is ever out, so
// the put never blocks. The list is a channel, not a sync.Pool, which a GC
// could drain. Which instance runs a replication cannot affect results:
// Recycle is pinned bit-identical to a fresh build (model's
// TestRecycleMatchesFreshBuild), and the worker-invariance tests cover the
// rest.
func runBlock(ctx context.Context, cfg cluster.Config, b blocks.Block, opts Options) ([]repOut, error) {
	antithetic := opts.VarianceReduction == vr.ModeAntithetic
	var events atomic.Uint64
	p := pool(opts, &events)
	free := make(chan *model.Instance, p.Workers)
	return exec.Map(ctx, p, b.Reps(), func(_ context.Context, i int) (repOut, error) {
		var in *model.Instance
		select {
		case in = <-free:
		default:
		}
		// Under antithetic VR the plan duplicated each seed across a
		// (plain, reflected) pair aligned to even cell-global indices; the
		// leg is the global replication parity, fixed — like the seed —
		// before dispatch, so it is invisible to worker scheduling and to
		// where a block boundary fell.
		in, o, err := runOne(in, cfg, b.Seeds[i], antithetic && (b.RepStart+i)%2 == 1, opts)
		if in != nil {
			free <- in
		}
		events.Add(o.fired)
		return o, err
	})
}

// recordEstimate publishes estimate-level telemetry.
func recordEstimate(opts Options, outs []repOut, res Result, elapsed time.Duration) {
	reg := opts.Metrics
	if reg == nil {
		return
	}
	reg.Counter("runner.estimates").Inc()
	var events uint64
	for _, o := range outs {
		events += o.fired
	}
	if s := elapsed.Seconds(); s > 0 {
		reg.FloatGauge("runner.events_per_sec").Set(float64(events) / s)
	}
	// With a single replication the half-width is undefined (Inf); the
	// gauge carries only finite values so snapshots stay marshalable.
	if hw := res.UsefulWorkFraction.HalfWide; !math.IsInf(hw, 0) && !math.IsNaN(hw) {
		reg.FloatGauge("runner.ci_half_width").Set(hw)
	}
	// GC pressure of the estimate just completed — with the pooled engine
	// and instances recycled within each block the heap numbers stay flat
	// across estimates.
	obs.RecordMemStats(reg)
}

// repFields builds one trajectory's "replication" record fields — shared
// verbatim between the monolithic journal writer below and BlockRunner, so
// a block journal's records and a monolithic journal's records are the
// same bytes. Everything except ci_half_width, which depends on the
// replications before this one and is appended by whoever knows the prefix
// (writeJournal here, the block writer block-locally, the reducer
// cell-globally).
func repFields(rep int, seed uint64, o repOut, opts Options) map[string]any {
	fields := map[string]any{
		"rep":             rep,
		"seed":            seed,
		"events":          o.fired,
		"useful_fraction": o.metrics.UsefulWorkFraction,
		"total_useful":    o.metrics.TotalUsefulWork,
		"counters":        o.metrics.Counters,
		"wall_ms":         float64(o.wall) / float64(time.Millisecond),
	}
	if o.sim != nil {
		fields["sim"] = o.sim
	}
	if opts.VarianceReduction == vr.ModeAntithetic {
		// The leg is the replication parity (pairs are aligned to even
		// global indices by the planner) — journaled so a reader can split
		// plain from reflected legs without re-deriving the pairing.
		fields["vr_leg"] = rep % 2
	}
	if opts.VerifySpans {
		fields["span_useful_fraction"] = o.spanFrac
		fields["span_delta"] = o.spanFrac - o.metrics.UsefulWorkFraction
		fields["rollbacks"] = o.rollbacks
		fields["phase_hours"] = phaseHours(o.phase)
	}
	if opts.Label != "" {
		fields["label"] = opts.Label
	}
	return fields
}

// writeJournal emits one "replication" record per trajectory plus the
// closing "estimate" record, strictly in replication order. Every field is
// a pure function of (cfg, opts, seeds) except wall_ms and the timestamp,
// which is what makes journals comparable across worker counts — and,
// through blocks.EstimateFields, across process counts.
func writeJournal(opts Options, seeds []uint64, outs []repOut, res Result) error {
	j := opts.Journal
	if opts.Provenance != nil {
		if err := j.Record("provenance", opts.Provenance.Fields()); err != nil {
			return err
		}
	}
	fold := opts.VarianceReduction.Fold(opts.Confidence)
	var events uint64
	fracs := make([]float64, len(outs))
	totals := make([]float64, len(outs))
	for r, o := range outs {
		events += o.fired
		fracs[r] = o.metrics.UsefulWorkFraction
		totals[r] = o.metrics.TotalUsefulWork
		fields := repFields(r, seeds[r], o, opts)
		// The prefix CI half-width after this replication — the raw
		// convergence trajectory, one point per record (paired prefix under
		// antithetic VR, through the same fold the block writers use).
		fold.Add(fracs[r])
		fields["ci_half_width"] = fold.Convergence().HalfWidth
		if err := j.Record("replication", fields); err != nil {
			return err
		}
	}
	fields := blocks.EstimateFields(opts.Confidence, fracs, totals, events, opts.Label, opts.VarianceReduction)
	if sc := res.SpanCheck; sc != nil {
		fields["span_check"] = map[string]any{
			"reward_mean": sc.RewardMean,
			"span_mean":   sc.SpanMean,
			"max_delta":   sc.MaxDelta,
			"tolerance":   sc.Tolerance,
			"within":      sc.Within,
		}
	}
	return j.Record("estimate", fields)
}

// phaseHours flattens a windowed budget for the journal, keeping only the
// phases that occurred so records stay compact.
func phaseHours(b phasetrace.Budget) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range phasetrace.Phases() {
		if b[p] > 0 {
			out[p.String()] = b[p]
		}
	}
	return out
}

// pool builds the exec pool for opts, bridging pool snapshots to the
// caller's Progress hook with the events counter mixed in.
func pool(opts Options, events *atomic.Uint64) exec.Pool {
	p := exec.Pool{Workers: exec.WorkerCount(opts.Workers), Metrics: opts.Metrics}
	if opts.Progress != nil {
		hook := opts.Progress
		p.OnProgress = func(ep exec.Progress) {
			hook(Progress{Done: ep.Done, Total: ep.Total, Events: events.Load(), Elapsed: ep.Elapsed, Final: ep.Final})
		}
	}
	return p
}

// reduce folds per-replication metrics into the estimate, strictly in
// replication order so floating-point accumulation is scheduling-independent.
// Under antithetic VR the fold pairs consecutive replications and forms the
// intervals over the pair means, and the measured variance-reduction
// factor is reported alongside.
func reduce(metrics []model.Metrics, opts Options) Result {
	frac := opts.VarianceReduction.Fold(opts.Confidence)
	total := opts.VarianceReduction.Fold(opts.Confidence)
	for _, m := range metrics {
		frac.Add(m.UsefulWorkFraction)
		total.Add(m.TotalUsefulWork)
	}
	return Result{
		UsefulWorkFraction: frac.CI(),
		TotalUsefulWork:    total.CI(),
		PerReplication:     metrics,
		VR:                 vr.NewReport(frac.Paired()),
	}
}
