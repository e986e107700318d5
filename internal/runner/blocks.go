package runner

// This file is the glue between the estimation loop and the
// internal/blocks sweep engine. PlanGrid turns a multi-cell sweep into a
// content-hashed manifest, BlockRunner executes one claimed block of
// either manifest kind with exactly the record schema the monolithic
// journal writer uses, and EstimateGrid is the monolithic mode — the
// whole plan claimed and reduced inside one process, which is what
// ccsweep and the experiments grid run and what the distributed path must
// reproduce bit for bit.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/blocks"
	"repro/internal/cyclesim"
	"repro/internal/exec"
	"repro/internal/obs"
)

// PlanGrid builds the estimate-kind manifest for a multi-cell sweep.
// Each cell carries its own root seed and replication count; the windows
// and confidence level come from opts (after defaulting, so the manifest
// records the values that actually run). blockSize ≤ 0 plans one block
// per replication — the finest claiming granularity.
func PlanGrid(name string, cells []blocks.Cell, blockSize int, opts Options) (*blocks.Manifest, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if blockSize <= 0 {
		blockSize = 1
	}
	// Cells that leave Replications unset inherit the (defaulted) option,
	// so callers spell the replication count once.
	planned := make([]blocks.Cell, len(cells))
	copy(planned, cells)
	for i := range planned {
		if planned[i].Replications == 0 {
			planned[i].Replications = opts.Replications
		}
	}
	return blocks.Plan(planned, blocks.PlanOptions{
		Name:       name,
		Kind:       blocks.KindEstimate,
		Warmup:     opts.Warmup,
		Measure:    opts.Measure,
		Confidence: opts.Confidence,
		BlockSize:  blockSize,
		VR:         opts.VarianceReduction,
	})
}

// BlockRunner returns the blocks.RunFunc for both manifest kinds: it
// executes one claimed block's replications with the seeds the manifest
// pre-assigned. Estimate blocks hand back records built by the same
// repFields the monolithic journal writer uses — which is the whole
// byte-identity argument at the record level; completion blocks go to
// completionBlock. workers bounds in-block parallelism of estimate blocks
// (0/1 sequential, negative one per CPU); metrics, when non-nil, receives
// the same runner.*/des.* telemetry a monolithic run records.
func BlockRunner(workers int, metrics *obs.Registry) blocks.RunFunc {
	return func(ctx context.Context, m *blocks.Manifest, b blocks.Block) (blocks.BlockOutput, error) {
		if m.Kind == blocks.KindCompletion {
			return completionBlock(ctx, m, b)
		}
		if m.Kind != blocks.KindEstimate {
			return blocks.BlockOutput{}, fmt.Errorf("runner: cannot run %q blocks", m.Kind)
		}
		cell := m.Cells[b.CellIndex]
		opts := Options{
			Replications:      b.Reps(),
			Warmup:            m.Warmup,
			Measure:           m.Measure,
			Confidence:        m.Confidence,
			Seed:              cell.Seed,
			Workers:           workers,
			Metrics:           metrics,
			Label:             cell.Label,
			VarianceReduction: m.VR,
			forceSim:          true,
		}.withDefaults()
		start := time.Now()
		outs, err := runBlock(ctx, cell.Config, b, opts)
		if err != nil {
			return blocks.BlockOutput{}, err
		}
		out := blocks.BlockOutput{Records: make([]blocks.Record, len(outs))}
		for i, o := range outs {
			out.Events += o.fired
			// rep is the cell-global replication index, so merged journals
			// number replications exactly as a monolithic run does.
			out.Records[i] = blocks.Record{
				Kind:   "replication",
				Fields: repFields(b.RepStart+i, b.Seeds[i], o, opts),
			}
		}
		// Publish the block's event rate the same way recordEstimate does
		// for monolithic runs, so worker heartbeats and -debug-addr
		// dashboards get a live runner.events_per_sec in distributed mode.
		if metrics != nil {
			if dt := time.Since(start).Seconds(); dt > 0 {
				metrics.FloatGauge("runner.events_per_sec").Set(float64(out.Events) / dt)
			}
		}
		return out, nil
	}
}

// completionBlock runs one claimed completion-kind block: one
// cyclesim.CompletionRun per pre-assigned seed, in order — the loop
// cyclesim.JobCompletion runs — so the reduced samples fold to the
// monolithic forecast bit for bit.
func completionBlock(ctx context.Context, m *blocks.Manifest, b blocks.Block) (blocks.BlockOutput, error) {
	cell := m.Cells[b.CellIndex]
	out := blocks.BlockOutput{Records: make([]blocks.Record, len(b.Seeds))}
	for i, seed := range b.Seeds {
		if err := ctx.Err(); err != nil {
			return blocks.BlockOutput{}, err
		}
		wall, err := cyclesim.CompletionRun(cell.Config, m.Work, seed)
		if err != nil {
			return blocks.BlockOutput{}, err
		}
		fields := map[string]any{"rep": b.RepStart + i, "seed": seed, "wall_hours": wall}
		if cell.Label != "" {
			fields["label"] = cell.Label
		}
		out.Records[i] = blocks.Record{Kind: "replication", Fields: fields}
	}
	return out, nil
}

// CellError tags a grid-cell failure with the cell's identity so sweep
// frontends can report which point of the grid failed.
type CellError struct {
	Index int
	Label string
	X     float64
	Err   error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %d (%s): %v", e.Index, e.Label, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// EstimateGrid runs every cell of an estimate manifest inside this
// process — monolithic mode: the plan is claimed whole and reduced in
// manifest order, no run directory involved. Cells fan out on an exec
// pool with opts.Workers workers; each cell's replications run
// sequentially inside its job, so the grid is the unit of parallelism and
// results are bit-identical for every worker count. cellOpts, when
// non-nil, refines the per-cell Options after the manifest values are
// applied — sweeps use it to attach per-cell journals and labels. Cell
// failures are reported as *CellError.
func EstimateGrid(ctx context.Context, m *blocks.Manifest, opts Options, cellOpts func(ci int, o Options) Options) ([]Result, error) {
	if m.Kind != blocks.KindEstimate {
		return nil, fmt.Errorf("runner: cannot estimate %q manifest", m.Kind)
	}
	opts = opts.withDefaults()
	p := exec.Pool{Workers: exec.WorkerCount(opts.Workers), Metrics: opts.Metrics}
	return exec.Map(ctx, p, len(m.Cells), func(ctx context.Context, ci int) (Result, error) {
		cell := m.Cells[ci]
		o := opts
		o.Replications = cell.Replications
		o.Seed = cell.Seed
		o.Warmup = m.Warmup
		o.Measure = m.Measure
		o.Confidence = m.Confidence
		o.Label = cell.Label
		o.VarianceReduction = m.VR
		o.Workers = 1 // the grid is already parallel; don't oversubscribe
		o.Progress = nil
		// Cells complete in scheduling order, so a journal shared across
		// cells would interleave nondeterministically; cellOpts may attach a
		// per-cell journal (ccsweep buffers one per row).
		o.Journal = nil
		if cellOpts != nil {
			o = cellOpts(ci, o)
		}
		res, err := EstimateContext(ctx, cell.Config, o)
		if err != nil {
			return Result{}, &CellError{Index: ci, Label: cell.Label, X: cell.X, Err: err}
		}
		return res, nil
	})
}
