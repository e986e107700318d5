package cyclesim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/stats"
)

// CompletionTime simulates from a fresh start until the job has
// accumulated `work` hours of useful work and returns the wall-clock time
// that took — the completion-time measure of Kulkarni, Nicola & Trivedi
// [17] that the paper's useful-work reward is modeled on. The simulator is
// single-use afterwards.
//
// maxWall bounds the simulation: if the machine cannot complete the work
// within it (e.g. a pathological configuration that never retains
// progress), an error is returned.
func (s *Simulator) CompletionTime(work, maxWall float64) (float64, error) {
	if work <= 0 {
		return 0, fmt.Errorf("cyclesim: work %v must be positive", work)
	}
	if maxWall <= 0 {
		maxWall = math.Inf(1)
	}
	s.warmup = math.Inf(1) // never mark: completion runs measure nothing
	s.stopTarget = work
	s.run(maxWall)
	if !s.stopped {
		return 0, fmt.Errorf("cyclesim: job (%v h of work) not complete within %v h of wall time", work, maxWall)
	}
	return s.stopTime, nil
}

// Completion summarises the completion-time distribution of a job across
// independent replications.
type Completion struct {
	// Mean is the replication-mean wall-clock completion time with CI.
	Mean stats.Interval
	// Samples holds each replication's completion time, sorted.
	Samples []float64
	// Work is the useful work the job required, in hours.
	Work float64
}

// Quantile returns the q-th empirical quantile of the completion times.
func (c Completion) Quantile(q float64) float64 {
	if len(c.Samples) == 0 {
		return 0
	}
	idx := int(q * float64(len(c.Samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.Samples) {
		idx = len(c.Samples) - 1
	}
	return c.Samples[idx]
}

// Stretch returns the mean slowdown relative to a failure-free,
// checkpoint-free machine: mean completion time / work.
func (c Completion) Stretch() float64 {
	if c.Work == 0 {
		return 0
	}
	return c.Mean.Mean / c.Work
}

// CompletionRun simulates one replication of a job needing `work` hours
// of useful work under the given seed and returns its wall-clock
// completion time. The wall bound is generous: even a machine retaining
// 0.1% of its time finishes within work×1000.
func CompletionRun(cfg cluster.Config, work float64, seed uint64) (float64, error) {
	s, err := New(cfg, seed)
	if err != nil {
		return 0, err
	}
	return s.CompletionTime(work, work*1000)
}

// FoldCompletion summarises per-replication completion times, given in
// replication order, at the confidence level. The interval accumulates in
// that order, so any caller holding the same samples — a monolithic run
// or a reduced run directory — gets the same bits.
func FoldCompletion(work float64, samples []float64, level float64) Completion {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return Completion{Mean: stats.NewFold(level, false).AddAll(samples).CI(), Samples: sorted, Work: work}
}

// JobCompletion estimates the completion-time distribution of a job
// needing `work` hours of useful work, over the given number of
// replications. The configuration must be inside the cycle engine's
// envelope.
func JobCompletion(cfg cluster.Config, work float64, replications int, seed uint64) (Completion, error) {
	if replications < 1 {
		return Completion{}, fmt.Errorf("cyclesim: replications %d < 1", replications)
	}
	root := rng.New(seed)
	samples := make([]float64, replications)
	for r := range samples {
		wall, err := CompletionRun(cfg, work, root.Uint64())
		if err != nil {
			return Completion{}, err
		}
		samples[r] = wall
	}
	return FoldCompletion(work, samples, 0.95), nil
}
