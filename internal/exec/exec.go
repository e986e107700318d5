// Package exec is the simulation execution engine: a bounded worker pool
// that fans independent jobs out across goroutines while keeping every
// observable result deterministic.
//
// The determinism contract is structural, not lucky: callers assign all
// randomness (replication seeds, cell seeds) to jobs *before* dispatch and
// collect results by submission index, so neither the worker count nor the
// completion order can influence what a run computes. The pool adds the
// operational concerns every consumer would otherwise reimplement:
// context cancellation, per-job panic capture (a panicking job surfaces as
// an error instead of crashing the process from a nameless goroutine), and
// serialized progress snapshots for -progress style reporting.
//
// Every simulation consumer in this repository — replication fan-out in
// internal/runner, the (series, x) cell grids of internal/experiments,
// candidate sweeps in internal/opt, parameter fan-out in
// internal/sensitivity and the row sweeps of cmd/ccsweep — runs on this
// pool.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
)

// Job is one unit of work. Jobs must be independent of each other; the
// pool may run them in any order and on any goroutine.
type Job func(ctx context.Context) error

// Progress is a snapshot of a pool run, delivered to Pool.OnProgress.
type Progress struct {
	// Total is the number of jobs submitted to Run.
	Total int
	// Queued is the number of jobs not yet started.
	Queued int
	// Running is the number of jobs currently executing.
	Running int
	// Done is the number of finished jobs, including failures.
	Done int
	// Failed is the number of finished jobs that returned an error or
	// panicked.
	Failed int
	// Elapsed is the wall time since the run began.
	Elapsed time.Duration
	// Final marks the last snapshot of a run. It is set exactly once per
	// Run invocation, whether the run completed every job or ended early
	// (cancellation, job failure), so consumers can flush line-oriented
	// progress displays unconditionally.
	Final bool
}

// Pool is a bounded worker pool. The zero value runs jobs sequentially on
// the calling goroutine.
type Pool struct {
	// Workers bounds concurrency. Values below 1 mean 1 (sequential).
	Workers int
	// OnProgress, when non-nil, is invoked with a snapshot after every
	// job state change (start and completion). Calls are serialized; the
	// callback must not call back into the pool and should be fast.
	OnProgress func(Progress)
	// Metrics, when non-nil, receives pool telemetry: exec.jobs_started /
	// exec.jobs_done / exec.jobs_failed counters, an exec.jobs_running
	// gauge and an exec.job_wall_s timer of per-job wall time. The
	// registry is shared and live, so a debug endpoint can watch a run.
	Metrics *obs.Registry
}

// PanicError wraps a panic recovered from a job so the caller sees an
// ordinary error (with the offending job's index and stack) instead of a
// crash from an anonymous worker goroutine.
type PanicError struct {
	// Index is the submission index of the panicking job.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// WorkerCount resolves a Workers option shared by every consumer:
// n > 0 is used as given, 0 means sequential (the historic single-threaded
// behavior of the consumers, and the zero-value default of their Options),
// and negative means one worker per CPU.
func WorkerCount(n int) int {
	switch {
	case n > 0:
		return n
	case n == 0:
		return 1
	default:
		return runtime.NumCPU()
	}
}

// run is the shared state of one Run invocation.
type run struct {
	pool  Pool
	jobs  []Job
	start time.Time
	errs  []error // one slot per job; only the job's worker writes it

	mu      sync.Mutex
	started int
	running int
	done    int
	failed  int
	aborted bool

	// Metric handles, resolved once per Run when pool.Metrics is set.
	mStarted *obs.Counter
	mDone    *obs.Counter
	mFailed  *obs.Counter
	mRunning *obs.Gauge
	mWall    *obs.Timer
}

// Run executes the jobs on at most p.Workers goroutines and blocks until
// every started job has finished. After a job fails (error or panic) no
// further jobs start; already-running jobs complete. The returned error is
// the failure with the lowest submission index among those observed, which
// for a single failing job is independent of scheduling; with no job
// failure, Run returns ctx.Err() if cancellation prevented any job from
// running, else nil.
func (p Pool) Run(ctx context.Context, jobs []Job) error {
	r := &run{pool: p, jobs: jobs, start: time.Now(), errs: make([]error, len(jobs))}
	if m := p.Metrics; m != nil {
		r.mStarted = m.Counter("exec.jobs_started")
		r.mDone = m.Counter("exec.jobs_done")
		r.mFailed = m.Counter("exec.jobs_failed")
		r.mRunning = m.Gauge("exec.jobs_running")
		r.mWall = m.Timer("exec.job_wall_s")
	}
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		r.worker(ctx, &counter{})
	} else {
		var wg sync.WaitGroup
		next := &counter{}
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				r.worker(ctx, next)
			}()
		}
		wg.Wait()
	}
	// A run that completed every job already emitted its final snapshot
	// from the last jobDone. Runs cut short (cancellation, failure abort)
	// and empty runs still owe observers exactly one Final snapshot.
	if r.done < len(jobs) || len(jobs) == 0 {
		r.mu.Lock()
		r.notifyLocked(true)
		r.mu.Unlock()
	}
	for _, err := range r.errs {
		if err != nil {
			return err
		}
	}
	if r.started < len(jobs) {
		return ctx.Err()
	}
	return nil
}

// counter hands out job indices; shared across the run's workers.
type counter struct {
	mu sync.Mutex
	n  int
}

func (c *counter) next() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n++
	return n
}

// worker claims and executes jobs until they run out, the context is
// cancelled, or a job fails.
func (r *run) worker(ctx context.Context, next *counter) {
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		i := next.next()
		if i >= len(r.jobs) {
			return
		}
		if !r.jobStarted() {
			return
		}
		jobStart := time.Now()
		err := capture(ctx, i, r.jobs[i])
		r.errs[i] = err
		r.jobDone(err != nil, time.Since(jobStart))
	}
}

// capture runs one job, converting a panic into a *PanicError.
func capture(ctx context.Context, i int, job Job) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return job(ctx)
}

// jobStarted records a job start and reports whether the run still accepts
// work (false once a previous job has failed).
func (r *run) jobStarted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.aborted {
		return false
	}
	r.started++
	r.running++
	if r.mStarted != nil {
		r.mStarted.Inc()
		r.mRunning.Add(1)
	}
	r.notifyLocked(false)
	return true
}

// jobDone records a job completion and its wall time.
func (r *run) jobDone(failed bool, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.running--
	r.done++
	if failed {
		r.failed++
		r.aborted = true
	}
	if r.mDone != nil {
		r.mDone.Inc()
		r.mRunning.Add(-1)
		r.mWall.Observe(wall)
		if failed {
			r.mFailed.Inc()
		}
	}
	// The natural last completion doubles as the run's final snapshot, so
	// a fully-completed run keeps its historical snapshot count.
	r.notifyLocked(r.done == len(r.jobs))
}

// notifyLocked delivers a progress snapshot; r.mu must be held, which
// serializes the callback.
func (r *run) notifyLocked(final bool) {
	if r.pool.OnProgress == nil {
		return
	}
	r.pool.OnProgress(Progress{
		Total:   len(r.jobs),
		Queued:  len(r.jobs) - r.started,
		Running: r.running,
		Done:    r.done,
		Failed:  r.failed,
		Elapsed: time.Since(r.start),
		Final:   final,
	})
}

// Map runs fn for every index in [0, n) on the pool and returns the
// results in index order. The index-addressed result slice is what makes
// parallel runs deterministic: each job owns one slot, so completion order
// is irrelevant. On error the results are discarded and the lowest-index
// failure is returned (see Pool.Run).
func Map[T any](ctx context.Context, p Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) error {
			v, err := fn(ctx, i)
			if err != nil {
				return err
			}
			out[i] = v
			return nil
		}
	}
	if err := p.Run(ctx, jobs); err != nil {
		return nil, err
	}
	return out, nil
}
