package model

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/san"
)

// Metrics are the paper's performance measures for one simulated
// trajectory, measured over the post-transient window (Section 7).
type Metrics struct {
	// UsefulWorkFraction is the fraction of time the system makes forward
	// progress toward job completion, excluding work repeated because of
	// failures (Section 7).
	UsefulWorkFraction float64
	// TotalUsefulWork is UsefulWorkFraction × number of compute
	// processors: how many ideal failure-free processors the system is
	// worth (Section 7, "job units" per unit time).
	TotalUsefulWork float64
	// MeasuredTime is the length of the measurement window in hours.
	MeasuredTime float64
	// Breakdown is the per-state occupancy of the measurement window.
	Breakdown Breakdown
	// RepeatedWorkFraction is the share of wall time spent executing work
	// that was later lost to a rollback: Breakdown.Execution −
	// UsefulWorkFraction. Together with Recovery and Reboot it makes up
	// the paper's "time spent handling failures".
	RepeatedWorkFraction float64
	// MeanLostWorkPerFailure is the average useful work (hours) discarded
	// per rollback over the whole trajectory; 0 when no rollback occurred.
	MeanLostWorkPerFailure float64
	// MaxLostWork is the largest single rollback observed.
	MaxLostWork float64
	// Counters tallies discrete events over the whole trajectory
	// (including the transient, which is irrelevant for counts used as
	// rates over long runs but documented for precision).
	Counters Counters
}

func (mt Metrics) String() string {
	return fmt.Sprintf("useful=%.4f total=%.1f (T=%.0fh, fail=%d io=%d rec=%d ckpt=%d abort=%d reboot=%d)",
		mt.UsefulWorkFraction, mt.TotalUsefulWork, mt.MeasuredTime,
		mt.Counters.ComputeFailures, mt.Counters.IOFailures, mt.Counters.RecoveryFailures,
		mt.Counters.CheckpointsDumped, mt.Counters.CheckpointAborts, mt.Counters.Reboots)
}

// RunSteadyState simulates one trajectory: a transient period of warmup
// hours is discarded (the paper uses 1000 h), then the useful-work measures
// are taken over the following measure hours.
func (in *Instance) RunSteadyState(warmup, measure float64) (Metrics, error) {
	if warmup < 0 || measure <= 0 {
		return Metrics{}, fmt.Errorf("model: invalid window warmup=%v measure=%v", warmup, measure)
	}
	in.sim.RunUntil(warmup)
	usefulAtWarmup := in.useful()
	statesAtWarmup := in.breakdownSnapshot()
	in.sim.RunUntil(warmup + measure)
	useful := in.useful() - usefulAtWarmup
	frac := useful / measure
	if frac < 0 {
		// A rollback that straddles the warmup boundary can push the
		// windowed useful work slightly negative on pathological
		// configurations; clamp, since negative forward progress over
		// a window only means "nothing retained".
		frac = 0
	}
	breakdown := breakdownBetween(statesAtWarmup, in.breakdownSnapshot(), measure)
	repeated := breakdown.Execution - frac
	if repeated < 0 {
		repeated = 0
	}
	return Metrics{
		UsefulWorkFraction:     frac,
		TotalUsefulWork:        frac * float64(in.cfg.Processors),
		MeasuredTime:           measure,
		Breakdown:              breakdown,
		RepeatedWorkFraction:   repeated,
		MeanLostWorkPerFailure: in.lossStats.Mean(),
		MaxLostWork:            in.lossStats.Max(),
		Counters:               in.counters,
	}, nil
}

// Advance runs the trajectory to the given absolute time (for tests that
// inspect intermediate state).
func (in *Instance) Advance(to float64) { in.sim.RunUntil(to) }

// SetFullScan switches the underlying simulator between the incremental
// dependency-index scheduler (default) and the conservative full-rescan
// path. The two are bit-identical by construction; the full-scan mode
// exists for differential testing and debugging.
func (in *Instance) SetFullScan(on bool) { in.sim.FullScan = on }

// Instrument attaches the underlying simulator's telemetry (firings,
// settles, reactivations, dirty-closure sizes, queue depths) to the given
// observability shard; nil detaches. Call FlushEngineStats once when the
// trajectory ends, then merge the shard.
func (in *Instance) Instrument(sh *obs.Shard) { in.sim.Instrument(sh) }

// FlushEngineStats folds the executor calendar's cumulative event
// counters into the attached shard (see san.Simulator.FlushEngineStats).
func (in *Instance) FlushEngineStats() { in.sim.FlushEngineStats() }

// Useful returns the net useful work accrued since time zero.
func (in *Instance) Useful() float64 { return in.useful() }

// Now returns the instance's current simulated time.
func (in *Instance) Now() float64 { return in.sim.Now() }

// Fired returns the number of activity firings executed so far — the
// trajectory's event count, used for progress reporting and throughput
// accounting by the runner.
func (in *Instance) Fired() uint64 { return in.sim.Fired() }

// Snapshot exposes the current marking by place name (tests only).
func (in *Instance) Snapshot() map[string]int { return in.sim.Snapshot() }

// SecuredBuffered returns the useful work secured by the buffered
// checkpoint (tests only).
func (in *Instance) SecuredBuffered() float64 { return in.capB }

// SecuredDurable returns the useful work secured by the durable checkpoint
// (tests only).
func (in *Instance) SecuredDurable() float64 { return in.capD }

// SetTrace installs an observer invoked after every activity firing with
// the firing time, the activity name and (when includeMarking is set) the
// non-empty places of the post-firing marking. A nil observer disables
// tracing. Tracing a long trajectory is expensive; it exists for debugging
// and for the cctrace tool.
func (in *Instance) SetTrace(f func(t float64, activity string, marking map[string]int), includeMarking bool) {
	if f == nil {
		in.sim.SetTrace(nil)
		return
	}
	in.sim.SetTrace(func(t float64, a *san.Activity, m *san.Marking) {
		var snap map[string]int
		if includeMarking {
			snap = make(map[string]int)
			for _, p := range in.mod.Places() {
				if n := m.Get(p); n > 0 {
					snap[p.Name] = n
				}
			}
		}
		f(t, a.Name, snap)
	})
}
