package model

import "repro/internal/stats"

// Recycle rewinds the instance to the state New(cfg, seed) would return,
// without reconstructing anything: the SAN graph, its dependency index, the
// reward registrations and the simulator (calendar, marking, per-activity
// caches) are all reused. Only trajectory state is rewound —
// the random stream is reseeded in place, the reward scalars and counters
// are zeroed, the phase recorder is detached and reset, and san.Simulator.
// Reset restores the initial marking and reschedules the initial events.
//
// A recycled instance reproduces the trajectory of a freshly built one
// bit-for-bit (pinned by TestRecycleMatchesFreshBuild across every model
// variant × seed): the reseeded stream emits the same values, the reset
// calendar restarts its sequence numbers, and the initial settle
// reconciles in creation order exactly as at construction. This is what
// lets runner workers build each model configuration once and reuse it for
// all their replications with zero allocations in the measured window.
//
// The seed ordering matters: the stream is reseeded before sim.Reset,
// because the initial settle already samples activity delays.
func (in *Instance) Recycle(seed uint64) {
	in.src.Reseed(seed)
	if in.vrCRN {
		// Fresh per-purpose CRN sub-streams (and draw counters) for the
		// new replication, derived before sim.Reset for the same reason
		// the main stream is reseeded first.
		in.derivePurposes(seed)
	}
	in.pendingWriteScale = 1
	in.lost = 0
	in.capB = 0
	in.capD = 0
	in.lossStats = stats.Accumulator{}
	in.counters = Counters{}
	in.detachPhases()
	in.sim.Reset()
}

// PoolStats reports the executor calendar's numbers for this trajectory in
// the terms of a pooled event engine (see san.Simulator.PoolStats): hits
// are schedules below the pending high-water mark, misses are schedules
// that raised it (where a pool would allocate), and size is the mark minus
// the firings pending. Hits and misses rewind on Recycle, so they describe
// the current replication only.
func (in *Instance) PoolStats() (hits, misses uint64, size int) {
	return in.sim.PoolStats()
}
