package model

import "repro/internal/san"

// Breakdown is the fraction of wall time the compute subsystem spends in
// each macro state. The components sum to 1 (up to floating point): at any
// instant the lumped compute unit is executing, quiescing, dumping a
// checkpoint, blocked on a blocking file-system write, recovering (either
// stage, including waits for I/O-node restarts), or rebooting.
//
// The paper's "over 50% of system time is spent in handling failures"
// claim (§7.1) is Recovery + Reboot + the repeated-work share of
// Execution; see Metrics.RepeatedWorkFraction.
type Breakdown struct {
	// Execution is time spent running the application (including
	// application I/O) — useful and to-be-lost work alike.
	Execution float64
	// Quiesce is time spent stopping for checkpoints (broadcast wait and
	// coordination), plus aborted-coordination waits.
	Quiesce float64
	// Dump is time spent dumping checkpoints to the I/O nodes.
	Dump float64
	// FSWait is time blocked on checkpoint file-system writes; always 0
	// unless the BlockingCheckpointWrite ablation is on.
	FSWait float64
	// Recovery is time spent in recovery stages 1 and 2, including time
	// waiting for I/O nodes to restart before a stage can proceed.
	Recovery float64
	// Reboot is time spent in whole-system reboots.
	Reboot float64
}

// Sum returns the total of all components (≈ 1 for a full window).
func (b Breakdown) Sum() float64 {
	return b.Execution + b.Quiesce + b.Dump + b.FSWait + b.Recovery + b.Reboot
}

// stateRewards are the per-state occupancy rate rewards behind Breakdown.
type stateRewards struct {
	execution *san.RateReward
	quiesce   *san.RateReward
	dump      *san.RateReward
	fsWait    *san.RateReward
	recovery  *san.RateReward
	reboot    *san.RateReward
}

// addStateRewards registers the occupancy rewards on the simulator as
// indicators of the places that mark each state, so the simulator only
// re-evaluates one when a place it reads changes — with mask tests, not a
// closure call.
func (in *Instance) addStateRewards() {
	pl, sim := in.pl, in.sim
	in.states = stateRewards{
		execution: sim.AddIndicator("state_execution", []*san.Place{pl.execution}, nil),
		quiesce:   sim.AddIndicator("state_quiesce", []*san.Place{pl.quiescing}, nil),
		dump:      sim.AddIndicator("state_dump", []*san.Place{pl.checkpointing}, nil),
		fsWait:    sim.AddIndicator("state_fswait", []*san.Place{pl.fsWait}, nil),
		recovery:  sim.AddIndicator("state_recovery", nil, []*san.Place{pl.recoveryStage1, pl.recoveryStage2}),
		reboot:    sim.AddIndicator("state_reboot", []*san.Place{pl.rebooting}, nil),
	}
}

// breakdownSnapshot captures the state integrals at one instant.
func (in *Instance) breakdownSnapshot() [6]float64 {
	return [6]float64{
		in.states.execution.Integral(),
		in.states.quiesce.Integral(),
		in.states.dump.Integral(),
		in.states.fsWait.Integral(),
		in.states.recovery.Integral(),
		in.states.reboot.Integral(),
	}
}

// breakdownBetween converts two snapshots into per-state fractions of the
// elapsed window.
func breakdownBetween(from, to [6]float64, window float64) Breakdown {
	if window <= 0 {
		return Breakdown{}
	}
	return Breakdown{
		Execution: (to[0] - from[0]) / window,
		Quiesce:   (to[1] - from[1]) / window,
		Dump:      (to[2] - from[2]) / window,
		FSWait:    (to[3] - from[3]) / window,
		Recovery:  (to[4] - from[4]) / window,
		Reboot:    (to[5] - from[5]) / window,
	}
}
