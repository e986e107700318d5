package model

import (
	"repro/internal/phasetrace"
	"repro/internal/san"
)

// phaseState digests the marking into the handful of booleans the phase
// recorder classifies spans from.
func (in *Instance) phaseState(m *san.Marking) phasetrace.State {
	pl := in.pl
	return phasetrace.State{
		Quiescing:      m.Get(pl.quiescing) > 0,
		Checkpointing:  m.Get(pl.checkpointing) > 0,
		FSWait:         m.Get(pl.fsWait) > 0,
		RecoveryStage1: m.Get(pl.recoveryStage1) > 0,
		RecoveryStage2: m.Get(pl.recoveryStage2) > 0,
		Rebooting:      m.Get(pl.rebooting) > 0,
		Migrating:      m.Get(pl.migrating) > 0,
		SysUp:          m.Get(pl.sysUp) > 0,
	}
}

// AttachPhases wires a phase-span recorder to the instance's simulator via
// a firing hook and returns it. The hook reads the post-firing marking
// directly (no map snapshot), so phase recording costs a few place reads
// per firing and — being purely observational — provably cannot change the
// trajectory (see TestPhaseRecordingIsObservational).
//
// Attach before the first RunSteadyState/Advance call: the recorder opens
// its first span at the instance's current time and state. The returned
// recorder is live until the instance is recycled or discarded; call Finish
// at the horizon to extract the timeline.
//
// The simulator's hook list is append-only, so the instance registers one
// forwarding hook on first use and routes it through in.phaseRec. That is
// what lets a recycled instance attach a fresh recorder per replication
// without accumulating hooks (each Recycle detaches the previous recorder).
func (in *Instance) AttachPhases() *phasetrace.Recorder {
	rec := phasetrace.NewRecorder(phasetrace.Options{
		NoBufferedRecovery: in.cfg.NoBufferedRecovery,
	})
	rec.Begin(in.sim.Now(), in.phaseState(in.sim.CurrentMarking()))
	in.phaseRec = rec
	if !in.phaseHook {
		in.phaseHook = true
		in.sim.AddFiringHook(func(t float64, a *san.Activity, m *san.Marking) {
			if r := in.phaseRec; r != nil {
				r.Observe(t, a.Name, in.phaseState(m))
			}
		})
	}
	return rec
}
