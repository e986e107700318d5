package phasetrace

import (
	"fmt"

	"repro/internal/trace"
)

// StateFromMarking digests a recorded marking (place name → token count,
// zero counts omitted) into the fields the phase classifier needs. The
// place names are the paper model's; any other SAN would need its own
// digest function.
func StateFromMarking(m map[string]int) State {
	return State{
		Quiescing:      m["quiescing"] > 0,
		Checkpointing:  m["checkpointing"] > 0,
		FSWait:         m["fs_wait"] > 0,
		RecoveryStage1: m["recovery_stage1"] > 0,
		RecoveryStage2: m["recovery_stage2"] > 0,
		Rebooting:      m["rebooting"] > 0,
		Migrating:      m["migrating"] > 0,
		SysUp:          m["sys_up"] > 0,
	}
}

// FromEvents replays a recorded event stream (as written by
// `cctrace -marking`) through a Recorder and returns the timeline up to
// `end` (pass the trajectory horizon; if end is ≤ the last event time the
// last event time is used). Every event must carry a marking — streams
// recorded without `-marking` cannot be phase-classified.
func FromEvents(events []trace.Event, end float64, opts Options) (*Timeline, error) {
	rec := NewRecorder(opts)
	// The model starts executing with the system up at t = 0.
	rec.Begin(0, State{SysUp: true})
	last := 0.0
	for i, ev := range events {
		if ev.Marking == nil {
			return nil, fmt.Errorf("phasetrace: event %d (%s at t=%g) has no marking; record the trace with markings enabled (cctrace -marking)", i, ev.Activity, ev.Time)
		}
		rec.Observe(ev.Time, ev.Activity, StateFromMarking(ev.Marking))
		last = ev.Time
	}
	if end < last {
		end = last
	}
	return rec.Finish(end), nil
}
