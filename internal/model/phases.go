package model

import (
	"repro/internal/phasetrace"
	"repro/internal/san"
)

// phaseDigest compiles the places a phasetrace.State digests to their bits
// in the marking's presence word, so one masked word stands for the whole
// digest.
type phaseDigest struct {
	mask uint64 // every bit below

	quiescing, checkpointing, fsWait, recoveryStage1, recoveryStage2,
	rebooting, migrating, sysUp uint64
}

func newPhaseDigest(pl *places) phaseDigest {
	d := phaseDigest{
		quiescing:      pl.quiescing.Bit(),
		checkpointing:  pl.checkpointing.Bit(),
		fsWait:         pl.fsWait.Bit(),
		recoveryStage1: pl.recoveryStage1.Bit(),
		recoveryStage2: pl.recoveryStage2.Bit(),
		rebooting:      pl.rebooting.Bit(),
		migrating:      pl.migrating.Bit(),
		sysUp:          pl.sysUp.Bit(),
	}
	d.mask = d.quiescing | d.checkpointing | d.fsWait | d.recoveryStage1 |
		d.recoveryStage2 | d.rebooting | d.migrating | d.sysUp
	return d
}

// state digests a presence word into the booleans the phase recorder
// classifies spans from.
func (d *phaseDigest) state(w uint64) phasetrace.State {
	return phasetrace.State{
		Quiescing:      w&d.quiescing != 0,
		Checkpointing:  w&d.checkpointing != 0,
		FSWait:         w&d.fsWait != 0,
		RecoveryStage1: w&d.recoveryStage1 != 0,
		RecoveryStage2: w&d.recoveryStage2 != 0,
		Rebooting:      w&d.rebooting != 0,
		Migrating:      w&d.migrating != 0,
		SysUp:          w&d.sysUp != 0,
	}
}

// phaseFeed is the instance's phase recording: one recorder the instance
// owns, fed by one firing hook. The simulator's hook list is append-only,
// so the hook is registered on the first AttachPhases and stays; it feeds
// the recorder only while on, which AttachPhases sets and Recycle clears.
type phaseFeed struct {
	rec    *phasetrace.Recorder // nil until the first AttachPhases
	on     bool
	digest phaseDigest
	acts   []phasetrace.Action // checkpoint-level action per activity index

	word uint64           // digest.mask bits of the last observed marking
	st   phasetrace.State // digest.state(word)
}

// AttachPhases resets the instance's phase-span recorder, opens its first
// span at the current time and state, and returns it. Attach before the
// first RunSteadyState/Advance call; call Finish (or Window, after
// FoldWindow) at the horizon.
//
// The instance owns the recorder: the returned pointer, and any Window or
// losses read from it, are valid only until the next Recycle or
// AttachPhases, which reset it for the next trajectory while keeping its
// span and loss storage. A Timeline from Finish is a copy and outlives
// both. Warm replications therefore record without allocating.
//
// Recording is purely observational — the hook reads the post-firing
// marking and never changes the trajectory
// (TestPhaseRecordingIsObservational). It is compiled to the presence
// word: per firing the hook masks the word to the phase places and looks
// up the activity's precomputed action. A firing that changes the masked
// word or has an action goes to ObserveAction, with the digest re-derived
// only if the word changed; every other firing goes to the recorder's
// Tick. That records exactly what the name-based Observe on the full
// digest records (TestLiveRecorderMatchesReplay).
func (in *Instance) AttachPhases() *phasetrace.Recorder {
	f := &in.phases
	if f.rec == nil {
		f.rec = phasetrace.NewRecorder(phasetrace.Options{
			NoBufferedRecovery: in.cfg.NoBufferedRecovery,
		})
		f.digest = newPhaseDigest(in.pl)
		acts := in.mod.Activities()
		f.acts = make([]phasetrace.Action, len(acts))
		for _, a := range acts {
			f.acts[a.Index()] = phasetrace.ActionOf(a.Name)
		}
		in.sim.AddFiringHook(in.observePhase)
	}
	f.rec.Reset()
	f.word = in.sim.CurrentMarking().Present() & f.digest.mask
	f.st = f.digest.state(f.word)
	f.rec.Begin(in.sim.Now(), f.st)
	f.on = true
	return f.rec
}

// detachPhases stops feeding the recorder and resets it (Recycle).
func (in *Instance) detachPhases() {
	if f := &in.phases; f.rec != nil {
		f.on = false
		f.rec.Reset()
	}
}

// observePhase is the firing hook behind AttachPhases.
func (in *Instance) observePhase(t float64, a *san.Activity, m *san.Marking) {
	f := &in.phases
	if !f.on {
		return
	}
	w, act := m.Present()&f.digest.mask, f.acts[a.Index()]
	if w == f.word && act == phasetrace.ActionNone {
		f.rec.Tick(t)
		return
	}
	if w != f.word {
		f.word, f.st = w, f.digest.state(w)
	}
	f.rec.ObserveAction(t, a.Name, act, f.st)
}
