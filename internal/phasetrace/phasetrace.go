// Package phasetrace turns a trajectory of the checkpointing model into a
// timeline of semantic phase spans — the time budgets the paper's headline
// quantities are made of. Where internal/trace records *what fired when*,
// phasetrace records *what the machine was doing*: computing, quiescing for
// a checkpoint, dumping state to the I/O nodes, blocked on a file-system
// write, recovering, or down in a whole-system reboot.
//
// The extractor is a small deterministic state machine fed one observation
// per activity firing (time, activity name, and a digest of the post-firing
// marking). It works identically for every model variant — the base model,
// max-of-n coordination, the master timeout, and correlated failures —
// because the phase is a pure function of the compute-side macro state,
// which all variants share; variant-specific activities only differ in
// *when* they move the system between those states.
//
// Besides spans the recorder mirrors the model's useful-work bookkeeping
// (buffered/durable checkpoint levels, rollback losses), which lets a
// timeline independently re-derive the reward-based useful-work estimate:
// useful work over a window is computation time minus the work lost to
// rollbacks in that window. The runner's self-verification pass
// (runner.Options.VerifySpans) cross-checks the two derivations against
// each other — observability that audits the simulator with itself.
package phasetrace

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Phase is a semantic machine state. The zero value is Computation, the
// state the model starts in.
type Phase uint8

const (
	// Computation: the compute nodes execute the application (including
	// foreground application I/O — the paper counts both as execution).
	Computation Phase = iota
	// Rework: computation that re-does work lost to a rollback. Produced
	// only by Timeline.SplitRework, which splits Computation spans at the
	// point where the pre-failure high-water mark is re-attained; the raw
	// recorder cannot know at span-open time whether work will survive.
	Rework
	// Quiesce: stopping for a checkpoint — broadcast wait plus the
	// coordination (slowest-node quiesce), including waits that a master
	// timeout later aborts.
	Quiesce
	// Dump: checkpoint state streaming to the I/O nodes.
	Dump
	// FSWait: compute nodes blocked on the checkpoint file-system write
	// (only under the BlockingCheckpointWrite ablation).
	FSWait
	// Recovery: recovery stages 1 and 2, including waits for I/O-node
	// restarts before a stage can proceed.
	Recovery
	// Downtime: whole-system reboot after severe failures.
	Downtime
	// Migration: proactive process migration after a predicted failure
	// (only under the FailurePredictionAccuracy extension). The
	// application is paused but no work is lost and no rollback occurs.
	Migration

	// NumPhases is the number of distinct phases (array sizing).
	NumPhases
)

var phaseNames = [NumPhases]string{
	"computation", "rework", "quiesce", "dump", "fswait", "recovery", "downtime",
	"migration",
}

// String returns the lower-case phase name used in span records, metric
// names and trace-viewer labels.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// MarshalJSON encodes the phase as its name.
func (p Phase) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON decodes a phase name.
func (p *Phase) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range phaseNames {
		if name == s {
			*p = Phase(i)
			return nil
		}
	}
	return fmt.Errorf("phasetrace: unknown phase %q", s)
}

// Phases lists every phase in display order.
func Phases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Span is one contiguous interval the system spent in a phase. Times are
// simulated hours.
type Span struct {
	Phase Phase   `json:"phase"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Cause is the activity whose firing opened the span ("init" for the
	// span open when recording began).
	Cause string `json:"cause"`
}

// Duration returns End − Start.
func (s Span) Duration() float64 { return s.End - s.Start }

// Loss is one rollback impulse: at Time, Amount hours of useful work were
// discarded because the system rolled back to its newest valid checkpoint.
type Loss struct {
	Time   float64 `json:"t"`
	Amount float64 `json:"lost"`
	Cause  string  `json:"cause"`
}

// State is the marking digest the recorder needs: the compute-side macro
// state places other than execution, plus the up flag. Exactly one macro
// state holds at any instant in a well-formed trajectory; Phase() resolves
// them in priority order, Computation when none is marked, so a digest
// from a transient mid-effect marking still classifies.
type State struct {
	Quiescing      bool // place "quiescing"
	Checkpointing  bool // place "checkpointing"
	FSWait         bool // place "fs_wait"
	RecoveryStage1 bool // place "recovery_stage1"
	RecoveryStage2 bool // place "recovery_stage2"
	Rebooting      bool // place "rebooting"
	Migrating      bool // place "migrating"
	SysUp          bool // place "sys_up"
}

// Phase classifies the digest.
func (st State) Phase() Phase {
	switch {
	case st.Rebooting:
		return Downtime
	case st.RecoveryStage1 || st.RecoveryStage2:
		return Recovery
	case st.FSWait:
		return FSWait
	case st.Checkpointing:
		return Dump
	case st.Quiescing:
		return Quiesce
	case st.Migrating:
		return Migration
	default:
		return Computation
	}
}

// Action is the checkpoint-level bookkeeping one activity's firing
// applies, as the model's effects apply it (see internal/model/failrec.go).
// Observe derives it from the activity name with ActionOf; a live observer
// that knows its activities computes each one's action once and passes it
// to ObserveAction.
type Action uint8

const (
	// ActionNone: the firing moves no checkpoint level.
	ActionNone Action = iota
	// ActionDump ("dump_chkpt"): the buffered checkpoint captures all
	// work up to the quiesce point; nothing accrued since, so it secures
	// exactly the current useful level.
	ActionDump
	// ActionWrite ("write_chkpt"): the durable copy catches up with the
	// buffer.
	ActionWrite
	// ActionRestore ("io_failure", "recover_stage1"): the buffers fall
	// back to the durable level — an I/O restart wipes them before any
	// rollback the same firing may trigger, and recovery stage 1 re-reads
	// the durable checkpoint into them.
	ActionRestore
)

// ActionOf maps a paper-model activity name to its checkpoint-level
// action; every other name is ActionNone.
func ActionOf(activity string) Action {
	switch activity {
	case "dump_chkpt":
		return ActionDump
	case "write_chkpt":
		return ActionWrite
	case "io_failure", "recover_stage1":
		return ActionRestore
	}
	return ActionNone
}

// Options configures a recorder.
type Options struct {
	// NoBufferedRecovery mirrors cluster.Config.NoBufferedRecovery: under
	// that ablation a rollback ignores the buffered checkpoint, so the
	// loss accounting must fall back to the durable level first.
	NoBufferedRecovery bool
}

// Recorder is the live phase-span extractor: feed it one Observe per
// activity firing (model.Instance.AttachPhases wires this up) and call
// Finish at the horizon. A Recorder is single-goroutine, like the
// simulator that feeds it. Observe is the reference path: it classifies
// the firing from the activity name and the full digest. A live observer
// may instead call ObserveAction with a precomputed action, and Tick for a
// firing that changes neither the digest nor a checkpoint level; the three
// record the same timeline bit for bit.
//
// By default the recorder keeps every span, for exports and replays that
// need the timeline. After FoldWindow it keeps none: each span is folded
// into a measurement window the moment it closes, so a replication's
// memory is O(rollbacks) instead of O(spans).
type Recorder struct {
	opts    Options
	started bool

	cur      Phase
	curStart float64
	curCause string
	lastT    float64

	prevSysUp     bool
	prevRebooting bool

	// Useful-work mirror of model.Instance: useful accrues at rate 1
	// during Computation; capB/capD track the buffered/durable checkpoint
	// levels; a rollback resets useful to capB.
	useful, capB, capD float64

	spans  []Span
	losses []Loss

	// folding routes closed spans into win instead of spans.
	folding bool
	win     Window
}

// NewRecorder returns an idle recorder; call Begin before Observe.
func NewRecorder(opts Options) *Recorder { return &Recorder{opts: opts} }

// Reset returns the recorder to the idle state NewRecorder gives, with the
// same options, keeping the capacity of its span and loss storage: a
// recorder reused across trajectories stops allocating once it has held
// the longest. Windows and losses read from it before the Reset share that
// storage and are overwritten by the next trajectory; a Timeline from
// Finish is a copy and stays valid.
func (r *Recorder) Reset() {
	*r = Recorder{opts: r.opts, spans: r.spans[:0], losses: r.losses[:0]}
}

// Begin opens the first span at time t from the given state. Beginning
// twice panics — a recorder extracts exactly one trajectory.
func (r *Recorder) Begin(t float64, st State) {
	if r.started {
		panic("phasetrace: Begin called twice")
	}
	r.started = true
	r.cur = st.Phase()
	r.curStart, r.lastT = t, t
	r.curCause = "init"
	r.prevSysUp, r.prevRebooting = st.SysUp, st.Rebooting
}

// Observe feeds one activity firing: the firing time, the activity name
// and the post-firing marking digest. Observations must be time-ordered.
func (r *Recorder) Observe(t float64, activity string, st State) {
	r.ObserveAction(t, activity, ActionOf(activity), st)
}

// Tick feeds a firing that leaves the digest as the previous observation
// (or Begin) left it and applies ActionNone: for such a firing it is
// exactly Observe, which then only accrues computation time. Keeping that
// accrual per firing keeps the order of the float additions — and with it
// every useful level and loss — identical to Observe's.
func (r *Recorder) Tick(t float64) {
	if r.cur == Computation {
		r.useful += t - r.lastT
	}
	r.lastT = t
}

// ObserveAction is Observe with the firing's checkpoint-level action
// already derived from the activity name (ActionOf), which becomes the
// cause of any span or loss the firing opens.
func (r *Recorder) ObserveAction(t float64, activity string, act Action, st State) {
	if !r.started {
		panic("phasetrace: Observe before Begin")
	}
	r.Tick(t)

	// Close the span before recording this firing's rollback: the span
	// ends at t, and a loss at t applies only to spans that start at or
	// after t (see reworkSplit.split), so the fold takes the span first.
	if p := st.Phase(); p != r.cur {
		if t > r.curStart {
			r.close(Span{Phase: r.cur, Start: r.curStart, End: t, Cause: r.curCause})
		}
		// A zero-length span (several phase changes at one instant)
		// is dropped; the latest activity becomes the new span's cause.
		r.cur, r.curStart, r.curCause = p, t, activity
	}

	// Checkpoint-level bookkeeping, mirroring the model's effects in the
	// order the effects apply them (see Action).
	switch act {
	case ActionDump:
		r.capB = r.useful
	case ActionWrite:
		r.capD = r.capB
	case ActionRestore:
		r.capB = r.capD
	}
	if st.Rebooting && !r.prevRebooting {
		// Entering a reboot loses the I/O-node buffers too.
		r.capB = r.capD
	}
	// Rollback: the compute subsystem went down while up. Every such
	// transition — compute failure, or an I/O failure that lost
	// application data — discards the work since the newest valid
	// checkpoint.
	if r.prevSysUp && !st.SysUp {
		if r.opts.NoBufferedRecovery {
			r.capB = r.capD
		}
		lost := r.useful - r.capB
		r.losses = append(r.losses, Loss{Time: t, Amount: lost, Cause: activity})
		r.useful = r.capB
	}
	r.prevSysUp, r.prevRebooting = st.SysUp, st.Rebooting
}

// close hands a closed, non-empty span to the window fold or the timeline.
func (r *Recorder) close(sp Span) {
	if r.folding {
		r.win.add(sp, r.losses)
		return
	}
	r.spans = append(r.spans, sp)
}

// FoldWindow makes the recorder fold every span into the measurement
// window [t0, t1] as it closes — split into rework and computation,
// clipped, summed per phase — instead of keeping it. Spans kept so far are
// folded in and dropped. Losses are still kept (there are only as many
// as rollbacks). A folding recorder has no timeline: read it with Window;
// Finish panics.
func (r *Recorder) FoldWindow(t0, t1 float64) {
	r.win = Window{T0: t0, T1: t1}
	for _, sp := range r.spans {
		r.win.add(sp, r.losses)
	}
	r.folding, r.spans = true, r.spans[:0]
}

// Window closes the open span at the horizon t, folds it and returns the
// measurement window; the window's Losses are those inside (T0, T1]. The
// recorder itself is not changed, so a caller may read an intermediate
// window and keep observing. Window panics unless FoldWindow was called.
func (r *Recorder) Window(t float64) Window {
	if !r.folding {
		panic("phasetrace: Window on a recorder without FoldWindow")
	}
	w := r.win
	if t > r.curStart {
		w.add(Span{Phase: r.cur, Start: r.curStart, End: t, Cause: r.curCause}, r.losses)
	}
	w.Losses = lossesIn(r.losses, w.T0, w.T1)
	return w
}

// Finish closes the open span at the horizon and returns the timeline.
// The recorder itself stays usable, so a caller may take an intermediate
// timeline and keep observing (later Finish calls supersede earlier ones).
func (r *Recorder) Finish(t float64) *Timeline {
	if !r.started {
		panic("phasetrace: Finish before Begin")
	}
	if r.folding {
		panic("phasetrace: Finish on a recorder folding a window (its spans are not kept)")
	}
	spans := append([]Span(nil), r.spans...)
	if t > r.curStart {
		spans = append(spans, Span{Phase: r.cur, Start: r.curStart, End: t, Cause: r.curCause})
	}
	return &Timeline{
		Start:  startOf(spans, r.curStart),
		End:    t,
		Spans:  spans,
		Losses: append([]Loss(nil), r.losses...),
	}
}

func startOf(spans []Span, fallback float64) float64 {
	if len(spans) > 0 {
		return spans[0].Start
	}
	return fallback
}

// Timeline is one extracted trajectory: phase spans in time order plus the
// rollback losses, also in time order.
type Timeline struct {
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Spans  []Span  `json:"spans"`
	Losses []Loss  `json:"losses,omitempty"`
}

// Budget is the total hours per phase, indexed by Phase.
type Budget [NumPhases]float64

// Total sums every phase.
func (b Budget) Total() float64 {
	var t float64
	for _, v := range b {
		t += v
	}
	return t
}

// clip adds the part of sp inside [t0, t1] to its phase.
func (b *Budget) clip(sp Span, t0, t1 float64) {
	lo, hi := sp.Start, sp.End
	if lo < t0 {
		lo = t0
	}
	if hi > t1 {
		hi = t1
	}
	if hi > lo {
		b[sp.Phase] += hi - lo
	}
}

// Budget aggregates the whole timeline.
func (tl *Timeline) Budget() Budget { return tl.BudgetBetween(tl.Start, tl.End) }

// BudgetBetween aggregates the spans clipped to [t0, t1].
func (tl *Timeline) BudgetBetween(t0, t1 float64) Budget {
	var b Budget
	for _, sp := range tl.Spans {
		b.clip(sp, t0, t1)
	}
	return b
}

// lossesIn returns the time-ordered losses with t0 < t ≤ t1 — the
// half-open window convention the runner's measurement window uses (a
// loss exactly at the warmup boundary was already absorbed into the warmup
// snapshot). The result shares losses' backing array.
func lossesIn(losses []Loss, t0, t1 float64) []Loss {
	lo := sort.Search(len(losses), func(i int) bool { return losses[i].Time > t0 })
	hi := sort.Search(len(losses), func(i int) bool { return losses[i].Time > t1 })
	if hi < lo {
		return nil
	}
	return losses[lo:hi]
}

// lost sums the loss amounts in order.
func lost(losses []Loss) float64 {
	var sum float64
	for _, l := range losses {
		sum += l.Amount
	}
	return sum
}

// LostBetween sums the rollback losses with t0 < t ≤ t1.
func (tl *Timeline) LostBetween(t0, t1 float64) float64 {
	return lost(lossesIn(tl.Losses, t0, t1))
}

// usefulFraction re-derives the paper's useful-work fraction over the
// window (t0, t1] from a windowed budget and the work lost in the window:
// computation time minus rollback losses, clamped at zero exactly as
// model.RunSteadyState clamps the reward-based estimate, divided by the
// window length.
func usefulFraction(b Budget, lostHours, t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	useful := b[Computation] + b[Rework] - lostHours
	if useful < 0 {
		useful = 0
	}
	return useful / (t1 - t0)
}

// UsefulFraction re-derives the useful-work fraction over the window
// (t0, t1] from spans alone (see usefulFraction).
func (tl *Timeline) UsefulFraction(t0, t1 float64) float64 {
	return usefulFraction(tl.BudgetBetween(t0, t1), tl.LostBetween(t0, t1), t0, t1)
}

// reworkSplit is the running state of the rework split: the accrued
// useful level, its high-water mark and a cursor into the losses.
type reworkSplit struct {
	useful, hwm float64
	li          int
}

// split applies every loss up to and including sp's start, then returns
// sp as one or two spans: a Computation span becomes Rework up to the
// point where accrued work re-attains the high-water mark and Computation
// after it; any other span passes through. Losses fire at span boundaries
// (a rollback always changes the phase), so by the time a span opens,
// earlier losses are final.
func (s *reworkSplit) split(sp Span, losses []Loss) (parts [2]Span, n int) {
	for s.li < len(losses) && losses[s.li].Time <= sp.Start {
		s.useful -= losses[s.li].Amount
		s.li++
	}
	if sp.Phase != Computation {
		parts[0] = sp
		return parts, 1
	}
	if s.hwm > s.useful {
		redo := s.hwm - s.useful
		if redo > sp.Duration() {
			redo = sp.Duration()
		}
		parts[0] = Span{Phase: Rework, Start: sp.Start, End: sp.Start + redo, Cause: sp.Cause}
		n = 1
		if sp.Start+redo < sp.End {
			parts[1] = Span{Phase: Computation, Start: sp.Start + redo, End: sp.End, Cause: sp.Cause}
			n = 2
		}
	} else {
		parts[0], n = sp, 1
	}
	s.useful += sp.Duration()
	if s.useful > s.hwm {
		s.hwm = s.useful
	}
	return parts, n
}

// SplitRework returns a copy of the timeline whose Computation spans are
// split into Rework (re-doing work discarded by an earlier rollback) and
// Computation (new forward progress). The split point of a span is where
// accrued work re-attains the pre-failure high-water mark; losses move
// the accrued level down, never the high-water mark.
func (tl *Timeline) SplitRework() *Timeline {
	out := &Timeline{Start: tl.Start, End: tl.End, Losses: append([]Loss(nil), tl.Losses...)}
	var s reworkSplit
	for _, sp := range tl.Spans {
		parts, n := s.split(sp, tl.Losses)
		out.Spans = append(out.Spans, parts[:n]...)
	}
	return out
}

// Window is a trajectory folded into a measurement window [T0, T1] span by
// span (Recorder.FoldWindow): each span is split into rework and
// computation and clipped into Budget. Folding a timeline's spans in order
// gives, bit for bit, what SplitRework followed by BudgetBetween and
// UsefulFraction gives, because it runs the same split and clip steps.
type Window struct {
	T0, T1 float64
	// Budget is the hours per phase inside [T0, T1], rework split out.
	Budget Budget
	// Spans counts the split spans over the whole trajectory, not only the
	// window — len(SplitRework().Spans) of the equivalent timeline.
	Spans int
	// Losses are the rollback losses inside (T0, T1], in time order. They
	// share the recorder's storage: do not modify them, and read them
	// before the recorder's next Reset.
	Losses []Loss

	split reworkSplit
}

// add is the fold step: split sp, clip each part into the budget.
func (w *Window) add(sp Span, losses []Loss) {
	parts, n := w.split.split(sp, losses)
	for _, p := range parts[:n] {
		w.Budget.clip(p, w.T0, w.T1)
	}
	w.Spans += n
}

// UsefulFraction is the useful-work fraction over (T0, T1], as
// Timeline.UsefulFraction derives it from the split timeline.
func (w Window) UsefulFraction() float64 {
	return usefulFraction(w.Budget, lost(w.Losses), w.T0, w.T1)
}
