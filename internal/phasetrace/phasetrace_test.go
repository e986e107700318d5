package phasetrace

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

func mk(places ...string) map[string]int {
	m := make(map[string]int)
	for _, p := range places {
		m[p] = 1
	}
	return m
}

// A hand-built trajectory exercising one checkpoint cycle, a compute
// failure with rollback, recovery and a reboot:
//
//	0–10   execution            (computation)
//	10–11  quiescing            (quiesce)
//	11–12  checkpointing        (dump; dump_chkpt at 12 secures 10 h)
//	12–20  execution            (computation; write_chkpt at 14 makes it durable)
//	20–23  recovery             (compute_failure at 20 loses 20−12 = 8 h)
//	23–30  execution            (computation, first 8 h of it rework)
//	30–33  rebooting            (downtime; loses 30−23 = 7 h at entry… )
//	33–40  execution
func testEvents() []trace.Event {
	return []trace.Event{
		{Time: 10, Activity: "start_quiesce", Marking: mk("quiescing", "sys_up")},
		{Time: 11, Activity: "coordinate", Marking: mk("checkpointing", "sys_up")},
		{Time: 12, Activity: "dump_chkpt", Marking: mk("execution", "sys_up")},
		{Time: 14, Activity: "write_chkpt", Marking: mk("execution", "sys_up")},
		{Time: 20, Activity: "compute_failure", Marking: mk("recovery_stage1")},
		{Time: 23, Activity: "recover_stage2", Marking: mk("execution", "sys_up")},
		{Time: 30, Activity: "severe_failure", Marking: mk("rebooting")},
		{Time: 33, Activity: "reboot_done", Marking: mk("execution", "sys_up")},
	}
}

func TestRecorderSpansAndLosses(t *testing.T) {
	tl, err := FromEvents(testEvents(), 40, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Span{
		{Phase: Computation, Start: 0, End: 10, Cause: "init"},
		{Phase: Quiesce, Start: 10, End: 11, Cause: "start_quiesce"},
		{Phase: Dump, Start: 11, End: 12, Cause: "coordinate"},
		{Phase: Computation, Start: 12, End: 20, Cause: "dump_chkpt"},
		{Phase: Recovery, Start: 20, End: 23, Cause: "compute_failure"},
		{Phase: Computation, Start: 23, End: 30, Cause: "recover_stage2"},
		{Phase: Downtime, Start: 30, End: 33, Cause: "severe_failure"},
		{Phase: Computation, Start: 33, End: 40, Cause: "reboot_done"},
	}
	if len(tl.Spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(tl.Spans), len(want), tl.Spans)
	}
	for i, sp := range tl.Spans {
		if sp != want[i] {
			t.Errorf("span %d: got %+v want %+v", i, sp, want[i])
		}
	}
	// Losses: 8 h at t=20 (work since the checkpoint at 12), 7 h at t=30
	// (work since recovery finished at 23; the buffered level survives in
	// memory until the reboot wipes it, but the rollback is computed
	// before capB changes only via the reboot rule — entering rebooting
	// resets capB to capD=10, and work stood at 10+7=17, so 7 h go).
	if len(tl.Losses) != 2 {
		t.Fatalf("got %d losses, want 2: %+v", len(tl.Losses), tl.Losses)
	}
	if tl.Losses[0].Time != 20 || math.Abs(tl.Losses[0].Amount-8) > 1e-12 {
		t.Errorf("loss 0: %+v", tl.Losses[0])
	}
	if tl.Losses[1].Time != 30 || math.Abs(tl.Losses[1].Amount-7) > 1e-12 {
		t.Errorf("loss 1: %+v", tl.Losses[1])
	}
}

func TestBudgetAndUsefulFraction(t *testing.T) {
	tl, err := FromEvents(testEvents(), 40, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := tl.Budget()
	if got := b[Computation]; math.Abs(got-32) > 1e-12 {
		t.Errorf("computation = %v, want 32", got)
	}
	if got := b.Total(); math.Abs(got-40) > 1e-12 {
		t.Errorf("total = %v, want 40 (budget must tile the horizon)", got)
	}
	// Useful over (0,40]: 32 computed − 15 lost = 17 → 0.425.
	if got := tl.UsefulFraction(0, 40); math.Abs(got-17.0/40) > 1e-12 {
		t.Errorf("useful fraction = %v, want %v", got, 17.0/40)
	}
	// Windowed: over (12,30] computation is 8+7=15, losses 8+7=15 → 0.
	if got := tl.UsefulFraction(12, 30); got != 0 {
		t.Errorf("windowed fraction = %v, want 0", got)
	}
	// Boundary convention: a loss exactly at t0 is excluded, at t1 included.
	if got := tl.LostBetween(20, 30); math.Abs(got-7) > 1e-12 {
		t.Errorf("LostBetween(20,30) = %v, want 7 (loss at t0 excluded)", got)
	}
}

func TestSplitRework(t *testing.T) {
	tl, err := FromEvents(testEvents(), 40, Options{})
	if err != nil {
		t.Fatal(err)
	}
	split := tl.SplitRework()
	var rework, comp float64
	for _, sp := range split.Spans {
		switch sp.Phase {
		case Rework:
			rework += sp.Duration()
		case Computation:
			comp += sp.Duration()
		}
	}
	// After the t=20 failure the high-water mark is 20−10 span-hours of
	// accrued work vs 12−10 retained → 8 h of rework in 23–31, but the
	// span 23–30 is only 7 h, all rework. After the reboot (hwm 17 vs
	// retained 10) the 33–40 span starts with 7 h of rework → 0 new.
	// Pre-failure spans contribute 10+8 = 18 h of fresh computation.
	if math.Abs(rework-14) > 1e-12 {
		t.Errorf("rework = %v, want 14", rework)
	}
	if math.Abs(comp-18) > 1e-12 {
		t.Errorf("computation = %v, want 18", comp)
	}
	// Splitting preserves the total budget and the original never had it.
	if got := split.Budget().Total(); math.Abs(got-40) > 1e-12 {
		t.Errorf("split total = %v, want 40", got)
	}
	if b := tl.Budget(); b[Rework] != 0 {
		t.Errorf("raw timeline should carry no rework, got %v", b[Rework])
	}
	// UsefulFraction is invariant under the split (it sums both phases).
	if a, b := tl.UsefulFraction(0, 40), split.UsefulFraction(0, 40); math.Abs(a-b) > 1e-12 {
		t.Errorf("split changed useful fraction: %v vs %v", a, b)
	}
}

func TestNoBufferedRecoveryLoss(t *testing.T) {
	// With buffered recovery the rollback falls back to the buffered
	// level; under the ablation it must fall all the way to durable.
	events := []trace.Event{
		{Time: 10, Activity: "start_quiesce", Marking: mk("quiescing", "sys_up")},
		{Time: 10, Activity: "coordinate", Marking: mk("checkpointing", "sys_up")},
		{Time: 10, Activity: "dump_chkpt", Marking: mk("execution", "sys_up")}, // buffered@10
		{Time: 20, Activity: "compute_failure", Marking: mk("recovery_stage1")},
	}
	tl, err := FromEvents(events, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.Losses[0].Amount; math.Abs(got-10) > 1e-12 {
		t.Errorf("buffered: lost %v, want 10", got)
	}
	tl, err = FromEvents(events, 20, Options{NoBufferedRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.Losses[0].Amount; math.Abs(got-20) > 1e-12 {
		t.Errorf("no-buffered: lost %v, want 20 (durable level is 0)", got)
	}
}

func TestZeroDurationSpansDropped(t *testing.T) {
	events := []trace.Event{
		{Time: 10, Activity: "start_quiesce", Marking: mk("quiescing", "sys_up")},
		{Time: 10, Activity: "coordinate", Marking: mk("checkpointing", "sys_up")},
		{Time: 12, Activity: "dump_chkpt", Marking: mk("execution", "sys_up")},
	}
	tl, err := FromEvents(events, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tl.Spans {
		if sp.Duration() <= 0 {
			t.Errorf("zero-duration span survived: %+v", sp)
		}
		if sp.Phase == Quiesce {
			t.Errorf("instantaneous quiesce should have been dropped: %+v", sp)
		}
	}
}

func TestFromEventsRequiresMarking(t *testing.T) {
	_, err := FromEvents([]trace.Event{{Time: 1, Activity: "x"}}, 2, Options{})
	if err == nil {
		t.Fatal("want error for marking-less event")
	}
	if !strings.Contains(err.Error(), "-marking") {
		t.Errorf("error should hint at cctrace -marking: %v", err)
	}
}

func TestPhaseJSONRoundTrip(t *testing.T) {
	for _, p := range Phases() {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back Phase
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if back != p {
			t.Errorf("round trip %v -> %s -> %v", p, b, back)
		}
	}
	var bad Phase
	if err := json.Unmarshal([]byte(`"warp"`), &bad); err == nil {
		t.Error("want error for unknown phase name")
	}
}

// TestChromeExportSchema checks the exporter emits structurally valid
// trace-event JSON: the envelope keys, required per-event fields, and the
// hour→microsecond scaling.
func TestChromeExportSchema(t *testing.T) {
	tl, err := FromEvents(testEvents(), 40, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.SplitRework().WriteChrome(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []map[string]any
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" && doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ms or ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	var sawX, sawI, sawM bool
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			sawM = true
		case "X":
			sawX = true
			for _, k := range []string{"name", "ts", "dur", "pid", "tid"} {
				if _, ok := ev[k]; !ok {
					t.Errorf("X event missing %q: %v", k, ev)
				}
			}
			if d, _ := ev["dur"].(float64); d <= 0 {
				t.Errorf("X event with non-positive dur: %v", ev)
			}
		case "i":
			sawI = true
			if s, _ := ev["s"].(string); s == "" {
				t.Errorf("instant event missing scope: %v", ev)
			}
		default:
			t.Errorf("unexpected ph %q", ph)
		}
	}
	if !sawX || !sawI || !sawM {
		t.Errorf("want metadata, complete and instant events; got M=%v X=%v i=%v", sawM, sawX, sawI)
	}
	// First span: 0–10 h → ts 0, dur 1e7 µs.
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			if d, _ := ev["dur"].(float64); d != 10*usPerHour {
				t.Errorf("first span dur = %v µs, want %v", d, 10*usPerHour)
			}
			break
		}
	}
}

// foldMatchesTimeline feeds one trajectory to a storing recorder and, per
// window, to a recorder folding that window from the start, and requires
// the fold to equal Finish → SplitRework → BudgetBetween / UsefulFraction
// / LostBetween / len(Spans) bit for bit.
func foldMatchesTimeline(t *testing.T, feed func(*Recorder), end float64, windows [][2]float64) {
	t.Helper()
	stored := NewRecorder(Options{})
	feed(stored)
	split := stored.Finish(end).SplitRework()
	for _, win := range windows {
		t0, t1 := win[0], win[1]
		folding := NewRecorder(Options{})
		folding.FoldWindow(t0, t1)
		feed(folding)
		w := folding.Window(end)
		if w.Budget != split.BudgetBetween(t0, t1) {
			t.Errorf("[%v, %v]: fold budget %v, timeline %v", t0, t1, w.Budget, split.BudgetBetween(t0, t1))
		}
		if got, want := w.UsefulFraction(), split.UsefulFraction(t0, t1); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("[%v, %v]: fold useful fraction %v, timeline %v", t0, t1, got, want)
		}
		if w.Spans != len(split.Spans) {
			t.Errorf("[%v, %v]: fold counted %d spans, timeline has %d", t0, t1, w.Spans, len(split.Spans))
		}
		var in []Loss
		for _, l := range split.Losses {
			if l.Time > t0 && l.Time <= t1 {
				in = append(in, l)
			}
		}
		if !slices.Equal(w.Losses, in) {
			t.Errorf("[%v, %v]: fold losses %v, timeline %v", t0, t1, w.Losses, in)
		}
		if got, want := lost(w.Losses), split.LostBetween(t0, t1); got != want {
			t.Errorf("[%v, %v]: fold lost %v, timeline %v", t0, t1, got, want)
		}
	}
}

// TestWindowFoldMatchesTimeline: a hand-fed Observe sequence with several
// phase changes at one instant, a rollback at the instant a span closes
// and a second one right after recovery, folded into windows whose edges
// fall on loss times, inside rework and at the horizon.
func TestWindowFoldMatchesTimeline(t *testing.T) {
	up := State{SysUp: true}
	feed := func(r *Recorder) {
		r.Begin(0, up)
		r.Observe(5, "start_quiesce", State{Quiescing: true, SysUp: true})
		// Three phase changes at t = 6: the quiesce and dump spans
		// opened there are zero-length and dropped.
		r.Observe(6, "coordinate", State{Checkpointing: true, SysUp: true})
		r.Observe(6, "dump_chkpt", up)
		r.Observe(6, "write_chkpt", up)
		r.Observe(9, "start_quiesce", State{Quiescing: true, SysUp: true})
		// The rollback at 10 closes the quiesce span [9, 10] in the same
		// Observe that records the loss.
		r.Observe(10, "compute_failure", State{RecoveryStage1: true})
		r.Observe(12, "recover_stage2", up)
		r.Observe(15, "compute_failure", State{RecoveryStage1: true})
		r.Observe(15, "recover_stage1", State{RecoveryStage2: true})
		r.Observe(16, "recover_stage2", up)
		r.Observe(25, "severe_failure", State{Rebooting: true})
		r.Observe(27, "reboot_done", up)
	}
	stored := NewRecorder(Options{})
	feed(stored)
	tl := stored.Finish(40)
	if len(tl.Losses) != 3 {
		t.Fatalf("want 3 losses, got %+v", tl.Losses)
	}
	var rework bool
	for _, sp := range tl.SplitRework().Spans {
		rework = rework || sp.Phase == Rework
	}
	if !rework {
		t.Fatal("trajectory has no rework to split")
	}
	foldMatchesTimeline(t, feed, 40, [][2]float64{
		{0, 40}, {0, 100}, {10, 40}, {10, 15}, {15, 25}, {6, 6}, {13, 14.5},
		{12.5, 18}, {16.5, 30}, {-5, 12}, {30, 20}, {27, 40}, {40, 50},
	})
}

// TestFoldWindowAfterSpans: spans stored before FoldWindow are folded in,
// so switching mid-trajectory gives the same window as folding from the
// start.
func TestFoldWindowAfterSpans(t *testing.T) {
	events := testEvents()
	stored, err := FromEvents(events, 40, Options{})
	if err != nil {
		t.Fatal(err)
	}
	split := stored.SplitRework()
	r := NewRecorder(Options{})
	r.Begin(0, State{SysUp: true})
	for i, ev := range events {
		if i == 5 {
			r.FoldWindow(12, 35)
		}
		r.Observe(ev.Time, ev.Activity, StateFromMarking(ev.Marking))
	}
	w := r.Window(40)
	if w.Budget != split.BudgetBetween(12, 35) || w.Spans != len(split.Spans) ||
		w.UsefulFraction() != split.UsefulFraction(12, 35) {
		t.Errorf("late fold %+v differs from the split timeline", w)
	}
	defer func() {
		if recover() == nil {
			t.Error("Finish on a folding recorder should panic")
		}
	}()
	r.Finish(40)
}
