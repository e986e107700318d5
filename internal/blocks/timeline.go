package blocks

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Run-level span timeline: every block's claim → execute → commit life,
// reconstructed from the run directory's own artifacts (journal trailers,
// leases, heartbeats) and exported as Chrome trace-event JSON for Perfetto
// (ui.perfetto.dev) or chrome://tracing. One track (tid) per worker.
//
// Span timing comes from the data already on disk, not a new log: a
// trailer's "ts" stamp is the block's commit time and wall_ms its
// duration, so the executed span is [ts−wall_ms, ts]; a live lease is an
// open span from its acquisition to now; heartbeat flight-recorder events
// land as instants on the worker's track. Timestamps are exported relative
// to the earliest span so traces open at t≈0.

// timelineEvent mirrors the trace-event JSON shape (phasetrace.WriteChrome
// uses the same format for simulated-time traces; this one is wall-clock).
type timelineEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type timelineTrace struct {
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	TraceEvents     []timelineEvent `json:"traceEvents"`
}

const usPerMS = 1e3

// WriteTimeline reconstructs the run's span timeline and writes it as one
// Chrome trace-event JSON document — the `ccsweep -timeline` verb.
func WriteTimeline(w io.Writer, dir string, now time.Time) error {
	m, st, err := Scan(dir, now)
	if err != nil {
		return err
	}
	hbs, err := ReadHeartbeats(dir)
	if err != nil {
		return err
	}

	// t0: earliest moment referenced anywhere, so the trace starts at ~0.
	t0 := now.UnixMilli()
	consider := func(ms int64) {
		if ms > 0 && ms < t0 {
			t0 = ms
		}
	}
	// Assign one track per worker, in sorted-name order, discovering
	// workers from trailers, leases, and heartbeats alike. A committed
	// block ends at its trailer's commit stamp; a pre-ts journal falls back
	// to the commit rename's mtime, the next best commit-time estimate, and
	// is left off the timeline when even that is unreadable.
	workerSet := map[string]bool{}
	commitMS := map[int]int64{}
	for _, bi := range st.Blocks {
		if l := bi.Lease; l != nil {
			workerSet[l.Worker] = true
			consider(l.AcquiredUnixMS)
		}
		tr := bi.Trailer
		if tr == nil {
			continue
		}
		workerSet[tr.Worker] = true
		end := tr.CommittedUnixMS
		if end == 0 {
			fi, statErr := os.Stat(JournalPath(dir, bi.Block))
			if statErr != nil {
				continue
			}
			end = fi.ModTime().UnixMilli()
		}
		commitMS[bi.Block] = end
		consider(end - int64(tr.WallMS))
	}
	for _, hb := range hbs {
		workerSet[hb.Worker] = true
		consider(hb.StartUnixMS)
	}
	workers := make([]string, 0, len(workerSet))
	for wname := range workerSet {
		workers = append(workers, wname)
	}
	sort.Strings(workers)
	tid := make(map[string]int, len(workers))
	for i, wname := range workers {
		tid[wname] = i + 1
	}

	const pid = 1
	ct := timelineTrace{
		DisplayTimeUnit: "ms",
		TraceEvents: []timelineEvent{{
			Name: "process_name", Phase: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("sweep %s (%s)", m.Name, shortHash(m.Hash))},
		}},
	}
	for _, wname := range workers {
		ct.TraceEvents = append(ct.TraceEvents, timelineEvent{
			Name: "thread_name", Phase: "M", Pid: pid, Tid: tid[wname],
			Args: map[string]any{"name": wname},
		})
	}

	rel := func(unixMS int64) float64 { return float64(unixMS-t0) * usPerMS }

	// Committed blocks: one complete ("X") span per block, ending at the
	// trailer's commit stamp and spanning its wall time.
	for _, bi := range st.Blocks {
		end, ok := commitMS[bi.Block]
		if !ok {
			continue
		}
		id, tr := bi.Block, bi.Trailer
		ct.TraceEvents = append(ct.TraceEvents, timelineEvent{
			Name:  fmt.Sprintf("block %d (cell %d)", id, tr.Cell),
			Phase: "X",
			Ts:    rel(end) - tr.WallMS*usPerMS,
			Dur:   tr.WallMS * usPerMS,
			Pid:   pid,
			Tid:   tid[tr.Worker],
			Args: map[string]any{
				"block": id, "cell": tr.Cell, "replications": tr.Replications,
				"events": tr.Events, "wall_ms": tr.WallMS, "worker": tr.Worker,
			},
		})
	}

	// Uncommitted claims: a live lease is an open span (claim → now); an
	// expired lease is the abandoned claim's full window.
	for _, bi := range st.Blocks {
		l := bi.Lease
		if l == nil {
			continue
		}
		name, end := "", now.UnixMilli()
		switch bi.State {
		case StateLeased:
			name = fmt.Sprintf("lease block %d (running)", bi.Block)
		case StateExpired:
			name = fmt.Sprintf("lease block %d (expired)", bi.Block)
			end = l.ExpiresUnixMS
		}
		ct.TraceEvents = append(ct.TraceEvents, timelineEvent{
			Name:  name,
			Phase: "X",
			Ts:    rel(l.AcquiredUnixMS),
			Dur:   float64(end-l.AcquiredUnixMS) * usPerMS,
			Pid:   pid,
			Tid:   tid[l.Worker],
			Args:  map[string]any{"block": bi.Block, "state": string(bi.State), "worker": l.Worker},
		})
	}

	// Torn journals: an instant marking the crashed write.
	for _, bi := range st.Blocks {
		if !bi.TornJournal {
			continue
		}
		ts := now.UnixMilli()
		if fi, statErr := os.Stat(JournalPath(dir, bi.Block)); statErr == nil {
			ts = fi.ModTime().UnixMilli()
		}
		ev := timelineEvent{
			Name:  fmt.Sprintf("torn block %d", bi.Block),
			Phase: "i",
			Ts:    rel(ts),
			Pid:   pid,
			Scope: "t",
			Args:  map[string]any{"block": bi.Block},
		}
		if bi.Worker != "" {
			ev.Tid = tid[bi.Worker]
		}
		ct.TraceEvents = append(ct.TraceEvents, ev)
	}

	// Heartbeat flight recorders: recent worker events as instants, plus
	// the final snapshot's exit reason.
	for _, hb := range hbs {
		for _, fe := range hb.Flight {
			ct.TraceEvents = append(ct.TraceEvents, timelineEvent{
				Name:  fe.Kind,
				Phase: "i",
				Ts:    rel(fe.UnixMS),
				Pid:   pid,
				Tid:   tid[hb.Worker],
				Scope: "t",
				Args:  map[string]any{"block": fe.Block, "msg": fe.Msg},
			})
		}
		if hb.Final {
			ct.TraceEvents = append(ct.TraceEvents, timelineEvent{
				Name:  "exit: " + hb.Reason,
				Phase: "i",
				Ts:    rel(hb.UnixMS),
				Pid:   pid,
				Tid:   tid[hb.Worker],
				Scope: "t",
				Args:  map[string]any{"reason": hb.Reason},
			})
		}
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(ct); err != nil {
		return fmt.Errorf("blocks: timeline export: %w", err)
	}
	return nil
}
