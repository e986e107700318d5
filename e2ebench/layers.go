package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
)

// layerStats gathers, across the traced pass's jobs, everything the
// per-layer metrics are computed from.
type layerStats struct {
	rung rungSpec

	planMS []float64 // runner plan time per job (estimate, compare)
	repMS  []float64 // replication span durations

	busy, capacity time.Duration // Σ replication time; Σ dispatch × workers
	laneExtra      time.Duration // Σ dispatch × (workers − 1): the parallel lanes' capacity
	idle           time.Duration // Σ dispatch × workers − Σ worker span time
	simTime        time.Duration // time inside the simulating calls
	simEvents      uint64
	simBuilds      int // model builds inside the simulating calls (BlockRunner)
	maxPending     uint64

	snap     obs.Snapshot
	haveSnap bool

	draws      []uint64 // per-purpose draws of trajectories that counted them
	drawEvents uint64

	untracedEvents, tracedEvents uint64
	untracedWall, tracedWall     time.Duration

	maxDelta        float64
	inSync, shrink  []float64
	obsJournalBytes int64
	sweep           []sweepTrace
}

func (L *layerStats) addLegs(legs []leg) {
	for _, l := range legs {
		L.repMS = append(L.repMS, ms(l.wall))
		L.busy += l.wall
		L.simTime += l.sim
		L.simEvents += l.fired
		L.maxPending = max(L.maxPending, l.peak)
		if l.draws != nil {
			if L.draws == nil {
				L.draws = make([]uint64, len(l.draws))
			}
			for p, d := range l.draws {
				L.draws[p] += d
			}
			L.drawEvents += l.fired
		}
	}
}

// addDispatch records a parallel phase: its dispatch span and the worker
// spans under it.
func (L *layerStats) addDispatch(tr *tracer, dispatch int, workers int) {
	d := tr.get(dispatch)
	L.capacity += d.dur() * time.Duration(workers)
	L.laneExtra += d.dur() * time.Duration(workers-1)
	L.idle += d.dur() * time.Duration(workers)
	for _, s := range tr.spans {
		if s.Parent == dispatch {
			L.idle -= s.dur()
		}
	}
}

func (L *layerStats) addSnapshot(s obs.Snapshot) {
	if !L.haveSnap {
		L.snap, L.haveSnap = s, true
		return
	}
	merged, err := obs.MergeSnapshots(L.snap, s)
	if err == nil {
		L.snap = merged
	}
}

// addOverhead records the untraced job's event rate beside the traced
// re-drive's, for obs.trace_overhead_share.
func (L *layerStats) addOverhead(untimed job, legs []leg, dispatch time.Duration) {
	L.untracedEvents += untimed.events
	L.untracedWall += untimed.wall
	for _, l := range legs {
		L.tracedEvents += l.fired
	}
	L.tracedWall += dispatch
}

// layerOrder lists the layers of the self-time table.
// "idle" is worker lanes waiting for the last item of a parallel phase.
var layerOrder = []string{"rng", "des", "san", "model", "runner", "blocks", "obs", "bench", "idle"}

// finish runs the rungs and fills m with every per-layer metric.
func (L *layerStats) finish(w workload, tr *tracer, root uint64, jobs []job, m map[string]metric, log io.Writer) error {
	seeds := jobSeeds(root^0x72756e6773, 8) // "rungs"
	draws, drawEvents := L.draws, L.drawEvents
	if drawEvents == 0 {
		var err error
		if draws, drawEvents, err = drawMix(L.rung, seeds); err != nil {
			return err
		}
	}
	rr := runRNGRung(L.rung.cfgs[0], draws)
	mr, err := runModelRung(L.rung, seeds)
	if err != nil {
		return err
	}
	depth := max(L.maxPending, mr.peak)
	desNS, desEvents := desRung(int(depth))

	c := L.snap.Counters
	events := L.simEvents
	if events == 0 {
		events = c["runner.events"]
	}
	var totalDraws uint64
	for _, d := range draws {
		totalDraws += d
	}
	drawsPerEvent := ratio(float64(totalDraws), float64(drawEvents))
	scheduledPerEvent := ratio(float64(c["des.events_scheduled"]), float64(events))

	buildTime := time.Duration(float64(L.simBuilds) * mr.buildMS * float64(time.Millisecond))
	modelNS := ratio(float64(L.simTime-buildTime), float64(events))

	put := func(name string, v float64, unit string) { m[name] = metric{finite(v), unit} }
	put("rng.ns_per_draw", rr.nsPerDraw, "ns")
	put("rng.ns_per_sample.exp", rr.nsExp, "ns")
	put("rng.ns_per_sample.maxofn", rr.nsMaxOfN, "ns")
	put("rng.draws_per_event", drawsPerEvent, "ratio")
	put("rng.rung_draws", float64(rr.draws), "count")
	put("des.ns_per_event", desNS, "ns")
	put("des.rung_events", float64(desEvents), "count")
	put("des.max_pending", float64(depth), "count")
	put("des.scheduled_per_fired", ratio(float64(c["des.events_scheduled"]), float64(c["des.events_fired"])), "ratio")
	put("des.cancelled_per_scheduled", ratio(float64(c["des.events_cancelled"]), float64(c["des.events_scheduled"])), "ratio")
	put("san.settles_per_event", ratio(float64(c["san.settles"]), float64(events)), "ratio")
	put("san.instant_firings_per_event", ratio(float64(c["san.instant_firings"]), float64(events)), "ratio")
	put("san.reactivations_per_event", ratio(float64(c["san.reactivations"]), float64(events)), "ratio")
	put("san.dirty_closure_mean", L.snap.Histograms["san.dirty_closure"].Mean(), "count")
	// Derived, not timed: what remains of the model's per-event time after
	// the des and rng shares the rungs account for.
	sanNS := modelNS - scheduledPerEvent*desNS - drawsPerEvent*rr.nsPerDraw
	put("san.self_ns_per_event", sanNS, "ns")
	put("model.build_ms", mr.buildMS, "ms")
	put("model.recycle_us", mr.recycleUS, "us")
	put("model.ns_per_event", modelNS, "ns")
	put("model.allocs_per_replication", mr.allocsPerRep, "count")
	put("runner.plan_ms", median(L.planMS), "ms")
	put("runner.replication_ms.p50", quantile(L.repMS, 0.5), "ms")
	put("runner.replication_ms.p90", quantile(L.repMS, 0.9), "ms")
	put("runner.replication_ms.n", float64(len(L.repMS)), "count")
	put("exec.busy_share", ratio(float64(L.busy), float64(L.capacity)), "fraction")
	L.blockMetrics(put)
	overhead := 0.0
	if w.name == estimateBase.name {
		untraced := ratio(float64(L.untracedEvents), L.untracedWall.Seconds())
		traced := ratio(float64(L.tracedEvents), L.tracedWall.Seconds())
		overhead = (untraced - traced) / untraced
	}
	put("obs.trace_overhead_share", overhead, "fraction")
	put("obs.journal_bytes", float64(L.obsJournalBytes)/float64(len(jobs)), "bytes")
	put("phasetrace.max_delta", L.maxDelta, "fraction")
	put("vr.in_sync_fraction", median0(L.inSync), "fraction")
	put("vr.ci_shrink_factor", median0(L.shrink), "ratio")
	put("vr.precision_per_s", precisionPerS(jobs), "1/s")

	// Layer self times. The simulating calls (RunSteadyState, BlockRunner)
	// are split by derivation: rng and des from the rung costs times the
	// counted draws and schedules, model from the builds inside them, san
	// the remainder.
	self := selfTimes(tr.spans)
	byLayer := map[string]time.Duration{}
	var simSelf, wall time.Duration
	for _, s := range tr.spans {
		if s.Layer == "sim" {
			simSelf += self[s.ID]
		} else {
			byLayer[s.Layer] += self[s.ID]
		}
		if s.Parent == 0 {
			wall += s.dur()
		}
	}
	parts := map[string]float64{
		"rng":   drawsPerEvent * float64(events) * rr.nsPerDraw,
		"des":   float64(c["des.events_scheduled"]) * desNS,
		"model": float64(buildTime),
	}
	sum := parts["rng"] + parts["des"] + parts["model"]
	scale := 1.0
	if sum > float64(simSelf) {
		scale = float64(simSelf) / sum
	}
	for k, v := range parts {
		byLayer[k] += time.Duration(v * scale)
	}
	byLayer["san"] += simSelf - time.Duration(sum*scale)
	lanes := wall + L.laneExtra
	byLayer["idle"] = L.idle
	fmt.Fprintf(log, "\n%s traced pass: %d jobs, %.3f s traced wall, %.3f lane-s\n", w.name, len(jobs), wall.Seconds(), lanes.Seconds())
	fmt.Fprintf(log, "%-8s %10s %8s\n", "layer", "self_s", "share")
	for _, layer := range layerOrder {
		d := byLayer[layer]
		put(layer+".self_share", ratio(float64(d), float64(lanes)), "fraction")
		fmt.Fprintf(log, "%-8s %10.4f %7.1f%%\n", layer, d.Seconds(), 100*ratio(float64(d), float64(lanes)))
	}
	put("trace.wall_s", wall.Seconds()/float64(len(jobs)), "s")
	fmt.Fprintln(log, "(rng, des and san are derived from the rungs; lane-s counts each worker lane of the parallel phase)")
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return nil
}

// blockMetrics computes the blocks-layer and sweep-only metrics from the
// traced sweeps' Work and RunFunc spans; they are zero on the other
// workloads, which never touch the filesystem.
func (L *layerStats) blockMetrics(put func(string, float64, string)) {
	var blockMS, commitMS, planMS, reduceMS []float64
	var idle time.Duration
	var journal int64
	var planned, runs int
	for _, st := range L.sweep {
		planned += len(st.run.m.Blocks)
		for _, s := range st.run.sums {
			runs += s.Completed
		}
		planMS = append(planMS, ms(st.run.plan))
		reduceMS = append(reduceMS, ms(st.run.reduce))
		journal += st.journalBytes
		var gaps []float64
		var finals []time.Duration
		for _, w := range st.run.workers {
			end := w.work.Start
			for i, s := range w.runs {
				blockMS = append(blockMS, ms(s.dur()))
				if i > 0 {
					gaps = append(gaps, ms(s.Start-end))
				}
				end = s.End
			}
			finals = append(finals, w.work.End-end)
		}
		commitMS = append(commitMS, gaps...)
		// The time after a worker's last block beyond one commit is waiting:
		// on a peer's lease and for the end-of-sweep poll.
		typical := time.Duration(median0(gaps) * float64(time.Millisecond))
		for _, f := range finals {
			idle += max(0, f-typical)
		}
	}
	n := float64(max(1, len(L.sweep)))
	c := L.snap.Counters
	put("blocks.plan_ms", median0(planMS), "ms")
	put("blocks.block_ms.p50", quantile0(blockMS, 0.5), "ms")
	put("blocks.block_ms.p90", quantile0(blockMS, 0.9), "ms")
	put("blocks.block_ms.n", float64(len(blockMS)), "count")
	put("blocks.commit_overhead_ms.p50", quantile0(commitMS, 0.5), "ms")
	put("blocks.commit_overhead_ms.p90", quantile0(commitMS, 0.9), "ms")
	put("blocks.idle_s", idle.Seconds()/n, "s")
	put("blocks.reduce_ms", median0(reduceMS), "ms")
	put("blocks.journal_bytes", float64(journal)/n, "bytes")
	// Useful outcomes over attempts: distinct blocks committed per claim.
	put("blocks.completed_per_claimed", ratio(float64(planned), float64(c["blocks.claimed"])), "ratio")
	put("blocks.duplicate_runs", float64(runs-planned)/n, "count")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median0 and quantile0 read 0 for a layer the workload does not use.
func median0(xs []float64) float64 { return quantile0(xs, 0.5) }

func quantile0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}
