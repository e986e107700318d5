package blocks

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/provenance"
)

// RunFunc executes one claimed block and returns its replication records.
// Implementations must be pure functions of (manifest, block) — every seed
// the block needs is in b.Seeds — so that any worker, on any machine, at
// any time produces identical records. runner.BlockRunner implements it
// for both manifest kinds.
type RunFunc func(ctx context.Context, m *Manifest, b Block) (BlockOutput, error)

// WorkerOptions configures a Work loop.
type WorkerOptions struct {
	// Name identifies the worker in leases and trailers; default
	// "<host>-<pid>".
	Name string
	// LeaseTTL bounds how long a crashed worker's claim pins a block.
	// Default 10 minutes; it must comfortably exceed one block's wall
	// time plus clock skew between machines sharing the directory. The
	// held lease is renewed every LeaseTTL / 3.
	LeaseTTL time.Duration
	// Poll is the wait between scans when every remaining block is leased
	// by someone else. Default 2 s.
	Poll time.Duration
	// ExitWhenIdle makes Work return as soon as a scan claims nothing,
	// instead of polling until every block is complete. Default false:
	// a worker normally outlives its peers' leases so a crashed peer's
	// blocks are reclaimed and the sweep always finishes.
	ExitWhenIdle bool
	// Metrics, when non-nil, receives the block telemetry counters
	// (blocks.planned/claimed/completed/reclaimed/skipped) and the
	// per-block wall-time histogram blocks.block_wall_s.
	Metrics *obs.Registry
	// Heartbeat is the cadence of this worker's telemetry snapshot in
	// heartbeats/<worker>.json (progress, registry snapshot, flight
	// recorder). Default 1 s; negative disables. The writer runs on its
	// own goroutine, never on the simulation path.
	Heartbeat time.Duration
	// Profiler, when non-nil, is armed automatically when the worker's
	// event rate falls below half its own trailing median while a block
	// is executing — a straggler's postmortem then arrives with the
	// profile that explains it. The capture runs beside the heartbeat
	// writer, never on the simulation path.
	Profiler *obs.ProfileCapture
	// HandleSignals, when set, flushes a final heartbeat and cancels the
	// Work context on SIGTERM/SIGINT, so an orderly kill leaves a
	// postmortem snapshot with its reason.
	HandleSignals bool
	// Log, when non-nil, receives one human line per worker event.
	Log func(format string, args ...any)
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		o.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Minute
	}
	if o.Poll <= 0 {
		o.Poll = 2 * time.Second
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = time.Second
	}
	return o
}

// Summary reports what one Work invocation did.
type Summary struct {
	// Worker is the resolved worker name.
	Worker string
	// Completed counts blocks this worker ran and committed.
	Completed int
	// Reclaimed counts completed blocks whose expired lease this worker
	// broke first.
	Reclaimed int
	// SkippedComplete counts blocks that were already journaled when this
	// worker first scanned them.
	SkippedComplete int
	// Events is the total simulation events across completed blocks.
	Events uint64
}

// NewWorkerProfiler arms the in-run profile capturer CLI workers hand to
// WorkerOptions.Profiler. It is on by default — the straggler auto-trigger
// inside the heartbeat writer costs nothing until it fires, and a profile
// that explains a slow worker is exactly the artifact you cannot capture
// after the fact — and disabled (nil) by profileDir "off". Captures land
// in ProfileDir(runDir) unless profileDir overrides, named after the
// worker (same default identity as WorkerOptions.Name) and stamped with
// the process's provenance. Its Every method adds periodic captures on
// top of the auto-trigger.
func NewWorkerProfiler(runDir, name, profileDir string, log func(string, ...any)) *obs.ProfileCapture {
	if profileDir == "off" {
		return nil
	}
	if profileDir == "" {
		profileDir = ProfileDir(runDir)
	}
	if name == "" {
		name = WorkerOptions{}.withDefaults().Name
	}
	return obs.NewProfileCapture(obs.ProfileCaptureOptions{
		Dir:    profileDir,
		Prefix: name,
		Meta:   provenance.Collect(),
		Log:    log,
	})
}

// Work claims and executes blocks from the run directory until every block
// has a committed journal (or, with ExitWhenIdle, until a scan finds
// nothing claimable). It is safe to run any number of Work loops — in one
// process or across machines — against the same directory; the lease files
// arbitrate, and the temp+rename journal commit makes even a double-run of
// the same block (possible only after a lease expires under a live worker)
// converge, because both executions produce byte-identical records.
func Work(ctx context.Context, dir string, run RunFunc, o WorkerOptions) (s Summary, err error) {
	o = o.withDefaults()
	m, err := LoadManifest(dir)
	if err != nil {
		return Summary{}, err
	}
	s = Summary{Worker: o.Name}
	hb := newHeartbeater(dir, o, m.Hash)
	defer func() {
		if r := recover(); r != nil {
			hb.close(fmt.Sprintf("panic: %v", r))
			panic(r)
		}
		reason := "done"
		if err != nil {
			reason = "error: " + err.Error()
		}
		hb.close(reason)
	}()
	if o.HandleSignals {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		go func() {
			select {
			case sig := <-sigc:
				hb.note("signal", -1, sig.String())
				hb.flushFinal("signal: " + sig.String())
				cancel()
			case <-ctx.Done():
			}
		}()
	}
	var mPlanned, mClaimed, mCompleted, mReclaimed, mSkipped *obs.Counter
	var mWall *obs.Timer
	if reg := o.Metrics; reg != nil {
		mPlanned = reg.Counter("blocks.planned")
		mClaimed = reg.Counter("blocks.claimed")
		mCompleted = reg.Counter("blocks.completed")
		mReclaimed = reg.Counter("blocks.reclaimed")
		mSkipped = reg.Counter("blocks.skipped")
		mWall = reg.Timer("blocks.block_wall_s")
		mPlanned.Add(uint64(len(m.Blocks)))
	}
	logf := o.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	seenComplete := make([]bool, len(m.Blocks))
	skip := func(b Block) {
		if claimedOnce(&seenComplete[b.ID]) {
			return
		}
		s.SkippedComplete++
		if mSkipped != nil {
			mSkipped.Inc()
		}
		hb.sync(s)
	}
	for {
		if err := ctx.Err(); err != nil {
			return s, err
		}
		claimedAny := false
		remaining := 0
		for _, b := range m.Blocks {
			if err := ctx.Err(); err != nil {
				return s, err
			}
			if seenComplete[b.ID] {
				continue
			}
			if BlockComplete(dir, m, b) {
				skip(b)
				continue
			}
			res, err := claim(dir, m, b.ID, o.Name, o.LeaseTTL, time.Now())
			if err != nil {
				return s, err
			}
			if res == claimHeld {
				remaining++
				continue
			}
			// A peer may have committed the block and released its lease
			// between the check above and the claim: look again now that
			// the lease is ours, so the block never runs twice.
			if BlockComplete(dir, m, b) {
				if err := release(dir, b.ID); err != nil {
					return s, err
				}
				skip(b)
				continue
			}
			if res == claimReclaimed {
				s.Reclaimed++
				if mReclaimed != nil {
					mReclaimed.Inc()
				}
				hb.note("reclaim", b.ID, "expired lease broken")
				logf("block %d: reclaimed expired lease", b.ID)
			}
			if mClaimed != nil {
				mClaimed.Inc()
			}
			claimedAny = true
			hb.note("claim", b.ID, "")
			hb.setCurrent(b.ID)
			hb.sync(s)
			events, wallMS, err := executeBlock(ctx, dir, m, b, run, o)
			if err != nil {
				// Leave no lease behind: the failed block returns to the
				// claimable pool immediately rather than after a TTL.
				release(dir, b.ID)
				hb.note("error", b.ID, err.Error())
				hb.setCurrent(-1)
				return s, err
			}
			hb.setCurrent(-1)
			seenComplete[b.ID] = true
			s.Completed++
			s.Events += events
			if mWall != nil {
				mWall.Observe(time.Duration(wallMS * float64(time.Millisecond)))
			}
			if mCompleted != nil {
				mCompleted.Inc()
			}
			hb.note("commit", b.ID, "")
			hb.sync(s)
			logf("block %d: completed (%d reps, cell %d)", b.ID, b.Reps(), b.CellIndex)
		}
		if remaining == 0 && !claimedAny {
			return s, nil // every block has a committed journal
		}
		if !claimedAny {
			if o.ExitWhenIdle {
				logf("%d blocks still leased by other workers; exiting (idle)", remaining)
				return s, nil
			}
			// Everything left is leased elsewhere: wait for completion or
			// for a lease to expire so it can be reclaimed.
			select {
			case <-ctx.Done():
				return s, ctx.Err()
			case <-time.After(o.Poll):
			}
		}
	}
}

// claimedOnce flips a bool and reports whether it was already set — a tiny
// helper so already-complete blocks are counted as skipped exactly once.
func claimedOnce(b *bool) bool {
	was := *b
	*b = true
	return was
}

// executeBlock runs one claimed block, renewing its lease every
// LeaseTTL/3, commits its journal and returns the events and wall time its
// trailer records.
func executeBlock(ctx context.Context, dir string, m *Manifest, b Block, run RunFunc, o WorkerOptions) (events uint64, wallMS float64, err error) {
	hbCtx, stopHB := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(o.LeaseTTL / 3)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				renew(dir, m, b.ID, o.Name, o.LeaseTTL, time.Now())
			}
		}
	}()
	defer func() {
		stopHB()
		<-hbDone
	}()
	start := time.Now()
	out, err := run(ctx, m, b)
	if err != nil {
		return 0, 0, fmt.Errorf("blocks: block %d: %w", b.ID, err)
	}
	wallMS = float64(time.Since(start)) / float64(time.Millisecond)
	if err := writeBlockJournal(dir, m, b, out, o.Name, wallMS); err != nil {
		return 0, 0, err
	}
	return out.Events, wallMS, release(dir, b.ID)
}

// heartbeater writes the worker's Heartbeat snapshot on its own goroutine
// so telemetry never touches the simulation path. All methods are nil-safe:
// a disabled heartbeat (WorkerOptions.Heartbeat < 0) is a nil heartbeater
// and every call is a no-op.
type heartbeater struct {
	dir   string
	o     WorkerOptions
	fl    *obs.FlightRecorder
	start time.Time
	host  string
	stamp provenance.Stamp

	current   atomic.Int64 // block being executed, -1 when idle
	completed atomic.Int64
	reclaimed atomic.Int64
	skipped   atomic.Int64
	events    atomic.Uint64

	mu         sync.Mutex // serialises writes; guards rate state + final flag
	lastEvents uint64
	lastWrite  time.Time
	finalDone  bool
	rates      []float64 // trailing events/s samples for the straggler trigger

	stop chan struct{}
	done chan struct{}
}

// Straggler self-detection: after rateWarmup measured intervals, an
// interval whose event rate falls below stragglerFraction of the trailing
// median (the same half-the-median rule CollectFleet applies across a
// fleet) arms the profiler. rateWindow bounds the trailing memory so a
// long-running worker tracks its recent self, not its startup.
const (
	rateWindow        = 32
	rateWarmup        = 6
	stragglerFraction = 0.5
)

func newHeartbeater(dir string, o WorkerOptions, manifestHash string) *heartbeater {
	if o.Heartbeat < 0 {
		return nil
	}
	host, _ := os.Hostname()
	h := &heartbeater{
		dir: dir, o: o, fl: obs.NewFlightRecorder(obs.DefaultFlightEvents),
		start: time.Now(), host: host,
		stamp: provenance.Collect().WithConfig(manifestHash),
		stop:  make(chan struct{}), done: make(chan struct{}),
	}
	h.current.Store(-1)
	h.fl.Record("start", -1, "worker "+o.Name)
	h.write(false, "")
	go h.loop()
	return h
}

func (h *heartbeater) loop() {
	defer close(h.done)
	t := time.NewTicker(h.o.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			h.write(false, "")
		}
	}
}

// note records a flight-recorder event. The ring rides along in every
// periodic heartbeat, which is what makes a SIGKILLed worker's last
// heartbeat its postmortem.
func (h *heartbeater) note(kind string, block int, msg string) {
	if h == nil {
		return
	}
	h.fl.Record(kind, block, msg)
}

func (h *heartbeater) setCurrent(block int) {
	if h == nil {
		return
	}
	h.current.Store(int64(block))
}

// sync mirrors the Work loop's running Summary into the heartbeat fields.
func (h *heartbeater) sync(s Summary) {
	if h == nil {
		return
	}
	h.completed.Store(int64(s.Completed))
	h.reclaimed.Store(int64(s.Reclaimed))
	h.skipped.Store(int64(s.SkippedComplete))
	h.events.Store(s.Events)
}

// write flushes one snapshot. Once a final snapshot lands, later writes are
// dropped so the first exit reason (e.g. "signal: terminated") survives the
// unwinding Work loop's own "error: context canceled" flush.
func (h *heartbeater) write(final bool, reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.finalDone {
		return
	}
	now := time.Now()
	hb := Heartbeat{
		Worker: h.o.Name, PID: os.Getpid(), Host: h.host,
		StartUnixMS: h.start.UnixMilli(), UnixMS: now.UnixMilli(),
		IntervalMS:      h.o.Heartbeat.Milliseconds(),
		Final:           final,
		Reason:          reason,
		CurrentBlock:    int(h.current.Load()),
		Completed:       int(h.completed.Load()),
		Reclaimed:       int(h.reclaimed.Load()),
		SkippedComplete: int(h.skipped.Load()),
		Provenance:      &h.stamp,
		Flight:          h.fl.Events(),
		FlightTotal:     h.fl.Total(),
	}
	// Event rate: prefer the live runner.events counter (updated every
	// replication) over Summary events (updated only at block commits).
	cur := h.events.Load()
	if h.o.Metrics != nil {
		snap := h.o.Metrics.Snapshot()
		hb.Metrics = &snap
		if v, ok := snap.Counters["runner.events"]; ok {
			cur = v
		}
	}
	hb.Events = cur
	measured := false
	if dt := now.Sub(h.lastWrite).Seconds(); !h.lastWrite.IsZero() && dt > 0 && cur >= h.lastEvents {
		hb.EventsPerSec = float64(cur-h.lastEvents) / dt
		measured = true
	}
	h.lastEvents = cur
	h.lastWrite = now
	if measured && !final {
		h.checkStraggler(hb.EventsPerSec, hb.CurrentBlock)
	}
	if err := WriteHeartbeat(h.dir, hb); err != nil && h.o.Log != nil {
		h.o.Log("heartbeat write failed: %v", err)
	}
	if final {
		h.finalDone = true
	}
}

// checkStraggler compares this interval's event rate against the trailing
// median and arms the profiler on a collapse. Called under h.mu. Only
// intervals spent executing a block count — an idle worker polling for
// leases legitimately runs at zero events/s — and the comparison needs
// rateWarmup prior samples so startup transients cannot trigger it. The
// profiler itself debounces (one capture in flight, bounded budget), so a
// sustained stall costs at most MaxCaptures captures.
func (h *heartbeater) checkStraggler(rate float64, currentBlock int) {
	if currentBlock < 0 {
		h.rates = h.rates[:0] // idle gap: a stale band would misjudge the next block
		return
	}
	defer func() {
		h.rates = append(h.rates, rate)
		if len(h.rates) > rateWindow {
			h.rates = h.rates[len(h.rates)-rateWindow:]
		}
	}()
	if h.o.Profiler == nil || len(h.rates) < rateWarmup {
		return
	}
	sorted := append([]float64(nil), h.rates...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if median <= 0 || rate >= stragglerFraction*median {
		return
	}
	reason := fmt.Sprintf("events_per_sec %.0f below trailing band (median %.0f over %d intervals)",
		rate, median, len(h.rates))
	if h.o.Profiler.Trigger(reason) {
		h.fl.Record("profile", currentBlock, reason)
		if h.o.Log != nil {
			h.o.Log("straggler self-detected, profile armed: %s", reason)
		}
	}
}

// flushFinal writes the terminal snapshot immediately (e.g. from a signal
// handler) without waiting for the Work loop to unwind.
func (h *heartbeater) flushFinal(reason string) {
	if h == nil {
		return
	}
	h.write(true, reason)
}

// close stops the ticker goroutine and flushes the final snapshot.
func (h *heartbeater) close(reason string) {
	if h == nil {
		return
	}
	close(h.stop)
	<-h.done
	h.note("exit", -1, reason)
	h.write(true, reason)
}

// ResumeReport says what a Resume sweep found and repaired.
type ResumeReport struct {
	// TornJournals lists blocks whose journal existed but did not commit
	// (torn final line, missing trailer); the files were removed so the
	// blocks return to the claimable pool.
	TornJournals []int
	// ExpiredLeases lists blocks whose lease had lapsed; the leases were
	// removed.
	ExpiredLeases []int
	// OrphanTemps counts abandoned temp files removed from the journal
	// and lease directories.
	OrphanTemps int
	// Complete and Remaining count the blocks after the sweep.
	Complete, Remaining int
}

// Resume validates a crashed run directory and returns it to a cleanly
// resumable state: incomplete journals (the torn output of killed writers)
// are deleted so their blocks re-run, expired leases are cleared so the
// blocks are immediately claimable, and abandoned temp files are removed.
// It never touches a committed journal or a live lease, so running it
// beside active workers is safe.
func Resume(dir string, now time.Time) (ResumeReport, *Manifest, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return ResumeReport{}, nil, err
	}
	var rep ResumeReport
	for _, b := range m.Blocks {
		_, _, jerr := ReadBlockJournal(dir, m, b)
		switch {
		case jerr == nil:
			rep.Complete++
			continue
		case errors.Is(jerr, ErrIncomplete):
			rep.Remaining++
			if _, statErr := os.Stat(JournalPath(dir, b.ID)); statErr == nil {
				if err := os.Remove(JournalPath(dir, b.ID)); err != nil {
					return rep, m, fmt.Errorf("blocks: %w", err)
				}
				rep.TornJournals = append(rep.TornJournals, b.ID)
			}
		default:
			return rep, m, jerr
		}
		l, lerr := readLease(LeasePath(dir, b.ID))
		if lerr == nil && l.Expired(now) {
			if err := os.Remove(LeasePath(dir, b.ID)); err != nil && !os.IsNotExist(err) {
				return rep, m, fmt.Errorf("blocks: %w", err)
			}
			rep.ExpiredLeases = append(rep.ExpiredLeases, b.ID)
		}
	}
	for _, sub := range []string{journalDir, leaseDir} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if strings.Contains(e.Name(), ".tmp-") || strings.Contains(e.Name(), ".stale-") {
				if os.Remove(filepath.Join(dir, sub, e.Name())) == nil {
					rep.OrphanTemps++
				}
			}
		}
	}
	return rep, m, nil
}
