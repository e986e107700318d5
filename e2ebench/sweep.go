package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/runner"
)

// sweepFig4a is the paper's Fig-4a grid (5 MTTFs × 6 processor counts)
// planned one replication per block into a fresh run directory and worked
// by nproc blocks.Work loops in this process, each with its own registry
// and heartbeat, as `ccsweep -worker` runs them; blocks.Reduce follows.
// Windows are short, so the blocks layer (lease, journal fsync and rename,
// scan, poll, reduce) and the per-block model build carry a large share.
var sweepFig4a = workload{
	name: "sweep-fig4a",
	full: size{reps: 4, warmup: 100, measure: 400, jobSecs: 0.8},
	tiny: size{reps: 2, warmup: 20, measure: 60, jobSecs: 1},
	job:  sweepJob,
}

var (
	fig4aMTTFYears = []float64{0.125, 0.25, 0.5, 1, 2}
	fig4aProcs     = []int{8192, 16384, 32768, 65536, 131072, 262144}
)

// sweepPoll is the workers' wait between scans when every remaining block
// is leased by a peer. The default 2 s would make the end-of-sweep wait a
// whole number of 2 s polls — longer than the sweep itself — so the
// benchmark fixes it short against a block; the wait that remains is
// reported as blocks.idle_s.
const sweepPoll = 2 * time.Millisecond

// sweepHeartbeat is the workers' heartbeat cadence, ccsweep's default.
const sweepHeartbeat = time.Second

func fig4aCells(base cluster.Config, seed uint64, reps int) []blocks.Cell {
	var cells []blocks.Cell
	for _, mttf := range fig4aMTTFYears {
		for _, procs := range fig4aProcs {
			cfg := base
			cfg.Processors = procs
			cfg.MTTFPerNode = cluster.Years(mttf)
			cells = append(cells, blocks.Cell{
				Label:        fmt.Sprintf("MTTF=%gyr@%d", mttf, procs),
				X:            float64(procs),
				Seed:         seed*1000003 + uint64(len(cells))*7919,
				Replications: reps,
				Config:       cfg,
			})
		}
	}
	return cells
}

// sweepRun is one planned, worked and reduced sweep.
type sweepRun struct {
	m       *blocks.Manifest
	dir     string
	cells   []blocks.CellResult
	sums    []blocks.Summary
	regs    []*obs.Registry
	workErr error
	plan    time.Duration
	reduce  time.Duration
	workers []workerTrace // traced pass
	// dispatch is when the first Work loop started — the end of set-up —
	// and cpu the process CPU time then.
	dispatch     time.Time
	cpu          time.Duration
	dispatchSpan int
}

// workerTrace is one Work loop's span and its RunFunc spans, in order.
type workerTrace struct {
	work span
	runs []span
}

// sweep plans the grid into a fresh run directory, works it to the end and
// reduces it. Spans are recorded when tr is non-nil.
func sweep(e *env, tr *tracer, parent int, dir string, cells []blocks.Cell, coldBuild bool) (sweepRun, error) {
	sz := e.size
	var out sweepRun
	p := tr.begin("PlanGrid+CreateRun", "blocks", parent, 0)
	t := time.Now()
	m, err := runner.PlanGrid("fig4a", cells, 1, runner.Options{Replications: sz.reps, Warmup: sz.warmup, Measure: sz.measure})
	if err != nil {
		return out, err
	}
	if err := blocks.CreateRun(dir, m); err != nil {
		return out, err
	}
	out.m, out.dir, out.plan = m, dir, time.Since(t)
	tr.end(p)
	if coldBuild {
		if _, err := model.New(cells[0].Config, m.Blocks[0].Seeds[0]); err != nil {
			return out, err
		}
	}
	out.cpu, _ = rusage()
	out.dispatch = time.Now()

	d := tr.begin("dispatch", "bench", parent, 0)
	out.dispatchSpan = d
	out.sums = make([]blocks.Summary, e.workers)
	out.regs = make([]*obs.Registry, e.workers)
	errs := make([]error, e.workers)
	wids := make([]int, e.workers)
	runIDs := make([][]int, e.workers) // each worker's RunFunc spans; Work calls run sequentially
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		out.regs[w] = obs.NewRegistry()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := w + 1
			ws := tr.begin("blocks.Work", "blocks", d, lane)
			wids[w] = ws
			run := runner.BlockRunner(1, out.regs[w])
			if tr != nil {
				inner := run
				run = func(ctx context.Context, m *blocks.Manifest, b blocks.Block) (blocks.BlockOutput, error) {
					s := tr.begin("runner.BlockRunner", "sim", ws, lane)
					runIDs[w] = append(runIDs[w], s)
					defer tr.end(s)
					return inner(ctx, m, b)
				}
			}
			out.sums[w], errs[w] = blocks.Work(context.Background(), dir, run, blocks.WorkerOptions{
				Name: fmt.Sprintf("bench-w%d", w), Poll: sweepPoll, Heartbeat: sweepHeartbeat, Metrics: out.regs[w],
			})
			tr.end(ws)
		}(w)
	}
	wg.Wait()
	tr.end(d)
	for _, err := range errs {
		if err != nil && out.workErr == nil {
			out.workErr = err
		}
	}
	if tr != nil {
		for w, id := range wids {
			wt := workerTrace{work: tr.get(id)}
			for _, r := range runIDs[w] {
				wt.runs = append(wt.runs, tr.get(r))
			}
			out.workers = append(out.workers, wt)
		}
	}
	r := tr.begin("blocks.Reduce", "blocks", parent, 0)
	t = time.Now()
	_, out.cells, err = blocks.Reduce(dir)
	out.reduce = time.Since(t)
	tr.end(r)
	if err != nil && out.workErr == nil {
		out.workErr = err
	}
	return out, nil
}

func sweepJob(e *env, seed uint64, tr *tracer) (job, error) {
	sz := e.size
	t0 := e.setupStart()
	_, base, err := catalogConfig("base")
	if err != nil {
		return job{}, err
	}
	cells := fig4aCells(base, seed, sz.reps)
	dir := filepath.Join(e.tmp, fmt.Sprintf("fig4a-%d", seed))
	defer os.RemoveAll(dir)
	sr, err := sweep(e, nil, 0, dir, cells, true)
	if err != nil {
		return job{}, err
	}
	completed := sweepChecks(e, sr, sz.reps)
	j := job{setup: sr.dispatch.Sub(t0), wall: time.Since(sr.dispatch)}
	cpu1, _ := rusage()
	j.cpu, j.rssMB = cpu1-sr.cpu, peakRSSMB()
	e.count(len(sr.m.Blocks), len(sr.m.Blocks)-completed)
	// Events of the reduced cells: a block run twice (see sweepChecks)
	// counts once, so wasted runs lower events_per_s.
	for _, c := range sr.cells {
		j.events += c.Events
		j.series = append(j.series, c.FlatValues())
	}

	// Outside the timed window: the sharded ≡ monolithic contract on two
	// sampled cells.
	a := int(seed % uint64(len(cells)))
	b := (a + 1 + int(seed/uint64(len(cells))%uint64(len(cells)-1))) % len(cells)
	e.check("sweep-monolithic", monolithicCheck(e, sr, []int{a, b}))
	if tr != nil {
		return j, traceSweep(e, tr, seed, cells, sr)
	}
	return j, nil
}

// sweepChecks counts the checks on a finished sweep: every block has a
// committed journal, and every cell is reduced with all its replications
// and finite fractions in [0, 1]. It returns the number of committed blocks.
// A block run twice is wasted work, not a wrong result (both runs commit
// the same bytes); blocks.duplicate_runs reports it.
func sweepChecks(e *env, sr sweepRun, reps int) int {
	committed := 0
	for _, b := range sr.m.Blocks {
		if blocks.BlockComplete(sr.dir, sr.m, b) {
			committed++
		}
	}
	var err error
	switch {
	case sr.workErr != nil:
		err = sr.workErr
	case committed != len(sr.m.Blocks):
		err = fmt.Errorf("%d of %d blocks committed", committed, len(sr.m.Blocks))
	}
	e.check("sweep-committed", err)
	e.check("sweep-reduced", reducedCheck(sr, reps))
	return committed
}

func reducedCheck(sr sweepRun, reps int) error {
	if len(sr.cells) != len(sr.m.Cells) {
		return fmt.Errorf("%d cells reduced, want %d", len(sr.cells), len(sr.m.Cells))
	}
	for _, c := range sr.cells {
		vals := c.FlatValues()
		if len(vals) != reps {
			return fmt.Errorf("cell %s: %d replications, want %d", c.Cell.Label, len(vals), reps)
		}
		for _, v := range vals {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return fmt.Errorf("cell %s: useful-work fraction %v outside [0, 1]", c.Cell.Label, v)
			}
		}
	}
	return nil
}

// monolithicCheck runs the sampled cells through runner.EstimateGrid — the
// in-process monolithic path — and requires the reduced sharded values to
// match it bit for bit.
func monolithicCheck(e *env, sr sweepRun, sample []int) error {
	if len(sr.cells) != len(sr.m.Cells) {
		return fmt.Errorf("sweep not reduced")
	}
	var cells []blocks.Cell
	for _, ci := range sample {
		cells = append(cells, sr.m.Cells[ci])
	}
	sub, err := runner.PlanGrid("fig4a", cells, 1, runner.Options{
		Replications: e.size.reps, Warmup: sr.m.Warmup, Measure: sr.m.Measure})
	if err != nil {
		return err
	}
	res, err := runner.EstimateGrid(context.Background(), sub, runner.Options{Workers: e.workers}, nil)
	if err != nil {
		return err
	}
	for k, ci := range sample {
		if err := sameCell(sr.cells[ci], res[k]); err != nil {
			return err
		}
	}
	return nil
}

func sameCell(c blocks.CellResult, r runner.Result) error {
	vals := c.FlatValues()
	if len(vals) != len(r.PerReplication) || len(c.Totals) != len(r.PerReplication) {
		return fmt.Errorf("cell %s: %d sharded replications, %d monolithic", c.Cell.Label, len(vals), len(r.PerReplication))
	}
	for i, m := range r.PerReplication {
		if math.Float64bits(vals[i]) != math.Float64bits(m.UsefulWorkFraction) ||
			math.Float64bits(c.Totals[i]) != math.Float64bits(m.TotalUsefulWork) {
			return fmt.Errorf("cell %s replication %d: sharded (%v, %v), monolithic (%v, %v)",
				c.Cell.Label, i, vals[i], c.Totals[i], m.UsefulWorkFraction, m.TotalUsefulWork)
		}
	}
	return nil
}

// traceSweep is the traced pass: the same sweep in a fresh run directory,
// with a span per Work loop and per RunFunc call, whose reduced values must
// equal the untraced sweep's.
func traceSweep(e *env, tr *tracer, seed uint64, cells []blocks.Cell, untraced sweepRun) error {
	L := e.layers
	dir := filepath.Join(e.tmp, fmt.Sprintf("fig4a-traced-%d", seed))
	defer os.RemoveAll(dir)
	root := tr.begin("sweep-fig4a", "bench", 0, 0)
	sr, err := sweep(e, tr, root, dir, cells, false)
	if err != nil {
		return err
	}
	c := tr.begin("checks", "bench", root, 0)
	sweepChecks(e, sr, e.size.reps)
	var mismatch error
	if len(sr.cells) != len(untraced.cells) {
		mismatch = fmt.Errorf("%d traced cells, %d untraced", len(sr.cells), len(untraced.cells))
	}
	for i := 0; mismatch == nil && i < len(sr.cells); i++ {
		a, b := sr.cells[i].FlatValues(), untraced.cells[i].FlatValues()
		if fmt.Sprint(a) != fmt.Sprint(b) || sr.cells[i].Events != untraced.cells[i].Events {
			mismatch = fmt.Errorf("cell %s: traced %v (%d events), untraced %v (%d events)",
				sr.cells[i].Cell.Label, a, sr.cells[i].Events, b, untraced.cells[i].Events)
		}
	}
	e.check("sweep-traced-identity", mismatch)
	tr.end(c)
	tr.end(root)

	bytes, err := journalBytes(dir, sr.m)
	if err != nil {
		return err
	}
	L.sweep = append(L.sweep, sweepTrace{run: sr, journalBytes: bytes})
	// One replication per block: each RunFunc call is a replication, and
	// builds its own model.
	for _, w := range sr.workers {
		for _, s := range w.runs {
			L.repMS = append(L.repMS, ms(s.dur()))
			L.busy += s.dur()
			L.simTime += s.dur()
			L.simBuilds++
		}
	}
	for _, r := range sr.regs {
		L.addSnapshot(r.Snapshot())
	}
	L.addDispatch(tr, sr.dispatchSpan, e.workers)
	var rungCells []cluster.Config
	for _, i := range []int{0, len(cells) - 1} {
		rungCells = append(rungCells, cells[i].Config)
	}
	L.rung = rungSpec{cfgs: rungCells, warmup: e.size.warmup, measure: e.size.measure, fresh: true, telemetry: true}
	return nil
}

// journalBytes is the size of the run's committed block journals net of
// the timestamp fields (obs.TimestampFields), so it repeats exactly for a
// seed.
func journalBytes(dir string, m *blocks.Manifest) (int64, error) {
	var total int64
	for _, b := range m.Blocks {
		data, err := os.ReadFile(blocks.JournalPath(dir, b.ID))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, 4<<20)
		for sc.Scan() {
			var rec map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return 0, fmt.Errorf("block %d journal: %w", b.ID, err)
			}
			for _, f := range obs.TimestampFields {
				delete(rec, f)
			}
			line, err := json.Marshal(rec)
			if err != nil {
				return 0, err
			}
			total += int64(len(line)) + 1
		}
		if err := sc.Err(); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// sweepTrace keeps what the per-layer metrics need from one traced sweep.
type sweepTrace struct {
	run          sweepRun
	journalBytes int64
}
