// Command ccsweep sweeps a single model parameter and prints one row per
// value, for ad-hoc sensitivity studies beyond the fixed paper figures.
//
//	ccsweep -param procs -values 8192,16384,32768,65536,131072,262144
//	ccsweep -param interval-min -values 15,30,60,120,240 -procs 65536
//	ccsweep -param mttf-years -values 0.5,1,2,4 -procs 131072
//	ccsweep -param timeout-sec -values 20,60,100,120 -coordination max-of-n
//
// With -work H it forecasts, per row, the wall-clock completion time of a
// job needing H hours of useful work instead (mean, quantiles and stretch
// factor over independent replications of the cycle engine):
//
//	ccsweep -work 5000 -values 65536,131072 -reps 10
//	ccsweep -work 5000 -config machine.json -param mttf-years -values 1
//
// A sweep can also run as a resumable, multi-process job through a shared
// run directory (see internal/blocks): plan it once, point any number of
// worker processes — on any machines sharing the directory — at it, and
// reduce when done. The reduced output is bit-identical to the monolithic
// run above (timestamps aside), no matter how many workers ran or crashed.
// The manifest records whether it holds a sweep or a forecast, so the
// verbs need no flag to tell them apart.
//
//	ccsweep -param procs -values 8192,16384 -manifest run/   # plan
//	ccsweep -worker run/            # claim blocks until the sweep is done
//	ccsweep -status run/            # inspect progress (-json for machines)
//	ccsweep -resume run/            # repair after a crash (torn journals)
//	ccsweep -reduce run/            # merge journals, print the table or forecast
//
// A live run's telemetry lives in the directory too: each worker drops a
// periodic heartbeat snapshot (progress, metrics registry, flight
// recorder) into heartbeats/, and the journals/leases already encode every
// block's life. Three verbs surface it:
//
//	ccsweep -fleet run/             # fleet view JSON (workers alive/stale/dead)
//	ccsweep -timeline run/          # Chrome trace-event JSON for Perfetto
//	cctop -run run/                 # live fleet dashboard (see cmd/cctop)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/cyclesim"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/vr"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccsweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ccsweep", flag.ContinueOnError)
	var (
		param         = fs.String("param", "procs", "parameter to sweep: "+strings.Join(cluster.ParamNames(), ", "))
		values        = fs.String("values", "", "comma-separated values (required)")
		work          = fs.Float64("work", 0, "forecast the completion time of a job needing this many hours of useful work, one forecast per row, instead of sweeping the steady state (0 = sweep)")
		configPath    = fs.String("config", "", "base the sweep on a JSON configuration file (flags given explicitly override it)")
		scenarioName  = fs.String("scenario", "", "base the sweep on a named scenario (see -list-scenarios; flags given explicitly override it)")
		scenarioDir   = fs.String("scenario-dir", "", "directory of scenario files extending/overriding the built-in catalog")
		listScenarios = fs.Bool("list-scenarios", false, "list the scenario catalog and exit")
		rFactor       = fs.Float64("r", 400, "correlated failure factor (used when sweeping pe/alpha)")
		reps          = fs.Int("reps", 3, "independent replications")
		warmup        = fs.Float64("warmup", 300, "transient hours to discard")
		measure       = fs.Float64("measure", 1500, "measured hours per replication")
		seed          = fs.Uint64("seed", 1, "root random seed")
		vrMode        = fs.String("vr", "none", "variance reduction: none or antithetic (pairs replications on reflected random streams; odd -reps rounds up; recorded in the manifest so workers and -reduce follow it)")
		workers       = fs.Int("workers", runtime.NumCPU(), "concurrent sweep rows, or in-block replications for -worker (1 = sequential; results are identical for any value)")
		journalPath   = fs.String("journal", "", "write a JSONL run journal (rows in input order, records labeled param=value) to this file; with -reduce, the merged journal")
		metrics       = fs.Bool("metrics", false, "print the collected telemetry table to stderr after the sweep")
		debugAddr     = fs.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /metricz on this address during the sweep")

		manifestDir  = fs.String("manifest", "", "plan the sweep into this run directory (manifest + leases/ + journals/) and exit without simulating")
		blockSize    = fs.Int("block-size", 1, "replications per claimable block when planning with -manifest")
		workerDir    = fs.String("worker", "", "claim and execute blocks from this run directory until the sweep completes")
		workerName   = fs.String("worker-name", "", "worker identity recorded in leases and journals (default <host>-<pid>)")
		leaseTTL     = fs.Duration("lease-ttl", 10*time.Minute, "block lease time-to-live; a crashed worker's blocks are reclaimed after this long")
		resumeDir    = fs.String("resume", "", "repair this run directory after a crash (drop torn journals, clear expired leases) and exit")
		statusDir    = fs.String("status", "", "print this run directory's progress and exit")
		reduceDir    = fs.String("reduce", "", "merge this run directory's block journals and print the sweep table or forecast")
		jsonOut      = fs.Bool("json", false, "with -status: emit machine-readable JSON instead of the table")
		fleetDir     = fs.String("fleet", "", "print this run directory's fleet view (worker heartbeats fused with block status) as JSON and exit")
		timelineDir  = fs.String("timeline", "", "write this run directory's span timeline as Chrome trace-event JSON to stdout (load in Perfetto)")
		hbEvery      = fs.Duration("heartbeat-every", time.Second, "worker telemetry snapshot cadence for heartbeats/<worker>.json; negative (e.g. -1s) disables")
		profileDir   = fs.String("profile-dir", "", "with -worker: where profile captures land (default <run>/profiles; 'off' disables)")
		profileEvery = fs.Duration("profile-every", 0, "with -worker: also capture profiles at this interval (0 = straggler auto-trigger only)")
	)
	cluster.DeclareFlags(fs, "procs", "mttf-years", "mttr-min", "interval-min", "coordination")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cluster.RejectZeroFlags(fs, map[string]string{
		"reps": "5 replications", "warmup": "1000 h warmup", "measure": "4000 h measure",
	}); err != nil {
		return err
	}
	// A run-directory flag set without the verb it configures (listed
	// first) is an error, not silently ignored.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, v := range [][]string{
		{"status", "json"},
		{"manifest", "block-size"},
		{"worker", "worker-name", "lease-ttl", "heartbeat-every", "profile-dir", "profile-every"},
	} {
		for _, name := range v[1:] {
			if set[name] && !set[v[0]] {
				return fmt.Errorf("-%s needs -%s", name, v[0])
			}
		}
	}
	catalog, err := scenario.Resolve(*scenarioDir)
	if err != nil {
		return err
	}
	if *listScenarios {
		return catalog.WriteList(stdout)
	}

	var reg *repro.MetricsRegistry
	if *metrics || *debugAddr != "" {
		reg = repro.NewMetricsRegistry()
	}
	if *debugAddr != "" {
		srv, err := repro.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ccsweep: debug endpoint on http://%s (/debug/pprof, /debug/vars, /metricz)\n", srv.Addr())
	}

	// Run-directory verbs need no sweep definition — the manifest carries it.
	switch {
	case *workerDir != "":
		return workCmd(*workerDir, stdout, *workers, *workerName, *leaseTTL, *hbEvery, reg, *metrics, *profileDir, *profileEvery)
	case *resumeDir != "":
		return resumeCmd(*resumeDir, stdout)
	case *statusDir != "":
		m, st, err := blocks.Scan(*statusDir, time.Now())
		if err != nil {
			return err
		}
		if *jsonOut {
			return blocks.WriteStatusJSON(stdout, m, st)
		}
		return blocks.WriteStatus(stdout, m, st)
	case *fleetDir != "":
		return fleetCmd(*fleetDir, stdout)
	case *timelineDir != "":
		return blocks.WriteTimeline(stdout, *timelineDir, time.Now())
	case *reduceDir != "":
		return reduceCmd(*reduceDir, *journalPath, stdout)
	}

	if *values == "" {
		return fmt.Errorf("-values is required")
	}
	mode, err := vr.ParseMode(*vrMode)
	if err != nil {
		return err
	}
	if *work < 0 {
		return fmt.Errorf("-work %v must be positive", *work)
	}
	if *work > 0 && mode != vr.ModeNone {
		// Completion replications have no reflected leg to pair with.
		return fmt.Errorf("-vr %s does not apply to -work forecasts", mode)
	}
	if mode == vr.ModeAntithetic && *reps%2 == 1 {
		// Pairs need an even count; complete the last pair like ccsim does.
		*reps++
	}

	// -r joins the base only when sweeping pe or alpha.
	base, err := catalog.BaseConfig(fs, *configPath, *scenarioName, "r")
	if err == nil && (*param == "pe" || *param == "alpha") {
		err = cluster.SetParam(&base, "r", strconv.FormatFloat(*rFactor, 'g', -1, 64))
	}
	if err != nil {
		return err
	}
	if *work > 0 {
		// The completion engine requires the cycle envelope.
		base.ComputeFraction = 1
		base.NoIOFailures = true
	}
	setParam, err := cluster.ParamSetter(*param)
	if err != nil {
		return err
	}

	// Parse and validate every row before dispatch, so bad input surfaces
	// in input order; the simulations then fan out on the worker pool and
	// the rows print in input order once all are done.
	var vals []float64
	var cfgs []repro.Config
	for _, raw := range strings.Split(*values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return fmt.Errorf("value %q: %w", raw, err)
		}
		cfg := base
		if err := setParam(&cfg, strings.TrimSpace(raw)); err != nil {
			return fmt.Errorf("value %v: %w", v, err)
		}
		if err := repro.Validate(cfg); err != nil {
			return fmt.Errorf("value %v: %w", v, err)
		}
		vals = append(vals, v)
		cfgs = append(cfgs, cfg)
	}

	// The sweep is a grid plan whether it runs here or in detached workers:
	// one cell per row, seeds pre-assigned by the planner. Monolithic mode
	// is simply "plan, claim everything, reduce" inside this process.
	cells := make([]blocks.Cell, len(vals))
	for i, v := range vals {
		cells[i] = blocks.Cell{
			Label:        fmt.Sprintf("%s=%g", *param, v),
			X:            v,
			Seed:         *seed + uint64(i)*1000003,
			Replications: *reps,
			Config:       cfgs[i],
		}
	}
	opts := repro.Options{
		Replications: *reps, Warmup: *warmup, Measure: *measure,
		Seed: *seed, Workers: *workers, Metrics: reg,
		VarianceReduction: mode,
	}
	var m *blocks.Manifest
	if *work > 0 {
		m, err = blocks.Plan(cells, blocks.PlanOptions{
			Name: *param, Kind: blocks.KindCompletion, Work: *work, BlockSize: *blockSize,
		})
	} else {
		m, err = runner.PlanGrid(*param, cells, *blockSize, opts)
	}
	if err != nil {
		return err
	}

	if *manifestDir != "" {
		if err := blocks.CreateRun(*manifestDir, m); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "planned %s: %d cells x %d reps = %d blocks (size %d)\n",
			*param, len(m.Cells), *reps, len(m.Blocks), m.BlockSize)
		fmt.Fprintf(stdout, "manifest %s\n", m.Hash)
		fmt.Fprintf(stdout, "run 'ccsweep -worker %s' (any number of processes), then 'ccsweep -reduce %s'\n",
			*manifestDir, *manifestDir)
		return nil
	}

	if *work > 0 {
		if *journalPath != "" {
			return fmt.Errorf("-journal needs a -manifest run for -work forecasts; '-reduce <run> -journal' writes the merged journal")
		}
		for _, c := range m.Cells {
			comp, err := repro.JobCompletionTime(c.Config, m.Work, c.Replications, c.Seed)
			if err != nil {
				return fmt.Errorf("value %v: %w", c.X, err)
			}
			writeForecast(stdout, c, comp)
		}
		return nil
	}

	// Each row journals into its own buffer; the buffers are concatenated
	// in input order after the fan-out, so the journal file stays
	// deterministic (modulo timestamps) at every worker count.
	journals := make([]bytes.Buffer, len(vals))
	results, err := runner.EstimateGrid(context.Background(), m, opts,
		func(ci int, o repro.Options) repro.Options {
			if *journalPath != "" {
				o.Journal = obs.NewJournal(&journals[ci])
			}
			return o
		})
	if err != nil {
		return err
	}

	if *journalPath != "" {
		f, err := os.Create(*journalPath)
		if err != nil {
			return err
		}
		for i := range journals {
			if _, err := f.Write(journals[i].Bytes()); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "%-16s %-24s %-24s\n", *param, "useful work fraction", "total useful work")
	for i, r := range results {
		fmt.Fprintf(stdout, "%-16g %-24v %-24v\n", vals[i], r.UsefulWorkFraction, r.TotalUsefulWork)
	}
	if *metrics {
		fmt.Fprintln(os.Stderr, "telemetry")
		reg.WriteTable(os.Stderr)
	}
	return nil
}

// workCmd runs one worker process against a shared run directory.
func workCmd(dir string, stdout io.Writer, workers int, name string, ttl, hbEvery time.Duration, reg *repro.MetricsRegistry, printMetrics bool, profileDir string, profileEvery time.Duration) error {
	if reg == nil {
		// Workers always collect block telemetry; it feeds -status wall
		// stats (via trailers), the heartbeat snapshots, and, with
		// -debug-addr, live dashboards.
		reg = repro.NewMetricsRegistry()
	}
	log := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ccsweep: worker: "+format+"\n", args...)
	}
	profiler := blocks.NewWorkerProfiler(dir, name, profileDir, log)
	defer profiler.Every(profileEvery)()
	sum, err := blocks.Work(context.Background(), dir, runner.BlockRunner(workers, reg), blocks.WorkerOptions{
		Name:      name,
		LeaseTTL:  ttl,
		Metrics:   reg,
		Heartbeat: hbEvery,
		Profiler:  profiler,
		// SIGTERM/SIGINT flush a final heartbeat naming the signal, so an
		// orderly kill leaves its reason in the run directory.
		HandleSignals: true,
		Log:           log,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "worker %s done: %d blocks completed (%d reclaimed from crashed peers, %d already done), %d events\n",
		sum.Worker, sum.Completed, sum.Reclaimed, sum.SkippedComplete, sum.Events)
	if printMetrics {
		fmt.Fprintln(os.Stderr, "telemetry")
		reg.WriteTable(os.Stderr)
	}
	return nil
}

// fleetCmd prints the run directory's fleet view — worker heartbeats
// judged for liveness, fused with block status — as one JSON document.
// cctop -run renders the same data for humans.
func fleetCmd(dir string, w io.Writer) error {
	m, st, fl, err := blocks.CollectFleet(dir, time.Now())
	if err != nil {
		return err
	}
	out := struct {
		Name     string       `json:"name"`
		Hash     string       `json:"hash"`
		Planned  int          `json:"planned"`
		Complete int          `json:"complete"`
		Done     bool         `json:"done"`
		Fleet    blocks.Fleet `json:"fleet"`
	}{m.Name, m.Hash, st.Planned, st.Complete, st.Done(), fl}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// resumeCmd repairs a crashed run directory and reports what it found.
func resumeCmd(dir string, w io.Writer) error {
	rep, m, err := blocks.Resume(dir, time.Now())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "resume %s: %d/%d blocks complete\n", m.Name, rep.Complete, len(m.Blocks))
	if len(rep.TornJournals) > 0 {
		fmt.Fprintf(w, "dropped %d torn journal(s) from crashed writers: blocks %v (will re-run)\n",
			len(rep.TornJournals), rep.TornJournals)
	}
	if len(rep.ExpiredLeases) > 0 {
		fmt.Fprintf(w, "cleared %d expired lease(s): blocks %v\n", len(rep.ExpiredLeases), rep.ExpiredLeases)
	}
	if rep.OrphanTemps > 0 {
		fmt.Fprintf(w, "removed %d orphaned temp file(s)\n", rep.OrphanTemps)
	}
	if rep.Remaining == 0 {
		fmt.Fprintln(w, "all blocks complete — ready to -reduce")
	} else {
		fmt.Fprintf(w, "%d block(s) remaining — run -worker to finish\n", rep.Remaining)
	}
	return nil
}

// reduceCmd merges the block journals and prints the same table — or,
// for a completion manifest, the same forecasts — a monolithic run prints.
func reduceCmd(dir, journalPath string, w io.Writer) error {
	m, cells, err := blocks.Reduce(dir)
	if err != nil {
		if errors.Is(err, blocks.ErrIncomplete) {
			return fmt.Errorf("%w; run '-resume %s' and '-worker %s' to finish, or '-status %s' to inspect", err, dir, dir, dir)
		}
		return err
	}
	if journalPath != "" {
		f, err := os.Create(journalPath)
		if err != nil {
			return err
		}
		j := obs.NewJournal(f)
		if err := blocks.WriteReduced(j, m, cells); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if m.Kind == blocks.KindCompletion {
		for _, c := range cells {
			writeForecast(w, c.Cell, cyclesim.FoldCompletion(m.Work, c.FlatValues(), m.Confidence))
		}
		return nil
	}
	fmt.Fprintf(w, "%-16s %-24s %-24s\n", m.Name, "useful work fraction", "total useful work")
	for _, c := range cells {
		frac := m.VR.Fold(m.Confidence).AddAll(c.Values)
		total := m.VR.Fold(m.Confidence).AddAll(c.Totals)
		fmt.Fprintf(w, "%-16g %-24v %-24v\n", c.Cell.X, frac.CI(), total.CI())
	}
	return nil
}

// writeForecast renders one row's completion forecast — one function shared
// by the monolithic path and -reduce, so the two outputs cannot drift.
func writeForecast(w io.Writer, c blocks.Cell, comp repro.Completion) {
	fmt.Fprintf(w, "forecast            %s\n", c.Label)
	fmt.Fprintf(w, "job                 %.0f h of useful work on %d processors\n", comp.Work, c.Config.Processors)
	fmt.Fprintf(w, "expected completion %v h\n", comp.Mean)
	fmt.Fprintf(w, "stretch factor      %.2fx over a failure-free machine\n", comp.Stretch())
	fmt.Fprintf(w, "quantiles           p10 %.0f | p50 %.0f | p90 %.0f h\n",
		comp.Quantile(0.1), comp.Quantile(0.5), comp.Quantile(0.9))
}
