// Command ccsim runs the coordinated-checkpointing model for a single
// configuration and prints the paper's metrics with confidence intervals.
// With -compare it estimates two configurations on common random numbers
// instead and reports the paired difference of their useful work — the
// statistically sound way to answer "is B better than A?".
//
// Examples (the paper's base model at 128K processors; checkpointing
// against migration):
//
//	ccsim -procs 131072 -mttf-years 1 -mttr-min 10 -interval-min 30
//	ccsim -scenario base -compare migration -reps 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/scenario"
	"repro/internal/vr"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ccsim", flag.ContinueOnError)
	var (
		configPath    = fs.String("config", "", "JSON configuration file (flags given explicitly override it)")
		scenarioName  = fs.String("scenario", "", "named scenario from the catalog (see -list-scenarios; flags given explicitly override it)")
		scenarioDir   = fs.String("scenario-dir", "", "directory of scenario files extending/overriding the built-in catalog")
		listScenarios = fs.Bool("list-scenarios", false, "list the scenario catalog and exit")
		reps          = fs.Int("reps", 5, "independent replications")
		warmup        = fs.Float64("warmup", 1000, "transient hours to discard")
		measure       = fs.Float64("measure", 4000, "measured hours per replication")
		seed          = fs.Uint64("seed", 1, "root random seed")
		workers       = fs.Int("workers", runtime.NumCPU(), "concurrent replications (1 = sequential; results are identical for any value)")
		progress      = fs.Bool("progress", false, "stream replication progress to stderr")
		verbose       = fs.Bool("v", false, "print per-replication metrics")
		journalPath   = fs.String("journal", "", "write a JSONL run journal (one record per replication plus the estimate) to this file")
		metrics       = fs.Bool("metrics", false, "print the collected telemetry table after the results")
		verifySpans   = fs.Bool("verify-spans", false, "cross-check the reward-based estimate against phase-span accounting and print the verdict")
		vrMode        = fs.String("vr", "none", "variance reduction: none or antithetic (pairs replications on reflected random streams; odd -reps rounds up)")
		rareLevel     = fs.Int("rare-level", 0, "estimate P[severe-failure level ≥ this within -rare-horizon] by importance splitting instead of the steady-state metrics (0 = off)")
		rareEffort    = fs.Int("rare-effort", 1000, "splitting trials per stage (with -rare-level)")
		rareHorizon   = fs.Float64("rare-horizon", 48, "trajectory time budget in hours (with -rare-level)")
		rareBrute     = fs.Bool("rare-brute", false, "also run the brute-force estimate of the same probability for cross-checking (with -rare-level)")
		debugAddr     = fs.String("debug-addr", "", "serve /debug/pprof, /debug/vars and /metricz on this address during the run (e.g. localhost:6060)")
		profileDir    = fs.String("profile-dir", "", "capture CPU/heap/goroutine profiles into this directory during the run")
		profileEvery  = fs.Duration("profile-every", 0, "re-capture profiles at this interval (0 = one capture at start; needs -profile-dir)")
		compareRef    = fs.String("compare", "", "compare against this configuration file or scenario name (side B) with common random numbers; -config/-scenario is side A and explicitly set configuration flags apply to both")
		syncReport    = fs.Bool("sync-report", false, "audit the common-random-numbers pairing of -compare: per-purpose draw alignment and residual output correlation")
	)
	cluster.DeclareFlags(fs, "procs", "procs-per-node", "mttf-years", "mttr-min", "interval-min",
		"mttq-sec", "timeout-sec", "coordination", "pe", "r", "alpha")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cluster.RejectZeroFlags(fs, map[string]string{
		"reps": "5 replications", "warmup": "1000 h warmup", "measure": "4000 h measure", "seed": "seed 1",
	}); err != nil {
		return err
	}

	catalog, err := scenario.Resolve(*scenarioDir)
	if err != nil {
		return err
	}
	if *listScenarios {
		return catalog.WriteList(stdout)
	}
	cfg, err := catalog.BaseConfig(fs, *configPath, *scenarioName)
	if err != nil {
		return err
	}
	if err := repro.Validate(cfg); err != nil {
		return err
	}
	mode, err := vr.ParseMode(*vrMode)
	if err != nil {
		return err
	}
	compare := *compareRef != ""
	// A flag set away from its default in a mode it has no meaning in is
	// an error, not silently ignored. Splitting estimates one probability:
	// it writes no replication journal, pairs no legs and records no phase
	// spans. A comparison runs two plain steady-state estimates on common
	// random numbers, and only a comparison has a pairing to audit.
	// Periodic profiles need a directory to land in.
	changed := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { changed[f.Name] = f.Value.String() != f.DefValue })
	for _, m := range []struct {
		on       bool
		name     string
		excludes []string
	}{
		{*rareLevel > 0, "-rare-level", []string{"journal", "vr", "verify-spans"}},
		{compare, "-compare", []string{"rare-level", "rare-effort", "rare-horizon", "rare-brute", "vr"}},
		{!compare, "a single estimate (use -compare)", []string{"sync-report"}},
		{*profileDir == "", "a run without -profile-dir", []string{"profile-every"}},
	} {
		for _, name := range m.excludes {
			if m.on && changed[name] {
				return fmt.Errorf("-%s does not apply to %s", name, m.name)
			}
		}
	}
	var cfgB repro.Config
	if compare {
		if cfgB, err = compareConfig(catalog, fs, *compareRef); err == nil {
			err = repro.Validate(cfgB)
		}
		if err != nil {
			return fmt.Errorf("-compare: %w", err)
		}
	}
	if *rareLevel > 0 {
		return runRare(stdout, cfg, *rareLevel, *rareEffort, *rareHorizon, *seed, *rareBrute)
	}

	opts := repro.Options{
		Replications: *reps, Warmup: *warmup, Measure: *measure, Seed: *seed,
		Workers: *workers, VerifySpans: *verifySpans,
		VarianceReduction: mode, SyncReport: *syncReport,
	}
	if *progress {
		// The hook is serialized by the worker pool, so plain writes are
		// safe; \r keeps it to one live status line on a terminal.
		opts.Progress = func(p repro.Progress) {
			fmt.Fprintf(os.Stderr, "\rccsim: replication %d/%d  events %d  %v ",
				p.Done, p.Total, p.Events, p.Elapsed.Round(10*time.Millisecond))
			if p.Final {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	var reg *repro.MetricsRegistry
	if *metrics || *debugAddr != "" {
		reg = repro.NewMetricsRegistry()
		opts.Metrics = reg
	}
	if *debugAddr != "" {
		srv, err := repro.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ccsim: debug endpoint on http://%s (/debug/pprof, /debug/vars, /metricz)\n", srv.Addr())
	}
	var stamp provenance.Stamp
	if *journalPath != "" || *profileDir != "" {
		// Which binary, on which machine, simulated what: the stamp leads
		// the journal and labels the profiles.
		stamp = repro.CollectProvenance()
		if hash, err := configHash(cfg, mode, compare, cfgB, *syncReport); err == nil {
			stamp = stamp.WithConfig(hash)
		}
	}
	var journalFile *os.File
	if *journalPath != "" {
		f, err := os.Create(*journalPath)
		if err != nil {
			return err
		}
		journalFile = f
		opts.Journal = repro.NewRunJournal(f)
		opts.Provenance = &stamp
	}
	if *profileDir != "" {
		profiler := obs.NewProfileCapture(obs.ProfileCaptureOptions{
			Dir:    *profileDir,
			Prefix: "ccsim",
			Meta:   stamp,
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ccsim: "+format+"\n", args...)
			},
		})
		profiler.Trigger("start")
		defer profiler.Every(*profileEvery)()
	}
	var (
		res  repro.Result
		comp repro.Comparison
	)
	if compare {
		comp, err = repro.CompareConfigs(cfg, cfgB, opts)
	} else {
		res, err = repro.Simulate(cfg, opts)
	}
	if journalFile != nil {
		if jerr := opts.Journal.Err(); jerr != nil && err == nil {
			err = fmt.Errorf("journal: %w", jerr)
		}
		if cerr := journalFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if compare {
		labelA := *scenarioName + *configPath // at most one is set
		if labelA == "" {
			labelA = "flags"
		}
		printComparison(stdout, labelA, *compareRef, comp)
		printSpanCheck(stdout, "A", comp.A.SpanCheck)
		printSpanCheck(stdout, "B", comp.B.SpanCheck)
		if *verbose {
			printReplications(stdout, "A ", comp.A)
			printReplications(stdout, "B ", comp.B)
		}
	} else {
		fmt.Fprintf(stdout, "processors            %d (%d nodes, %d I/O nodes)\n", cfg.Processors, cfg.Nodes(), cfg.IONodes())
		fmt.Fprintf(stdout, "useful work fraction  %v\n", res.UsefulWorkFraction)
		fmt.Fprintf(stdout, "total useful work     %v\n", res.TotalUsefulWork)
		if r := res.VR; r != nil {
			fmt.Fprintf(stdout, "variance reduction    %s: %d pairs, factor %.2f, leg correlation %.3f\n",
				r.Mode, r.Pairs, r.Factor, r.LegCorrelation)
		}
		printBreakdown(stdout, res)
		printSpanCheck(stdout, "", res.SpanCheck)
		if *verbose {
			printReplications(stdout, "", res)
		}
		if eff, err := repro.AnalyticEfficiency(cfg, cfg.CheckpointInterval); err == nil {
			fmt.Fprintf(stdout, "analytic (Daly-style) efficiency, no coordination/correlation: %.4f\n", eff)
		}
	}
	if *metrics {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "telemetry")
		reg.WriteTable(stdout)
	}
	return nil
}

// compareConfig resolves -compare's reference — a configuration file when
// one exists at ref, else a catalog scenario — with the explicitly set
// configuration flags applied, as they are to side A.
func compareConfig(catalog *scenario.Registry, fs *flag.FlagSet, ref string) (repro.Config, error) {
	if _, err := os.Stat(ref); err == nil {
		return catalog.BaseConfig(fs, ref, "")
	}
	return catalog.BaseConfig(fs, "", ref)
}

// configHash stamps the provenance record with what actually ran: the
// plain configuration when VR is off (bit-identical to historical stamps),
// the configuration plus the VR mode when it is on, or both sides of a
// comparison and whether their pairing was audited.
func configHash(cfg repro.Config, mode vr.Mode, compare bool, cfgB repro.Config, syncReport bool) (string, error) {
	switch {
	case compare:
		return provenance.HashJSON(struct {
			A          repro.Config `json:"a"`
			B          repro.Config `json:"b"`
			SyncReport bool         `json:"sync_report"`
		}{cfg, cfgB, syncReport})
	case mode == vr.ModeNone:
		return provenance.HashJSON(cfg)
	}
	return provenance.HashJSON(struct {
		Config repro.Config `json:"config"`
		VR     string       `json:"vr"`
	}{cfg, mode.String()})
}

// printComparison renders the paired estimate, its verdict and, when
// audited, the CRN synchronization of the pairing.
func printComparison(w io.Writer, labelA, labelB string, comp repro.Comparison) {
	fmt.Fprintf(w, "A (%s)  useful fraction %v\n", labelA, comp.A.UsefulWorkFraction)
	fmt.Fprintf(w, "B (%s)  useful fraction %v\n", labelB, comp.B.UsefulWorkFraction)
	fmt.Fprintf(w, "paired difference (B−A)  fraction %v | total %v\n",
		comp.FractionDiff, comp.TotalDiff)
	switch {
	case !comp.Significant():
		fmt.Fprintln(w, "verdict: no significant difference at 95% confidence")
	case comp.FractionDiff.Mean > 0:
		fmt.Fprintln(w, "verdict: B is significantly better")
	default:
		fmt.Fprintln(w, "verdict: B is significantly worse")
	}
	if s := comp.Sync; s != nil {
		fmt.Fprintf(w, "CRN sync audit: %d pairs | in sync %.0f%% | output correlation %.3f | CI shrink ×%.2f\n",
			s.Pairs, 100*s.InSyncFraction, s.OutputCorrelation, s.CIShrinkFactor)
		for _, c := range s.Components {
			fmt.Fprintf(w, "  %-18s mean draws A %.1f | B %.1f | matched pairs %d/%d\n",
				c.Name, c.MeanDrawsA, c.MeanDrawsB, c.MatchedPairs, s.Pairs)
		}
	}
}

// printSpanCheck renders a span-check verdict (nil: none was run); leg
// names the side of a comparison.
func printSpanCheck(w io.Writer, leg string, sc *repro.SpanCheck) {
	if sc == nil {
		return
	}
	verdict := "OK"
	if !sc.Within {
		verdict = "MISMATCH"
	}
	fmt.Fprintf(w, "%-22s%s  reward %.6f vs spans %.6f (max |Δ| %.3g, tolerance ±%.3g)\n",
		strings.TrimSpace("span check "+leg), verdict, sc.RewardMean, sc.SpanMean, sc.MaxDelta, sc.Tolerance)
}

// printReplications lists the per-replication metrics (-v).
func printReplications(w io.Writer, prefix string, res repro.Result) {
	for i, m := range res.PerReplication {
		fmt.Fprintf(w, "  %srep %d: %v\n", prefix, i, m)
	}
}

// runRare estimates P[the severe-failure level reaches `level` within
// `horizon` hours of a cold start] by fixed-effort importance splitting,
// optionally cross-checked against the brute-force estimate of the same
// probability under the same seeding discipline.
func runRare(w io.Writer, cfg repro.Config, level, effort int, horizon float64, seed uint64, brute bool) error {
	if err := model.ValidateRareLevel(cfg, level); err != nil {
		return err
	}
	tr, err := model.NewRareTrajectory(cfg)
	if err != nil {
		return err
	}
	opts := vr.SplitOptions{Level: level, Effort: effort, Horizon: horizon, Seed: seed}
	res, err := vr.SplitEstimate(tr, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "rare event            P[severe-failure level ≥ %d within %g h]\n", level, horizon)
	fmt.Fprintf(w, "splitting estimate    P = %.6g  (%d trials, %d steps)\n", res.Probability, res.Trials, res.Steps)
	for k, f := range res.StageFractions {
		fmt.Fprintf(w, "  stage %d             P[level %d | level %d] = %.4g  (%d entrances)\n",
			k, k+1, k, f, res.Entrances[k])
	}
	if brute {
		bres, err := vr.BruteForce(tr, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "brute-force           P = %.6g  (%d trials, %d steps)\n", bres.Probability, bres.Trials, bres.Steps)
	}
	return nil
}

// printBreakdown averages the per-state time shares over the replications
// and renders them as one line per state.
func printBreakdown(w io.Writer, res repro.Result) {
	if len(res.PerReplication) == 0 {
		return
	}
	var b repro.TimeBreakdown
	var repeated float64
	for _, m := range res.PerReplication {
		b.Execution += m.Breakdown.Execution
		b.Quiesce += m.Breakdown.Quiesce
		b.Dump += m.Breakdown.Dump
		b.FSWait += m.Breakdown.FSWait
		b.Recovery += m.Breakdown.Recovery
		b.Reboot += m.Breakdown.Reboot
		repeated += m.RepeatedWorkFraction
	}
	n := float64(len(res.PerReplication))
	fmt.Fprintf(w, "time breakdown        execution %.3f (repeated %.3f) | quiesce %.4f | dump %.4f | fs-wait %.4f | recovery %.3f | reboot %.3f\n",
		b.Execution/n, repeated/n, b.Quiesce/n, b.Dump/n, b.FSWait/n, b.Recovery/n, b.Reboot/n)
}
