// Command ccsim runs the coordinated-checkpointing model for a single
// configuration and prints the paper's metrics with confidence intervals.
//
// Example (the paper's base model at 128K processors):
//
//	ccsim -procs 131072 -mttf-years 1 -mttr-min 10 -interval-min 30
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/scenario"
	"repro/internal/vr"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ccsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
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
	)
	// Configuration flags, applied by name through the parameter
	// vocabulary (cluster.SetParam).
	fs.Int("procs", 65536, "total compute processors")
	fs.Int("procs-per-node", 8, "processors per node")
	fs.Float64("mttf-years", 1, "per-node MTTF in years")
	fs.Float64("mttr-min", 10, "system MTTR in minutes")
	fs.Float64("interval-min", 30, "checkpoint interval in minutes")
	fs.Float64("mttq-sec", 10, "per-node mean time to quiesce in seconds")
	fs.Float64("timeout-sec", 0, "coordination timeout in seconds (0 = none)")
	fs.String("coordination", "fixed", "coordination mode: fixed, none, max-of-n")
	fs.Float64("pe", 0, "probability of correlated failure (error propagation)")
	fs.Float64("r", 0, "correlated failure rate factor")
	fs.Float64("alpha", 0, "generic correlated failure coefficient")
	if err := fs.Parse(args); err != nil {
		return err
	}

	catalog, err := scenario.Resolve(*scenarioDir)
	if err != nil {
		return err
	}
	if *listScenarios {
		return catalog.WriteList(os.Stdout)
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
	if *rareLevel > 0 {
		// Splitting estimates one probability; it writes no replication
		// journal, pairs no legs and records no phase spans.
		switch {
		case *journalPath != "":
			return fmt.Errorf("-journal does not apply to -rare-level estimates")
		case mode != vr.ModeNone:
			return fmt.Errorf("-vr %s does not apply to -rare-level estimates", mode)
		case *verifySpans:
			return fmt.Errorf("-verify-spans does not apply to -rare-level estimates")
		}
		return runRare(cfg, *rareLevel, *rareEffort, *rareHorizon, *seed, *rareBrute)
	}

	opts := repro.Options{
		Replications: *reps, Warmup: *warmup, Measure: *measure, Seed: *seed,
		Workers: *workers, VerifySpans: *verifySpans,
		VarianceReduction: mode,
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
	var journalFile *os.File
	if *journalPath != "" {
		f, err := os.Create(*journalPath)
		if err != nil {
			return err
		}
		journalFile = f
		opts.Journal = repro.NewRunJournal(f)
		// Lead the journal with a provenance record: which binary, on
		// which machine, simulated which configuration (and, when variance
		// reduction is on, under which VR mode — two runs differing only in
		// -vr must not hash alike).
		stamp := repro.CollectProvenance()
		if hash, err := configHash(cfg, mode); err == nil {
			stamp = stamp.WithConfig(hash)
		}
		opts.Provenance = &stamp
	}
	var profiler *obs.ProfileCapture
	if *profileDir != "" {
		stamp := repro.CollectProvenance()
		if hash, err := configHash(cfg, mode); err == nil {
			stamp = stamp.WithConfig(hash)
		}
		profiler = obs.NewProfileCapture(obs.ProfileCaptureOptions{
			Dir:    *profileDir,
			Prefix: "ccsim",
			Meta:   stamp,
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ccsim: "+format+"\n", args...)
			},
		})
		profiler.Trigger("start")
		if *profileEvery > 0 {
			tick := time.NewTicker(*profileEvery)
			defer tick.Stop()
			done := make(chan struct{})
			defer close(done)
			go func() {
				for {
					select {
					case <-tick.C:
						profiler.Trigger("periodic")
					case <-done:
						return
					}
				}
			}()
		}
		defer profiler.Wait()
	}
	res, err := repro.Simulate(cfg, opts)
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
	fmt.Printf("processors            %d (%d nodes, %d I/O nodes)\n", cfg.Processors, cfg.Nodes(), cfg.IONodes())
	fmt.Printf("useful work fraction  %v\n", res.UsefulWorkFraction)
	fmt.Printf("total useful work     %v\n", res.TotalUsefulWork)
	if r := res.VR; r != nil {
		fmt.Printf("variance reduction    %s: %d pairs, factor %.2f, leg correlation %.3f\n",
			r.Mode, r.Pairs, r.Factor, r.LegCorrelation)
	}
	printBreakdown(res)
	if sc := res.SpanCheck; sc != nil {
		verdict := "OK"
		if !sc.Within {
			verdict = "MISMATCH"
		}
		fmt.Printf("span check            %s  reward %.6f vs spans %.6f (max |Δ| %.3g, tolerance ±%.3g)\n",
			verdict, sc.RewardMean, sc.SpanMean, sc.MaxDelta, sc.Tolerance)
	}
	if *verbose {
		for i, m := range res.PerReplication {
			fmt.Printf("  rep %d: %v\n", i, m)
		}
	}
	if eff, err := repro.AnalyticEfficiency(cfg, cfg.CheckpointInterval); err == nil {
		fmt.Printf("analytic (Daly-style) efficiency, no coordination/correlation: %.4f\n", eff)
	}
	if *metrics {
		fmt.Println()
		fmt.Println("telemetry")
		reg.WriteTable(os.Stdout)
	}
	return nil
}

// configHash stamps the provenance record with what actually ran: the
// plain configuration when VR is off (bit-identical to historical stamps),
// or the configuration plus the VR mode when it is on.
func configHash(cfg repro.Config, mode vr.Mode) (string, error) {
	if mode == vr.ModeNone {
		return provenance.HashJSON(cfg)
	}
	return provenance.HashJSON(struct {
		Config repro.Config `json:"config"`
		VR     string       `json:"vr"`
	}{cfg, mode.String()})
}

// runRare estimates P[the severe-failure level reaches `level` within
// `horizon` hours of a cold start] by fixed-effort importance splitting,
// optionally cross-checked against the brute-force estimate of the same
// probability under the same seeding discipline.
func runRare(cfg repro.Config, level, effort int, horizon float64, seed uint64, brute bool) error {
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
	fmt.Printf("rare event            P[severe-failure level ≥ %d within %g h]\n", level, horizon)
	fmt.Printf("splitting estimate    P = %.6g  (%d trials, %d steps)\n", res.Probability, res.Trials, res.Steps)
	for k, f := range res.StageFractions {
		fmt.Printf("  stage %d             P[level %d | level %d] = %.4g  (%d entrances)\n",
			k, k+1, k, f, res.Entrances[k])
	}
	if brute {
		bres, err := vr.BruteForce(tr, opts)
		if err != nil {
			return err
		}
		fmt.Printf("brute-force           P = %.6g  (%d trials, %d steps)\n", bres.Probability, bres.Trials, bres.Steps)
	}
	return nil
}

// printBreakdown averages the per-state time shares over the replications
// and renders them as one line per state.
func printBreakdown(res repro.Result) {
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
	fmt.Printf("time breakdown        execution %.3f (repeated %.3f) | quiesce %.4f | dump %.4f | fs-wait %.4f | recovery %.3f | reboot %.3f\n",
		b.Execution/n, repeated/n, b.Quiesce/n, b.Dump/n, b.FSWait/n, b.Recovery/n, b.Reboot/n)
}
