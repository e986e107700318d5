// Command ccfigures regenerates the paper's evaluation figures (4a–4h and
// 5–8) by running the corresponding experiments and printing text tables
// (or CSV) of each series — the same rows/series the paper plots.
//
//	ccfigures                       # every figure, text tables, quick scale
//	ccfigures -only fig4a,fig8      # a subset
//	ccfigures -paper                # paper-scale windows (slow)
//	ccfigures -csv -out results/    # CSV files, one per figure
//
// With -report it also checks every figure against its qualitative claims
// and writes the verdicts as the claim table heading a markdown file —
// the reproduction grading itself — and fails if any claim fails:
//
//	ccfigures -extras -out results/ -report REPORT.md
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/asciichart"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ccfigures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ccfigures", flag.ContinueOnError)
	var (
		only          = fs.String("only", "", "comma-separated figure IDs (default: all)")
		scenarios     = fs.String("scenario", "", "comma-separated scenario names: run a processor sweep per scenario instead of the paper figures")
		scenarioDir   = fs.String("scenario-dir", "", "directory of scenario files extending/overriding the built-in catalog")
		listScenarios = fs.Bool("list-scenarios", false, "list the scenario catalog and exit")
		paper         = fs.Bool("paper", false, "paper-scale windows: 5 reps, 1000h warmup, 4000h measure (slow)")
		reps          = fs.Int("reps", 0, "override replication count")
		warmup        = fs.Float64("warmup", 0, "override transient hours to discard")
		measure       = fs.Float64("measure", 0, "override measured hours per replication")
		extras        = fs.Bool("extras", false, "include beyond-the-paper experiments (ablations, time breakdown)")
		chart         = fs.Bool("chart", false, "render ASCII charts alongside the tables")
		csv           = fs.Bool("csv", false, "emit CSV instead of text tables")
		out           = fs.String("out", "", "directory for per-figure output files (default: stdout)")
		seed          = fs.Uint64("seed", 1, "root random seed")
		workers       = fs.Int("workers", runtime.NumCPU(), "concurrent figure cells (1 = sequential; results are identical for any value)")
		metrics       = fs.Bool("metrics", false, "print the collected telemetry table to stderr when done")
		report        = fs.String("report", "", "check each figure's claims and write the claim table into this markdown file, replacing its head up to the 'claims pass.' line; fails if any claim fails")
	)
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

	opts := repro.Options{Replications: 3, Warmup: 300, Measure: 1500, Seed: *seed}
	if *paper {
		opts = repro.Options{Replications: 5, Warmup: 1000, Measure: 4000, Seed: *seed}
	}
	opts.Workers = *workers
	if err := cluster.RejectZeroFlags(fs, map[string]string{
		"reps":    fmt.Sprintf("%d replications", opts.Replications),
		"warmup":  fmt.Sprintf("%g h warmup", opts.Warmup),
		"measure": fmt.Sprintf("%g h measure", opts.Measure),
		"seed":    "seed 1",
	}); err != nil {
		return err
	}
	if *reps > 0 {
		opts.Replications = *reps
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *measure > 0 {
		opts.Measure = *measure
	}
	var reg *repro.MetricsRegistry
	if *metrics {
		reg = repro.NewMetricsRegistry()
		opts.Metrics = reg
	}

	defs := experiments.All()
	if *extras {
		defs = append(defs, experiments.Extras()...)
	}
	if *scenarios != "" {
		defs = nil
		for _, name := range strings.Split(*scenarios, ",") {
			s, err := catalog.Get(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			defs = append(defs, experiments.ScenarioDef(s))
		}
	}
	if *only != "" {
		var filtered []experiments.Def
		for _, id := range strings.Split(*only, ",") {
			d, err := experiments.LookupAny(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			filtered = append(filtered, d)
		}
		defs = filtered
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	var (
		reportTail []byte
		claims     []experiments.ClaimResult
	)
	if *report != "" {
		// Refuse an unfit report file before simulating anything.
		if reportTail, err = readReportTail(*report); err != nil {
			return err
		}
	}
	for _, def := range defs {
		start := time.Now()
		fig, err := def.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", def.ID, err)
		}
		fmt.Fprintf(os.Stderr, "%s done in %v\n", def.ID, time.Since(start).Round(time.Millisecond))
		if err := emit(fig, def, *csv, *chart, *out); err != nil {
			return err
		}
		claims = append(claims, experiments.CheckClaims(fig)...)
	}
	if *metrics {
		fmt.Fprintln(os.Stderr, "telemetry")
		reg.WriteTable(os.Stderr)
	}
	if *report != "" {
		return writeReport(*report, reportTail, opts, claims)
	}
	return nil
}

// reportEnd ends the line that closes the generated head of a report.
const reportEnd = "claims pass."

// readReportTail returns what follows the generated head of the markdown
// report at path — everything after the line holding reportEnd — to be
// kept byte for byte. A missing file has no tail; a file without that
// line is refused, so it is never truncated.
func readReportTail(path string) ([]byte, error) {
	old, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	i := bytes.Index(old, []byte(reportEnd))
	if i < 0 {
		return nil, fmt.Errorf("-report %s: no %q line ends a generated head; refusing to overwrite the file", path, reportEnd)
	}
	_, tail, _ := bytes.Cut(old[i:], []byte("\n"))
	return tail, nil
}

// writeReport writes the claim table, then tail, to path, and reports an
// error afterwards if any claim failed.
func writeReport(path string, tail []byte, opts repro.Options, claims []experiments.ClaimResult) error {
	var b bytes.Buffer
	fmt.Fprintln(&b, "# Reproduction report — Modeling Coordinated Checkpointing for Large-Scale Supercomputers (DSN 2005)")
	fmt.Fprintf(&b, "\nGenerated by `ccfigures -report`: %d replications × (%g h transient + %g h measured) per cell, seed %d.\n",
		opts.Replications, opts.Warmup, opts.Measure, opts.Seed)
	fmt.Fprintln(&b, "\n| Experiment | Claim | Verdict | Detail |")
	fmt.Fprintln(&b, "|---|---|---|---|")
	passed := 0
	for _, c := range claims {
		verdict := "FAIL"
		if c.Pass {
			verdict, passed = "PASS", passed+1
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", c.Figure, escape(c.Claim), verdict, escape(c.Detail))
	}
	fmt.Fprintf(&b, "\n**%d/%d %s**\n", passed, len(claims), reportEnd)
	b.Write(tail)
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return err
	}
	if passed < len(claims) {
		return fmt.Errorf("%d of %d claims failed", len(claims)-passed, len(claims))
	}
	return nil
}

// escape keeps markdown table cells intact.
func escape(s string) string { return strings.ReplaceAll(s, "|", "\\|") }

func emit(fig *repro.Figure, def experiments.Def, csv, chart bool, outDir string) error {
	w := os.Stdout
	if outDir != "" {
		ext := ".txt"
		if csv {
			ext = ".csv"
		}
		f, err := os.Create(filepath.Join(outDir, def.ID+ext))
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if csv {
		return experiments.WriteCSV(w, fig)
	}
	if err := experiments.WriteTable(w, fig); err != nil {
		return err
	}
	if chart {
		logX := strings.Contains(fig.XLabel, "processors") || strings.Contains(fig.XLabel, "nodes")
		if _, err := fmt.Fprintln(w, asciichart.Render(fig, asciichart.Options{LogX: logX})); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  shape claim: %s\n\n", def.ShapeClaim)
	return err
}
