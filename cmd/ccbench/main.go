// Command ccbench is the performance-regression sentinel: it converts
// `go test -bench` output into machine-readable JSON, archives stamped
// reports into a benchmark history, renders per-benchmark trends, and
// gates changes by comparing two runs with a statistically honest noise
// band.
//
// Subcommands:
//
//	ccbench [convert] [-o file.json] [-note s]   < bench-output
//	ccbench record -history BENCH_HISTORY.jsonl [-o file.json] [-note s] < bench-output
//	ccbench trend  -history BENCH_HISTORY.jsonl [-metric ns/op] [-w 40]
//	ccbench compare [flags] old.json new.json
//	ccbench compare [flags] -history BENCH_HISTORY.jsonl
//
// The default (convert) mode reads a benchmark transcript from stdin and
// emits one JSON document with the platform headers and every benchmark's
// metrics — the standard ns/op, B/op and allocs/op plus any custom
// b.ReportMetric units (events/s, opt-procs@1yr, ...):
//
//	go test -run NONE -bench 'Calendar|RecycleVsRebuild' -benchmem \
//	    ./internal/san ./internal/model | ccbench -o BENCH_5.json
//
// `record` additionally stamps the report with the run's provenance
// (commit, go version, CPU, host) and a timestamp, and appends it as one
// line to a JSONL history file — the substrate `trend` and `compare
// -history` read. A FAIL line in the transcript makes ccbench exit
// non-zero, so a pipeline cannot silently archive a broken run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(1)
	}
}

// run dispatches the subcommand. Every subcommand owns a flag.FlagSet with
// real usage text; the bare form is an alias for `convert` so existing
// pipelines (`... | ccbench -o out.json`) keep working.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	cmd, rest := "convert", args
	if len(args) > 0 {
		switch args[0] {
		case "convert", "record", "trend", "compare":
			cmd, rest = args[0], args[1:]
		case "help", "-help", "--help", "-h":
			printUsage(stdout)
			return nil
		}
	}
	switch cmd {
	case "convert":
		return cmdConvert(rest, stdin, stdout)
	case "record":
		return cmdRecord(rest, stdin, stdout)
	case "trend":
		return cmdTrend(rest, stdout)
	case "compare":
		return cmdCompare(rest, stdout)
	}
	panic("unreachable")
}

func printUsage(w io.Writer) {
	fmt.Fprint(w, `ccbench — benchmark sentinel: convert, archive, trend and gate go benchmarks

usage:
  ccbench [convert] [-o file.json] [-note s]        < bench-output
  ccbench record -history FILE [-o file.json]       < bench-output
  ccbench trend  -history FILE [-metric unit] [-w n]
  ccbench compare [-threshold f] [-noise f] [-metric unit] [-warn-only] old.json new.json
  ccbench compare ... -history FILE                 (compares the last two entries)

Run any subcommand with -h for its flags.
`)
}

// newFlagSet builds a subcommand flag set that reports errors instead of
// exiting, with usage text routed to w.
func newFlagSet(name, usage string, w io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(w)
	fs.Usage = func() {
		fmt.Fprintf(w, "usage: %s\n", usage)
		fs.PrintDefaults()
	}
	return fs
}

// parseFlags runs fs over args, mapping -h/-help to a clean exit (the
// usage text has already been printed by the FlagSet).
func parseFlags(fs *flag.FlagSet, args []string) (help bool, err error) {
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return true, nil
		}
		return false, err
	}
	return false, nil
}

// cmdConvert is the historic mode: transcript on stdin, JSON out.
func cmdConvert(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := newFlagSet("convert", "ccbench [convert] [-o file.json] [-note s] < bench-output", stdout)
	out := fs.String("o", "", "write the JSON report to this `file` instead of stdout")
	note := fs.String("note", "", "free-text label stored in the report (e.g. a PR number)")
	if help, err := parseFlags(fs, args); help || err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	rep, err := parseBench(stdin)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}
	rep.Note = *note
	return writeReport(rep, *out, stdout)
}
