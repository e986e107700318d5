// Command cctrace runs a single trajectory of the checkpointing model and
// streams every activity firing as NDJSON, for debugging the model and for
// ad-hoc analysis of individual runs (failure inter-arrivals, checkpoint
// cycle timelines, recovery cascades). With -spans it emits semantic phase
// spans instead of raw firings, and -chrome exports the timeline as Chrome
// trace-event JSON for Perfetto (ui.perfetto.dev).
//
//	cctrace -horizon 100 -procs 65536 > trace.ndjson
//	cctrace -horizon 100 -only comp_failure,reboot -marking
//	cctrace -horizon 100 -spans
//	cctrace -horizon 100 -spans -chrome out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/phasetrace"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cctrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("cctrace", flag.ContinueOnError)
	var (
		horizon  = fs.Float64("horizon", 100, "simulated hours to trace")
		seed     = fs.Uint64("seed", 1, "random seed")
		only     = fs.String("only", "", "comma-separated activity names to keep (default: all)")
		marking  = fs.Bool("marking", false, "include the non-empty marking in each event")
		summary  = fs.Bool("summary", false, "print per-activity counts instead of events")
		spans    = fs.Bool("spans", false, "emit phase spans (computation/rework/quiesce/dump/fswait/recovery/downtime) instead of raw firings")
		chrome   = fs.String("chrome", "", "with -spans: write the timeline as Chrome trace-event JSON to this file (open in ui.perfetto.dev)")
		fullscan = fs.Bool("fullscan", false, "use the full-rescan scheduler instead of the incremental one (debugging; traces are bit-identical)")
	)
	cluster.DeclareFlags(fs, "procs", "mttf-years")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chrome != "" && !*spans {
		return fmt.Errorf("-chrome requires -spans")
	}

	cfg, err := scenario.New().BaseConfig(fs, "", "")
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	in, err := model.New(cfg, *seed)
	if err != nil {
		return err
	}
	in.SetFullScan(*fullscan)

	// The phase recorder rides a firing hook, independent of the SetTrace
	// observer, so -spans composes with -only/-summary event streaming.
	var rec *phasetrace.Recorder
	if *spans {
		rec = in.AttachPhases()
	}

	keep := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			keep[name] = true
		}
	}

	w := trace.NewWriter(stdout)
	var events []trace.Event
	var traceErr error
	if !*spans {
		in.SetTrace(func(t float64, activity string, mk map[string]int) {
			if len(keep) > 0 && !keep[activity] {
				return
			}
			ev := trace.Event{Time: t, Activity: activity, Marking: mk}
			if *summary {
				events = append(events, ev)
				return
			}
			if err := w.Write(ev); err != nil && traceErr == nil {
				traceErr = err
			}
		}, *marking)
	}

	in.Advance(*horizon)
	if traceErr != nil {
		return traceErr
	}
	if rec != nil {
		tl := rec.Finish(in.Now()).SplitRework()
		if *chrome != "" {
			f, err := os.Create(*chrome)
			if err != nil {
				return err
			}
			if err := tl.WriteChrome(f, fmt.Sprintf("cctrace procs=%d seed=%d", cfg.Processors, *seed)); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "cctrace: wrote %s (%d spans, %d rollbacks; load in ui.perfetto.dev)\n",
				*chrome, len(tl.Spans), len(tl.Losses))
		}
		return writeSpans(stdout, tl, *summary)
	}
	if *summary {
		s := trace.Summarize(events)
		fmt.Fprintf(stdout, "horizon %.1fh, %d events\n", *horizon, len(events))
		for _, a := range sortedKeys(s.Counts) {
			fmt.Fprintf(stdout, "%-24s %d\n", a, s.Counts[a])
		}
		return nil
	}
	return w.Flush()
}

// writeSpans emits the timeline: one span per NDJSON line, or with summary
// the per-phase time budget.
func writeSpans(stdout *os.File, tl *phasetrace.Timeline, summary bool) error {
	if summary {
		b := tl.Budget()
		total := b.Total()
		fmt.Fprintf(stdout, "horizon %.1fh, %d spans, %d rollbacks\n", tl.End, len(tl.Spans), len(tl.Losses))
		for _, p := range phasetrace.Phases() {
			if b[p] == 0 {
				continue
			}
			fmt.Fprintf(stdout, "%-24s %10.3fh  %6.2f%%\n", p.String(), b[p], 100*b[p]/total)
		}
		return nil
	}
	enc := json.NewEncoder(stdout)
	for _, sp := range tl.Spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	for _, l := range tl.Losses {
		if err := enc.Encode(struct {
			Rollback phasetrace.Loss `json:"rollback"`
		}{l}); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
