// Command cctop is a live terminal dashboard for an in-flight run: it polls
// the /metricz endpoint that ccsim/ccsweep expose behind -debug-addr and
// renders replication progress, throughput, confidence-interval convergence
// (as a sparkline), the phase time budget, and replication wall-time
// quantiles.
//
//	ccsim -procs 131072 -reps 64 -debug-addr localhost:6060 &
//	cctop -addr localhost:6060
//
// By default each frame clears the screen; -plain appends frames instead
// (for logs or pipes), and -n bounds the number of polls.
//
// With -run it watches a distributed sweep's shared run directory instead
// of an HTTP endpoint: worker heartbeats (heartbeats/<worker>.json) fused
// with block status become a fleet dashboard — workers alive/stale/dead by
// heartbeat age, per-worker event rates, stragglers, ETA, and a crashed
// worker's final flight-recorder events.
//
//	ccsweep -param procs -values 8192,16384 -manifest run/
//	ccsweep -worker run/ & ccsweep -worker run/ &
//	cctop -run run/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/asciichart"
	"repro/internal/blocks"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cctop:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cctop", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:6060", "debug endpoint address (host:port of a -debug-addr run)")
		runDir   = fs.String("run", "", "watch this sweep run directory (worker heartbeats + block status) instead of polling -addr")
		interval = fs.Duration("interval", time.Second, "poll interval")
		polls    = fs.Int("n", 0, "stop after this many polls (0 = poll until interrupted)")
		plain    = fs.Bool("plain", false, "append frames instead of clearing the screen (for logs/pipes)")
		width    = fs.Int("width", 48, "sparkline and bar width in characters")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval must be positive")
	}
	if *width < 8 {
		return fmt.Errorf("-width must be at least 8")
	}

	if *runDir != "" {
		for i := 0; *polls == 0 || i < *polls; i++ {
			if i > 0 {
				time.Sleep(*interval)
			}
			now := time.Now()
			m, st, fl, err := blocks.CollectFleet(*runDir, now)
			if err != nil {
				return err
			}
			// Captured profiles are part of the fleet story: a straggler row
			// usually has a matching capture explaining it.
			profiles, _ := obs.ReadProfiles(blocks.ProfileDir(*runDir))
			if !*plain {
				fmt.Fprint(stdout, "\033[H\033[2J")
			}
			fmt.Fprint(stdout, renderFleet(*runDir, m, st, fl, profiles, now, *width))
			if st.Done() && fl.Alive+fl.Stale == 0 {
				break // sweep over, no one left to watch
			}
		}
		return nil
	}

	url := fmt.Sprintf("http://%s/metricz", *addr)
	client := &http.Client{Timeout: 5 * time.Second}
	var hist history
	for i := 0; *polls == 0 || i < *polls; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		snap, err := fetch(client, url)
		if err != nil {
			return err
		}
		hist.push(snap)
		if !*plain {
			fmt.Fprint(stdout, "\033[H\033[2J")
		}
		fmt.Fprint(stdout, render(snap, &hist, *addr, *width))
	}
	return nil
}

// fetch pulls one registry snapshot from the /metricz endpoint.
func fetch(client *http.Client, url string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := client.Get(url)
	if err != nil {
		return snap, fmt.Errorf("polling %s: %w (is the run started with -debug-addr?)", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("polling %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("polling %s: %w", url, err)
	}
	return snap, nil
}

// history accumulates the polled values the sparklines trend over.
type history struct {
	ciHalf []float64 // runner.ci_half_width per poll
	eps    []float64 // runner.events_per_sec per poll
}

func (h *history) push(s obs.Snapshot) {
	h.ciHalf = append(h.ciHalf, s.FloatGauges["runner.ci_half_width"])
	h.eps = append(h.eps, s.FloatGauges["runner.events_per_sec"])
}

// render draws one dashboard frame from a snapshot plus the poll history.
// It is a pure function of its inputs, so tests can pin the layout without
// a live HTTP endpoint.
func render(s obs.Snapshot, hist *history, addr string, width int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cctop — %s\n\n", addr)

	reps := s.Counters["runner.replications"]
	events := s.Counters["runner.events"]
	fmt.Fprintf(&sb, "replications  %d done", reps)
	if running, ok := s.Gauges["exec.jobs_running"]; ok {
		fmt.Fprintf(&sb, ", %d running", running)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "events        %s", groupDigits(events))
	if eps := s.FloatGauges["runner.events_per_sec"]; eps > 0 {
		fmt.Fprintf(&sb, "  (%s/s)", groupDigits(uint64(eps)))
	}
	sb.WriteByte('\n')

	if len(hist.ciHalf) > 0 {
		cur := hist.ciHalf[len(hist.ciHalf)-1]
		fmt.Fprintf(&sb, "CI half-width %.3g  %s\n", cur, asciichart.Sparkline(hist.ciHalf, width))
	}
	if len(hist.eps) > 0 {
		fmt.Fprintf(&sb, "events/sec    %s\n", asciichart.Sparkline(hist.eps, width))
	}

	if bars := phaseBars(s, width); bars != "" {
		sb.WriteString("\nphase budget (simulated hours across finished replications)\n")
		sb.WriteString(bars)
	}

	if wall, ok := s.Timers["runner.replication_wall_s"]; ok && wall.Count > 0 {
		fmt.Fprintf(&sb, "\nreplication wall time  p50 %.2fs  p90 %.2fs  p99 %.2fs  (n=%d)\n",
			wall.P50, wall.P90, wall.P99, wall.Count)
	}
	if line := blocksLine(s); line != "" {
		sb.WriteString(line)
	}
	if line := memLine(s); line != "" {
		sb.WriteString(line)
	}
	return sb.String()
}

// renderFleet draws one fleet-dashboard frame for a run directory. Like
// render it is a pure function of its inputs, so tests can pin the layout
// without a live sweep.
func renderFleet(dir string, m *blocks.Manifest, st blocks.Status, fl blocks.Fleet, profiles []obs.ProfileInfo, now time.Time, width int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cctop — %s  sweep %s (%s, %d cells)\n\n", dir, m.Name, m.Kind, len(m.Cells))

	// Block progress bar.
	frac := 0.0
	if st.Planned > 0 {
		frac = float64(st.Complete) / float64(st.Planned)
	}
	filled := int(frac*float64(width) + 0.5)
	fmt.Fprintf(&sb, "blocks   [%s%s] %d/%d",
		strings.Repeat("█", filled), strings.Repeat("·", width-filled), st.Complete, st.Planned)
	if st.Leased > 0 {
		fmt.Fprintf(&sb, "  ·  %d running", st.Leased)
	}
	if st.Torn > 0 {
		fmt.Fprintf(&sb, "  ·  %d torn", st.Torn)
	}
	if st.Expired > 0 {
		fmt.Fprintf(&sb, "  ·  %d expired-lease", st.Expired)
	}
	sb.WriteByte('\n')

	fmt.Fprintf(&sb, "fleet    %d alive", fl.Alive)
	if fl.Stale > 0 {
		fmt.Fprintf(&sb, ", %d stale", fl.Stale)
	}
	if fl.Dead > 0 {
		fmt.Fprintf(&sb, ", %d DEAD", fl.Dead)
	}
	if fl.Exited > 0 {
		fmt.Fprintf(&sb, ", %d exited", fl.Exited)
	}
	if fl.EventsPerSec > 0 {
		fmt.Fprintf(&sb, "  ·  %s ev/s", groupDigits(uint64(fl.EventsPerSec)))
	}
	switch {
	case fl.ETAMS == 0 && st.Done():
		sb.WriteString("  ·  complete — ready to -reduce")
	case fl.ETAMS > 0:
		fmt.Fprintf(&sb, "  ·  ETA %v", (time.Duration(fl.ETAMS) * time.Millisecond).Round(time.Second))
	}
	sb.WriteByte('\n')
	if fl.MetricsErr != "" {
		fmt.Fprintf(&sb, "warning  metrics merge failed: %s\n", fl.MetricsErr)
	}
	if fl.ProvenanceMismatch {
		var bins []string
		for id, n := range fl.Binaries {
			bins = append(bins, fmt.Sprintf("%s ×%d", id, n))
		}
		sort.Strings(bins)
		fmt.Fprintf(&sb, "warning  MIXED BINARIES in one run directory: %s — results must not be merged silently\n",
			strings.Join(bins, ", "))
	}

	if len(fl.Workers) > 0 {
		fmt.Fprintf(&sb, "\n%-24s %-7s %7s %7s %6s %12s  %s\n",
			"worker", "health", "age", "block", "done", "ev/s", "note")
		for _, fw := range fl.Workers {
			age := (time.Duration(fw.AgeMS) * time.Millisecond).Round(100 * time.Millisecond)
			block := "-"
			if fw.CurrentBlock >= 0 {
				block = fmt.Sprintf("#%d", fw.CurrentBlock)
			}
			note := ""
			switch {
			case fw.Health == blocks.WorkerExited:
				note = fw.Reason
			case fw.Health == blocks.WorkerDead:
				note = "no heartbeat — " + lastFlight(fw.Heartbeat)
			case fw.Straggler:
				note = "straggler (below half the fleet median rate)"
			}
			if fw.ProvenanceOutlier {
				outlier := "DIFFERENT BINARY"
				if p := fw.Provenance; p != nil {
					outlier = "DIFFERENT BINARY " + p.BinaryID()
				}
				if note != "" {
					note += " · "
				}
				note += outlier
			}
			fmt.Fprintf(&sb, "%-24s %-7s %7s %7s %6d %12s  %s\n",
				fw.Worker, string(fw.Health), age, block, fw.Completed,
				groupDigits(uint64(fw.EventsPerSec)), note)
		}
	}

	// Per-worker committed totals from the journals themselves — this
	// covers workers that never heartbeat (older binaries).
	for _, ws := range st.Workers {
		fmt.Fprintf(&sb, "journal  %-24s %4d blocks  %12s events\n",
			ws.Worker, ws.Completed, groupDigits(ws.Events))
	}

	// Captured profiles, newest-last per worker: the in-run postmortems
	// obs.ProfileCapture committed into <run>/profiles.
	if len(profiles) > 0 {
		fmt.Fprintf(&sb, "\nprofiles (%d captured in %s)\n", len(profiles), blocks.ProfileDir(dir))
		for _, p := range profiles {
			age := now.Sub(time.UnixMilli(p.UnixMS)).Round(time.Second)
			fmt.Fprintf(&sb, "  %-24s #%03d %8s ago  %-9s %s\n",
				p.Prefix, p.Seq, age, fileKinds(p.Files), p.Reason)
		}
	}
	return sb.String()
}

// fileKinds compresses a capture's file list to its kinds ("cpu+heap+grt").
func fileKinds(files []string) string {
	var kinds []string
	for _, f := range files {
		switch {
		case strings.HasSuffix(f, "-cpu.pprof"):
			kinds = append(kinds, "cpu")
		case strings.HasSuffix(f, "-heap.pprof"):
			kinds = append(kinds, "heap")
		case strings.HasSuffix(f, "-goroutine.pprof"):
			kinds = append(kinds, "grt")
		}
	}
	return strings.Join(kinds, "+")
}

// lastFlight summarises a dead worker's final flight-recorder entries —
// the postmortem its last periodic heartbeat carried.
func lastFlight(hb blocks.Heartbeat) string {
	if len(hb.Flight) == 0 {
		return "no flight events"
	}
	n := len(hb.Flight)
	tail := hb.Flight
	if n > 3 {
		tail = tail[n-3:]
	}
	parts := make([]string, 0, len(tail))
	for _, fe := range tail {
		p := fe.Kind
		if fe.Block >= 0 {
			p = fmt.Sprintf("%s #%d", fe.Kind, fe.Block)
		}
		parts = append(parts, p)
	}
	return "last: " + strings.Join(parts, ", ")
}

// blocksLine renders the sweep-block telemetry a distributed worker
// (ccsweep -worker) publishes: claim/complete progress against the
// plan, crash reclaims, and the per-block wall-time distribution. Empty
// when the process runs no block engine (no blocks.* counters), so
// monolithic dashboards are unchanged.
func blocksLine(s obs.Snapshot) string {
	planned := s.Counters["blocks.planned"]
	if planned == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "\nblocks        %d/%d completed by this worker",
		s.Counters["blocks.completed"], planned)
	if claimed := s.Counters["blocks.claimed"]; claimed > 0 {
		fmt.Fprintf(&sb, " (%d claimed)", claimed)
	}
	if reclaimed := s.Counters["blocks.reclaimed"]; reclaimed > 0 {
		fmt.Fprintf(&sb, "  ·  %d reclaimed from crashed peers", reclaimed)
	}
	if skipped := s.Counters["blocks.skipped"]; skipped > 0 {
		fmt.Fprintf(&sb, "  ·  %d done elsewhere", skipped)
	}
	sb.WriteByte('\n')
	if wall, ok := s.Timers["blocks.block_wall_s"]; ok && wall.Count > 0 {
		fmt.Fprintf(&sb, "block wall    p50 %.2fs  p90 %.2fs  p99 %.2fs  (n=%d)\n",
			wall.P50, wall.P90, wall.P99, wall.Count)
	}
	return sb.String()
}

// memLine renders the allocation-economy lines: model instances built vs
// recycled, event-pool hit rate, and the GC gauges from obs.RecordMemStats.
// Empty when the run predates these metrics (no runner.instance_* counters
// and no runtime.* gauges), so old endpoints still render.
func memLine(s obs.Snapshot) string {
	var sb strings.Builder
	builds := s.Counters["runner.instance_builds"]
	recycles := s.Counters["runner.instance_recycles"]
	if builds+recycles > 0 {
		fmt.Fprintf(&sb, "\ninstances     %d built, %d recycled", builds, recycles)
		hits, misses := s.Counters["des.pool_hits"], s.Counters["des.pool_misses"]
		if hits+misses > 0 {
			fmt.Fprintf(&sb, "  ·  event pool %.1f%% hit", 100*float64(hits)/float64(hits+misses))
		}
		sb.WriteByte('\n')
	}
	if heap, ok := s.Gauges["runtime.heap_live_bytes"]; ok {
		fmt.Fprintf(&sb, "heap          %s live", formatBytes(heap))
		if objs, ok := s.Gauges["runtime.heap_objects"]; ok {
			fmt.Fprintf(&sb, " (%s objects)", groupDigits(uint64(objs)))
		}
		fmt.Fprintf(&sb, "  ·  %d GCs, %.1fms paused",
			s.Gauges["runtime.gc_count"], 1000*s.FloatGauges["runtime.gc_pause_total_s"])
		sb.WriteByte('\n')
	}
	return sb.String()
}

// formatBytes renders a byte count with a binary-prefix unit.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// phaseBars renders the phase.hours.* histograms as a horizontal bar chart
// of each phase's share of total simulated time. Empty when the run was not
// started with span verification (no phase.* metrics).
func phaseBars(s obs.Snapshot, width int) string {
	type row struct {
		name  string
		hours float64
	}
	var rows []row
	total := 0.0
	for name, h := range s.Histograms {
		if phase, ok := strings.CutPrefix(name, "phase.hours."); ok {
			rows = append(rows, row{phase, h.Sum})
			total += h.Sum
		}
	}
	if len(rows) == 0 || total <= 0 {
		return ""
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].hours > rows[j].hours })
	var sb strings.Builder
	for _, r := range rows {
		frac := r.hours / total
		filled := int(frac*float64(width) + 0.5)
		if filled == 0 && r.hours > 0 {
			filled = 1 // non-zero phases always show at least a sliver
		}
		bar := strings.Repeat("█", filled) + strings.Repeat("·", width-filled)
		fmt.Fprintf(&sb, "  %-12s %s %6.2f%%  %.1fh\n", r.name, bar, 100*frac, r.hours)
	}
	if rb := s.Counters["phase.rollbacks"]; rb > 0 {
		fmt.Fprintf(&sb, "  rollbacks    %d\n", rb)
	}
	return sb.String()
}

// groupDigits formats n with thousands separators (1234567 → "1,234,567").
func groupDigits(n uint64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var sb strings.Builder
	lead := len(s) % 3
	if lead > 0 {
		sb.WriteString(s[:lead])
	}
	for i := lead; i < len(s); i += 3 {
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(s[i : i+3])
	}
	return sb.String()
}
