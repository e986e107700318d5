package blocks

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/provenance"
)

// WorkerHealth classifies one worker from its heartbeat age.
type WorkerHealth string

const (
	// WorkerAlive: heartbeat fresher than the stale threshold.
	WorkerAlive WorkerHealth = "alive"
	// WorkerStale: heartbeat late — the worker may be wedged, swapping,
	// or mid-GC; its lease renewals tell the real story.
	WorkerStale WorkerHealth = "stale"
	// WorkerDead: heartbeat far past its cadence with no final snapshot —
	// a SIGKILL, OOM, or machine loss. Its last periodic heartbeat (with
	// the flight ring) is the postmortem.
	WorkerDead WorkerHealth = "dead"
	// WorkerExited: a final snapshot was flushed; Reason says why.
	WorkerExited WorkerHealth = "exited"
)

// FleetWorker is one worker's heartbeat judged against the clock.
type FleetWorker struct {
	Heartbeat
	Health WorkerHealth `json:"health"`
	// AgeMS is how old the snapshot is.
	AgeMS int64 `json:"age_ms"`
	// Straggler marks an alive worker whose event rate has fallen below
	// half the alive-fleet median.
	Straggler bool `json:"straggler,omitempty"`
	// ProvenanceOutlier marks a worker whose binary (commit+dirty+go
	// version) differs from the fleet's most common one. Its observations
	// are still on disk, but merging them with the majority's is comparing
	// two different programs.
	ProvenanceOutlier bool `json:"provenance_outlier,omitempty"`
}

// Staleness is judged by each writer's own recorded cadence
// (Heartbeat.IntervalMS), so a fleet of mixed-interval workers is judged
// fairly: stale past 3 intervals, dead past 6.
const (
	staleIntervals = 3
	deadIntervals  = 6
)

// Fleet is the run-level view CollectFleet assembles: every worker's
// health, the combined event rate, the merged metrics registry, and an
// ETA from the blocks completed so far.
type Fleet struct {
	Workers []FleetWorker `json:"workers"`
	Alive   int           `json:"alive"`
	Stale   int           `json:"stale"`
	Dead    int           `json:"dead"`
	Exited  int           `json:"exited"`
	// EventsPerSec sums the alive workers' rates.
	EventsPerSec float64 `json:"events_per_sec"`
	// ETAMS estimates time to sweep completion from the mean committed
	// block wall time and the count of alive workers; -1 when unknowable
	// (nothing committed yet, or no one alive).
	ETAMS int64 `json:"eta_ms"`
	// Metrics is every worker's registry merged (obs.MergeSnapshots);
	// nil when no worker shipped one or the merge failed (MetricsErr).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// MetricsErr records a merge refusal (e.g. mixed binaries with
	// different bucket layouts) without poisoning the rest of the view.
	MetricsErr string `json:"metrics_err,omitempty"`
	// Binaries tallies distinct worker binaries by provenance.BinaryID
	// ("<sha12>[+dirty]@<goversion>"); ProvenanceMismatch is set when more
	// than one appears — two workers on different commits are sharing a
	// run directory, and their results must not be compared as if they
	// came from the same program. Host and CPU deliberately don't factor
	// in: heterogeneous machines are a normal fleet.
	Binaries           map[string]int `json:"binaries,omitempty"`
	ProvenanceMismatch bool           `json:"provenance_mismatch,omitempty"`
}

// CollectFleet fuses the run directory's heartbeats with a Scan into one
// fleet view. Like Scan it only reads, so it is safe beside live workers;
// it is the engine behind `cctop -run` and `ccsweep -fleet`.
func CollectFleet(dir string, now time.Time) (*Manifest, Status, Fleet, error) {
	m, st, err := Scan(dir, now)
	if err != nil {
		return nil, Status{}, Fleet{}, err
	}
	hbs, err := ReadHeartbeats(dir)
	if err != nil {
		return nil, Status{}, Fleet{}, err
	}
	var fl Fleet
	var snaps []obs.Snapshot
	var aliveRates []float64
	for _, hb := range hbs {
		fw := FleetWorker{Heartbeat: hb, AgeMS: hb.Age(now).Milliseconds()}
		stale := time.Duration(max64(hb.IntervalMS, 1)*staleIntervals) * time.Millisecond
		dead := time.Duration(max64(hb.IntervalMS, 1)*deadIntervals) * time.Millisecond
		age := hb.Age(now)
		switch {
		case hb.Final:
			fw.Health = WorkerExited
			fl.Exited++
		case age > dead:
			fw.Health = WorkerDead
			fl.Dead++
		case age > stale:
			fw.Health = WorkerStale
			fl.Stale++
		default:
			fw.Health = WorkerAlive
			fl.Alive++
			fl.EventsPerSec += hb.EventsPerSec
			aliveRates = append(aliveRates, hb.EventsPerSec)
		}
		if hb.Metrics != nil {
			snaps = append(snaps, *hb.Metrics)
		}
		fl.Workers = append(fl.Workers, fw)
	}
	// Stragglers: alive workers under half the alive-fleet median rate.
	if len(aliveRates) >= 2 {
		sorted := append([]float64(nil), aliveRates...)
		sort.Float64s(sorted)
		median := sorted[len(sorted)/2]
		if median > 0 {
			for i := range fl.Workers {
				if fl.Workers[i].Health == WorkerAlive && fl.Workers[i].EventsPerSec < median/2 {
					fl.Workers[i].Straggler = true
				}
			}
		}
	}
	// Provenance: tally distinct binaries and flag the minority. Workers
	// without a stamp (pre-provenance binaries) are left out of the vote
	// rather than counted as yet another binary.
	var stamps []*provenance.Stamp
	for _, fw := range fl.Workers {
		if fw.Provenance != nil {
			stamps = append(stamps, fw.Provenance)
		}
	}
	if bins := provenance.Binaries(stamps); len(bins) > 0 {
		fl.Binaries = bins
		if len(bins) > 1 {
			fl.ProvenanceMismatch = true
			majority, best := "", 0
			for id, n := range bins {
				if n > best || (n == best && id < majority) {
					majority, best = id, n
				}
			}
			for i := range fl.Workers {
				if p := fl.Workers[i].Provenance; p != nil && p.BinaryID() != majority {
					fl.Workers[i].ProvenanceOutlier = true
				}
			}
		}
	}
	fl.ETAMS = -1
	if remaining := st.Planned - st.Complete; remaining == 0 {
		fl.ETAMS = 0
	} else if st.Complete > 0 && fl.Alive > 0 {
		meanWallMS := st.WallMS / float64(st.Complete)
		fl.ETAMS = int64(meanWallMS * float64(remaining) / float64(fl.Alive))
	}
	if len(snaps) > 0 {
		if merged, merr := obs.MergeSnapshots(snaps...); merr == nil {
			fl.Metrics = &merged
		} else {
			fl.MetricsErr = merr.Error()
		}
	}
	return m, st, fl, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
