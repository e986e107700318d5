// Command e2ebench is the repository's end-to-end benchmark. It runs one of
// three batch workloads over the simulator's exported Go API — a steady-state
// estimate, a block-sharded Fig-4a sweep and a paired correlated-failure
// comparison — checks their results, and prints one JSON line with the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced pass (--trace 1). README.md describes the workloads and metrics.
//
//	bash e2ebench/run.sh --workload estimate-base --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/rng"
)

// processStart stands in for the process start time: the first job's set-up
// time runs from here, so it includes the benchmark's own start-up.
var processStart = time.Now()

// size fixes the work of one batch job.
type size struct {
	reps            int     // replications per job (per cell for the sweep, pairs for the compare)
	warmup, measure float64 // simulated hours per replication
	jobSecs         float64 // nominal wall seconds of one job on the reference host
}

// workload is one batch job the benchmark repeats. job runs the job once at
// seed and, when tr is non-nil, follows it with the traced pass.
type workload struct {
	name       string
	full, tiny size
	job        func(e *env, seed uint64, tr *tracer) (job, error)
}

var workloads = []workload{estimateBase, sweepFig4a, compareCorrelated}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// job is what one batch job hands back for the end-to-end metrics.
type job struct {
	setup, wall, cpu time.Duration
	events           uint64
	// rssMB is the peak resident memory from the job's start to the end of
	// its timed window, read before the checks that follow the window.
	rssMB float64
	// series holds the per-replication values behind the headline estimate
	// (one series per sweep cell); the run pools them across its jobs.
	series [][]float64
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool // test size: a few replications on short windows
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: estimate-base, sweep-fig4a or compare-correlated")
	flag.Uint64Var(&o.seed, "seed", 1, "root seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "nominal measuring time; sets the number of batch jobs in the run")
	flag.IntVar(&traceFlag, "trace", 0, "0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// env carries one run's settings and tallies through the jobs.
type env struct {
	size    size
	workers int
	tmp     string
	log     io.Writer
	first   bool // the next job is the run's first
	ops     tally
	layers  *layerStats // traced pass only
}

// tally counts operations — replications, blocks and correctness checks —
// and the ones that failed.
type tally struct{ attempted, failed int }

func (t tally) errorRate() float64 { return float64(t.failed) / float64(max(1, t.attempted)) }

// count counts n operations, of which `failed` failed.
func (e *env) count(n, failed int) {
	e.ops.attempted += n
	e.ops.failed += failed
}

// check counts one correctness check; a non-nil err is a failure.
func (e *env) check(name string, err error) {
	e.ops.attempted++
	if err != nil {
		e.ops.failed++
		fmt.Fprintf(e.log, "check %s FAILED: %v\n", name, err)
	}
}

// setupStart is where a job's set-up time starts: process start for the
// run's first job, now for the others.
func (e *env) setupStart() time.Time {
	if e.first {
		e.first = false
		return processStart
	}
	return time.Now()
}

// jobCount is the number of batch jobs a run makes: enough to fill the nominal
// measuring time on the reference host. It depends on the settings only, so
// the same seed and seconds give the same work — and bit-identical
// statistics — however fast the program runs.
func jobCount(s size, seconds float64) int {
	return max(1, int(math.Round(seconds/s.jobSecs)))
}

func run(o options, log io.Writer) (result, error) {
	w, ok := lookup(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	e := &env{size: w.full, workers: runtime.NumCPU(), log: log, first: true}
	if o.tiny {
		e.size = w.tiny
	}
	tmp, err := os.MkdirTemp("", "e2ebench-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	e.tmp = tmp

	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s/%d", w.name, o.seed))
		e.layers = &layerStats{}
	}
	var done []job
	for i, seed := range jobSeeds(o.seed, jobCount(e.size, o.seconds)) {
		resetPeakRSS()
		j, err := w.job(e, seed, tr)
		if err != nil {
			return result{}, err
		}
		if j.rssMB == 0 { // a job that failed before its window closed
			j.rssMB = peakRSSMB()
		}
		fmt.Fprintf(log, "job %d seed %d: setup %.6f s, wall %.4f s, cpu %.4f s, %d events\n",
			i, seed, j.setup.Seconds(), j.wall.Seconds(), j.cpu.Seconds(), j.events)
		done = append(done, j)
	}
	metrics := map[string]metric{}
	if o.trace {
		if err := e.layers.finish(w, tr, o.seed, done, metrics, log); err != nil {
			return result{}, err
		}
		if err := writeTraceFile(tracePath(w.name, o.seed), w.name, tr.spans); err != nil {
			return result{}, err
		}
		metrics["error_rate"] = metric{e.ops.errorRate(), "ratio"}
	} else {
		endToEnd(done, metrics)
	}
	return result{
		Correct:   e.ops.failed == 0 && e.ops.attempted > 0,
		Attempted: e.ops.attempted,
		Failed:    e.ops.failed,
		Metrics:   metrics,
	}, nil
}

// jobSeeds derives the run's job seeds from the root seed; the first job
// runs at the root seed itself.
func jobSeeds(root uint64, n int) []uint64 {
	s := rng.New(root ^ 0x6a6f6273) // "jobs"
	out := make([]uint64, n)
	out[0] = root
	for i := 1; i < n; i++ {
		out[i] = s.Uint64()
	}
	return out
}

// tracePath is where the traced pass writes its Chrome trace, relative to
// the working directory.
func tracePath(workload string, seed uint64) string {
	return filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", workload, seed))
}

func writeTraceFile(path, label string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, label, spans); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// endToEnd folds the run's jobs into the end-to-end metrics.
func endToEnd(jobs []job, m map[string]metric) {
	var setup, wall, cpu, rss []float64
	var totalWall float64
	var events uint64
	for _, j := range jobs {
		setup = append(setup, j.setup.Seconds())
		wall = append(wall, j.wall.Seconds())
		cpu = append(cpu, j.cpu.Seconds())
		rss = append(rss, j.rssMB)
		totalWall += j.wall.Seconds()
		events += j.events
	}
	put := func(name string, v float64, unit string) { m[name] = metric{finite(v), unit} }
	put("setup_s", median(setup), "s")
	put("wall_s", median(wall), "s")
	put("events_per_s", float64(events)/totalWall, "events/s")
	put("cpu_s", median(cpu), "s")
	put("max_rss_mb", median(rss), "MB")
	put("ci_half_width", pooledHalfWidth(jobs), "fraction")
}

// precisionPerS is 1 / (ci_half_width² · Σ wall_s): the statistical
// precision the run bought per second of wall time.
func precisionPerS(jobs []job) float64 {
	hw := pooledHalfWidth(jobs)
	var wall float64
	for _, j := range jobs {
		wall += j.wall.Seconds()
	}
	return 1 / (hw * hw * wall)
}

// pooledHalfWidth is the 95 % half-width of the headline estimate over all
// the run's replications: each series is pooled across jobs, and for several
// series (sweep cells) the median half-width is taken.
// A failed job has no series and adds nothing.
func pooledHalfWidth(jobs []job) float64 {
	var pooled [][]float64
	for _, j := range jobs {
		for i, s := range j.series {
			if i == len(pooled) {
				pooled = append(pooled, nil)
			}
			pooled[i] = append(pooled[i], s...)
		}
	}
	var hws []float64
	for _, p := range pooled {
		hws = append(hws, halfWidth(p))
	}
	return median(hws)
}

// rusage reports the process's user+system CPU time and peak resident set
// in MB.
func rusage() (cpu time.Duration, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS starts a job's memory measurement from a clean heap: the
// previous job's garbage is collected and returned to the OS, and the
// kernel's peak-RSS mark is reset to the current RSS. Without the reset
// (kernels without /proc/self/clear_refs) peakRSSMB reads the process peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak resident set since the last reset (VmHWM), or
// the process's lifetime peak where /proc is unavailable.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	_, rss := rusage()
	return rss
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}
