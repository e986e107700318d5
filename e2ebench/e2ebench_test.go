package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/runner"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyRun(t *testing.T, workload string, seed uint64, trace bool) result {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	res, err := run(options{
		workload: workload, seed: seed, seconds: 2, trace: trace, tiny: true,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The result must survive the JSON line it is printed as.
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTinyRunsPrintEveryDeclaredMetric runs each workload at the test size,
// timed and traced, and requires every metric BENCHMARK.json declares —
// and no other — finite and with its declared unit, with no failed check.
func TestTinyRunsPrintEveryDeclaredMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				res := tinyRun(t, w.name, 7, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("%s: not printed", name)
					case m.Unit != unit:
						t.Errorf("%s: unit %q, declared %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s: %v", name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("%s: %v, want > 0", name, m.Value)
					}
				}
			})
		}
	}
}

// TestCountsRepeatPerSeed requires the counts of a run — events and
// headline values per job, operations attempted, journal bytes, draws and
// the traced pass's simulator ratios — to repeat exactly for a seed and
// the seed-dependent ones to differ across seeds.
func TestCountsRepeatPerSeed(t *testing.T) {
	counts := map[string][]string{
		"estimate-base": {"rng.draws_per_event", "san.instant_firings_per_event", "des.scheduled_per_fired", "runner.replication_ms.n"},
		// Block runs and the simulator counters behind the san ratios are
		// left out on the sweep: blocks.Work can run a block twice (README).
		"sweep-fig4a":        {"rng.draws_per_event", "blocks.journal_bytes"},
		"compare-correlated": {"rng.draws_per_event", "vr.ci_shrink_factor", "san.reactivations_per_event", "runner.replication_ms.n"},
	}
	varies := map[string]bool{"runner.replication_ms.n": false}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := jobCounts(t, w, 7), jobCounts(t, w, 7), jobCounts(t, w, 8)
			if a != b {
				t.Errorf("seed 7 jobs differ:\n%s\n%s", a, b)
			}
			if a == c {
				t.Errorf("seeds 7 and 8 give the same jobs: %s", a)
			}
			r7, r7b, r8 := tinyRun(t, w.name, 7, true), tinyRun(t, w.name, 7, true), tinyRun(t, w.name, 8, true)
			if r7.Attempted != r7b.Attempted {
				t.Errorf("attempted %d, then %d", r7.Attempted, r7b.Attempted)
			}
			for _, name := range counts[w.name] {
				if r7.Metrics[name] != r7b.Metrics[name] {
					t.Errorf("%s: %v, then %v", name, r7.Metrics[name].Value, r7b.Metrics[name].Value)
				}
				if v, ok := varies[name]; (!ok || v) && r7.Metrics[name] == r8.Metrics[name] {
					t.Errorf("%s: %v for seeds 7 and 8", name, r7.Metrics[name].Value)
				}
			}
		})
	}
}

// jobCounts runs one job and renders its counts: events and the exact
// per-replication values behind the headline estimate.
func jobCounts(t *testing.T, w workload, seed uint64) string {
	t.Helper()
	e := testEnv(t, w)
	j, err := w.job(e, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.ops.failed != 0 {
		t.Fatalf("%d of %d operations failed", e.ops.failed, e.ops.attempted)
	}
	return fmt.Sprintf("events=%d series=%v", j.events, j.series)
}

func testEnv(t *testing.T, w workload) *env {
	return &env{size: w.tiny, workers: runtime.NumCPU(), tmp: t.TempDir(), log: io.Discard, first: true}
}

// TestCorruptedResultsAreCaught feeds each workload's checks a result with
// one value corrupted in its last bit and requires the failure to be
// counted into the error rate.
func TestCorruptedResultsAreCaught(t *testing.T) {
	e := testEnv(t, estimateBase)
	sz := e.size
	_, cfg, err := catalogConfig("base")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Estimate(cfg, runner.Options{Replications: sz.reps, Warmup: sz.warmup, Measure: sz.measure, Seed: 5, Workers: e.workers})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planEstimate(cfg, 5, sz)
	if err != nil {
		t.Fatal(err)
	}
	seeds := plan.Blocks[0].Seeds
	e.check("estimate-redrive", redriveCheck(instanceCache{}, cfg, seeds, res, sz))
	if e.ops.failed != 0 {
		t.Fatal("the uncorrupted estimate fails its re-drive check")
	}
	res.PerReplication[len(seeds)-1].UsefulWorkFraction = nextUp(res.PerReplication[len(seeds)-1].UsefulWorkFraction)
	e.check("estimate-redrive", redriveCheck(instanceCache{}, cfg, seeds, res, sz))

	_, base, err := catalogConfig("base")
	if err != nil {
		t.Fatal(err)
	}
	es := testEnv(t, sweepFig4a)
	sr, err := sweep(es, nil, 0, filepath.Join(es.tmp, "run"), fig4aCells(base, 5, es.size.reps), false)
	if err != nil {
		t.Fatal(err)
	}
	e.check("sweep-monolithic", monolithicCheck(es, sr, []int{3, 17}))
	if e.ops.failed != 1 {
		t.Fatalf("%d failures before the sweep was corrupted, want 1", e.ops.failed)
	}
	sr.cells[17].Totals[0] = nextUp(sr.cells[17].Totals[0])
	e.check("sweep-monolithic", monolithicCheck(es, sr, []int{3, 17}))

	ec := testEnv(t, compareCorrelated)
	_, a, b, err := compareConfigs()
	if err != nil {
		t.Fatal(err)
	}
	comp, err := runner.Compare(a, b, compareOptions(ec, 5, ec.size.reps))
	if err != nil {
		t.Fatal(err)
	}
	comp.B.PerReplication[0].TotalUsefulWork = nextUp(comp.B.PerReplication[0].TotalUsefulWork)
	e.check("compare-spans", spanCheck(ec, a, b, 5, comp))

	if e.ops.attempted != 5 || e.ops.failed != 3 {
		t.Fatalf("attempted %d, failed %d; want 5 and 3", e.ops.attempted, e.ops.failed)
	}
	if got := e.ops.errorRate(); got != 0.6 {
		t.Fatalf("error rate %v, want 0.6", got)
	}
}

func nextUp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
