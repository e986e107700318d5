package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/vr"
)

func vrOpts() Options {
	o := quickOpts()
	o.Replications = 8
	o.VarianceReduction = vr.ModeAntithetic
	return o
}

// The pair-mean estimate must be unbiased: on the base scenario, across
// several seeds, the antithetic estimate and the plain estimate of the same
// replication budget must agree within their combined confidence intervals.
func TestAntitheticEstimateUnbiased(t *testing.T) {
	cfg := cluster.Default()
	for _, seed := range []uint64{3, 5, 7} {
		av := vrOpts()
		av.Seed = seed
		vrRes, err := Estimate(cfg, av)
		if err != nil {
			t.Fatal(err)
		}
		pl := quickOpts()
		pl.Replications = 8
		pl.Seed = seed
		plainRes, err := Estimate(cfg, pl)
		if err != nil {
			t.Fatal(err)
		}
		tol := vrRes.UsefulWorkFraction.HalfWide + plainRes.UsefulWorkFraction.HalfWide
		if diff := math.Abs(vrRes.UsefulWorkFraction.Mean - plainRes.UsefulWorkFraction.Mean); diff > tol {
			t.Fatalf("seed %d: antithetic mean %v vs plain mean %v: |Δ| = %v > %v",
				seed, vrRes.UsefulWorkFraction.Mean, plainRes.UsefulWorkFraction.Mean, diff, tol)
		}
		if vrRes.VR == nil {
			t.Fatal("antithetic estimate carries no VR report")
		}
		if vrRes.VR.Pairs != 4 {
			t.Fatalf("VR pairs = %d, want 4", vrRes.VR.Pairs)
		}
		if vrRes.UsefulWorkFraction.N != 4 {
			t.Fatalf("interval N = %d, want 4 pairs", vrRes.UsefulWorkFraction.N)
		}
	}
}

// Antithetic pairing on the base scenario must actually reduce variance:
// negative leg correlation and a measured factor above 1.
func TestAntitheticEstimateEffective(t *testing.T) {
	o := vrOpts()
	o.Replications = 16
	res, err := Estimate(cluster.Default(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.VR.LegCorrelation >= 0 {
		t.Fatalf("leg correlation = %v, want negative", res.VR.LegCorrelation)
	}
	if res.VR.Factor <= 1 {
		t.Fatalf("VR factor = %v, want > 1 on the base scenario", res.VR.Factor)
	}
}

// Leg assignment, like seed assignment, is fixed by the plan before
// dispatch: the antithetic estimate must be bit-identical at every worker
// count.
func TestAntitheticWorkerInvariance(t *testing.T) {
	cfg := cluster.Default()
	seq := vrOpts()
	seq.Workers = 1
	want, err := Estimate(cfg, seq)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		o := vrOpts()
		o.Workers = workers
		got, err := Estimate(cfg, o)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers=%d antithetic result differs from sequential:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// An odd replication count cannot form pairs; WithDefaults completes the
// last pair instead of erroring.
func TestAntitheticOddReplicationsRoundUp(t *testing.T) {
	o := vrOpts()
	o.Replications = 5
	res, err := Estimate(cluster.Default(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerReplication) != 6 {
		t.Fatalf("replications = %d, want 6 (rounded to pairs)", len(res.PerReplication))
	}
	if res.VR.Pairs != 3 {
		t.Fatalf("pairs = %d, want 3", res.VR.Pairs)
	}
}

// The antithetic journal: legs tagged, seeds shared within a pair, the
// estimate record carrying the vr block and the paired convergence
// trajectory.
func TestAntitheticJournal(t *testing.T) {
	var buf bytes.Buffer
	o := vrOpts()
	o.Journal = obs.NewJournal(&buf)
	if _, err := Estimate(cluster.Default(), o); err != nil {
		t.Fatal(err)
	}
	recs := journalLines(t, &buf)
	n := o.Replications
	if len(recs) != n+1 {
		t.Fatalf("got %d records, want %d", len(recs), n+1)
	}
	for r := 0; r < n; r++ {
		rec := recs[r]
		if rec["kind"] != "replication" {
			t.Fatalf("record %d kind = %v", r, rec["kind"])
		}
		if rec["vr_leg"] != float64(r%2) {
			t.Fatalf("record %d vr_leg = %v, want %d", r, rec["vr_leg"], r%2)
		}
	}
	for p := 0; p < n/2; p++ {
		if recs[2*p]["seed"] != recs[2*p+1]["seed"] {
			t.Fatalf("pair %d legs carry different seeds: %v vs %v", p, recs[2*p]["seed"], recs[2*p+1]["seed"])
		}
		if p > 0 && recs[2*p]["seed"] == recs[2*p-2]["seed"] {
			t.Fatalf("pairs %d and %d share a seed", p-1, p)
		}
	}
	est := recs[n]
	vrField, ok := est["vr"].(map[string]any)
	if !ok {
		t.Fatalf("estimate record has no vr block: %v", est)
	}
	if vrField["mode"] != "antithetic" {
		t.Fatalf("vr mode = %v", vrField["mode"])
	}
	if vrField["pairs"] != float64(n/2) {
		t.Fatalf("vr pairs = %v, want %d", vrField["pairs"], n/2)
	}
	if _, ok := vrField["factor"]; !ok {
		t.Fatal("vr block missing factor")
	}
	iv := est["useful_fraction"].(map[string]any)
	if iv["n"] != float64(n/2) {
		t.Fatalf("interval n = %v, want %d pairs", iv["n"], n/2)
	}
	conv, ok := est["convergence"].([]any)
	if !ok || len(conv) != n/2-1 {
		t.Fatalf("paired convergence = %v entries, want %d", len(conv), n/2-1)
	}
}

// The tentpole's distribution guarantee: a block-sharded antithetic sweep,
// run through lease claiming and journal reduce, must produce the same
// journal bytes (modulo timestamps) as the monolithic run of the same plan —
// pair assignment lives in planning, so sharding cannot split or reorder
// pairs.
func TestShardedAntitheticMatchesMonolithic(t *testing.T) {
	cfg := cluster.Default()
	o := vrOpts()
	o.Label = "vrshard"

	// Monolithic journal.
	var mono bytes.Buffer
	mo := o
	mo.Journal = obs.NewJournal(&mono)
	if _, err := Estimate(cfg, mo); err != nil {
		t.Fatal(err)
	}

	// Sharded: same cell planned at block size 3 (rounded to 4 by the
	// planner so pairs stay whole), executed by two workers, reduced.
	m, err := PlanGrid("vrshard", []blocks.Cell{{
		Label: "vrshard", Seed: o.Seed, Replications: o.Replications, Config: cfg,
	}}, 3, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.VR != vr.ModeAntithetic {
		t.Fatalf("manifest VR = %v", m.VR)
	}
	if m.BlockSize%2 != 0 {
		t.Fatalf("planner left an odd block size %d under VR", m.BlockSize)
	}
	dir := t.TempDir()
	if err := blocks.CreateRun(dir, m); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"w1", "w2"} {
		if _, err := blocks.Work(context.Background(), dir, BlockRunner(1, nil),
			blocks.WorkerOptions{Name: name, ExitWhenIdle: true, Heartbeat: -1}); err != nil {
			t.Fatal(err)
		}
	}
	_, cells, err := blocks.Reduce(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sharded bytes.Buffer
	if err := blocks.WriteReduced(obs.NewJournal(&sharded), m, cells); err != nil {
		t.Fatal(err)
	}

	want := journalLines(t, &mono)
	got := journalLines(t, &sharded)
	if len(got) != len(want) {
		t.Fatalf("sharded journal has %d records, monolithic %d", len(got), len(want))
	}
	for i := range want {
		w, _ := json.Marshal(want[i])
		g, _ := json.Marshal(got[i])
		if !bytes.Equal(w, g) {
			t.Fatalf("record %d differs:\n sharded  %s\n monolith %s", i, g, w)
		}
	}
}

// The CRN audit: identical configurations on hardened per-purpose streams
// are perfectly synchronized; a pair of different configurations still gets
// a full report with every purpose accounted for.
func TestCompareSyncReport(t *testing.T) {
	a := cluster.Default()
	o := quickOpts()
	o.Replications = 4
	o.SyncReport = true

	same, err := Compare(a, a, o)
	if err != nil {
		t.Fatal(err)
	}
	if same.Sync == nil {
		t.Fatal("SyncReport requested but Comparison.Sync is nil")
	}
	if same.Sync.Pairs != 4 {
		t.Fatalf("pairs = %d", same.Sync.Pairs)
	}
	if same.Sync.InSyncFraction != 1 {
		t.Fatalf("identical configs out of sync: in-sync fraction = %v", same.Sync.InSyncFraction)
	}
	if same.FractionDiff.Mean != 0 || same.FractionDiff.HalfWide != 0 {
		t.Fatalf("identical configs differ: %+v", same.FractionDiff)
	}

	b := a
	b.MTTR *= 2
	diff, err := Compare(a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Sync == nil {
		t.Fatal("Sync nil on differing configs")
	}
	names := diff.Sync.Components
	if len(names) == 0 {
		t.Fatal("sync report has no components")
	}
	var drew int
	for _, c := range names {
		if c.MeanDrawsA > 0 || c.MeanDrawsB > 0 {
			drew++
		}
	}
	if drew == 0 {
		t.Fatal("no purpose consumed any draws")
	}
	// CRN should still correlate the outputs strongly for a modest MTTR
	// change.
	if diff.Sync.OutputCorrelation <= 0 {
		t.Fatalf("output correlation = %v, want positive under CRN", diff.Sync.OutputCorrelation)
	}

	// Without the flag the comparison carries no report.
	o.SyncReport = false
	plain, err := Compare(a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Sync != nil {
		t.Fatal("Sync set without SyncReport")
	}
}
