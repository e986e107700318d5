package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/vr"
)

func TestCompareIdenticalConfigsGivesZeroDiff(t *testing.T) {
	cfg := cluster.Default()
	c, err := Compare(cfg, cfg, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Common random numbers on identical configs give bit-identical
	// trajectories, so the paired difference is exactly zero.
	if c.FractionDiff.Mean != 0 || c.FractionDiff.HalfWide != 0 {
		t.Fatalf("identical configs diff = %v", c.FractionDiff)
	}
	if c.Significant() {
		t.Fatal("identical configs flagged significant")
	}
}

func TestCompareDetectsBlockingWriteCheaply(t *testing.T) {
	// The blocking-write ablation costs ~3% fraction; with CRN pairing,
	// even 3 short replications resolve it significantly.
	a := cluster.Default()
	b := a
	b.BlockingCheckpointWrite = true
	c, err := Compare(a, b, Options{Replications: 3, Warmup: 100, Measure: 800, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Significant() {
		t.Fatalf("blocking-write effect not resolved: %v", c.FractionDiff)
	}
	if c.FractionDiff.Mean >= 0 {
		t.Fatalf("blocking write should reduce the fraction: %v", c.FractionDiff)
	}
	// Pairing must shrink the interval versus the independent estimates.
	indep := c.A.UsefulWorkFraction.HalfWide + c.B.UsefulWorkFraction.HalfWide
	if c.FractionDiff.HalfWide > indep {
		t.Fatalf("paired CI %v wider than unpaired sum %v", c.FractionDiff.HalfWide, indep)
	}
}

func TestCompareTotalsTrackFractions(t *testing.T) {
	a := cluster.Default()
	b := a
	b.MTTFPerNode = cluster.Years(4)
	c, err := Compare(a, b, Options{Replications: 3, Warmup: 100, Measure: 600, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if c.FractionDiff.Mean <= 0 {
		t.Fatalf("4x MTTF should improve the fraction: %v", c.FractionDiff)
	}
	wantTotal := c.FractionDiff.Mean * float64(a.Processors)
	if math.Abs(c.TotalDiff.Mean-wantTotal)/wantTotal > 1e-9 {
		t.Fatalf("total diff %v inconsistent with fraction diff %v", c.TotalDiff.Mean, wantTotal)
	}
}

func TestCompareValidation(t *testing.T) {
	bad := cluster.Default()
	bad.Processors = 0
	if _, err := Compare(bad, cluster.Default(), quickOpts()); err == nil {
		t.Error("invalid config A accepted")
	}
	if _, err := Compare(cluster.Default(), bad, quickOpts()); err == nil {
		t.Error("invalid config B accepted")
	}
	if _, err := Compare(cluster.Default(), cluster.Default(), Options{Replications: -1, Measure: 1, Confidence: 0.9}); err == nil {
		t.Error("invalid options accepted")
	}
}

// Compare has no reflected leg: antithetic options must fail rather than
// silently round the replication count up and return a plain comparison.
func TestCompareRejectsAntithetic(t *testing.T) {
	o := quickOpts()
	o.Replications = 3
	o.VarianceReduction = vr.ModeAntithetic
	_, err := Compare(cluster.Default(), cluster.Default(), o)
	if err == nil || !strings.Contains(err.Error(), "antithetic") {
		t.Fatalf("antithetic comparison accepted: %v", err)
	}
}

// A comparison is its two-cell plan: with no provenance stamp, its journal
// must be the reduced journal of the same plan run through a run directory
// by BlockRunner, at any block size — the sharded ≡ monolithic contract,
// extended to comparisons.
func TestCompareJournalIsReducedPlan(t *testing.T) {
	a := cluster.Default()
	b := a
	b.CheckpointInterval = cluster.Minutes(60)
	o := quickOpts()
	o.Replications = 4
	var mono bytes.Buffer
	mo := o
	mo.Journal = obs.NewJournal(&mono)
	if _, err := Compare(a, b, mo); err != nil {
		t.Fatal(err)
	}
	want := journalLines(t, &mono)
	cells := []blocks.Cell{{Label: "A", Seed: o.Seed, Config: a}, {Label: "B", Seed: o.Seed, Config: b}}
	for _, bs := range []int{1, 3} {
		m, err := PlanGrid("compare", cells, bs, o)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := blocks.CreateRun(dir, m); err != nil {
			t.Fatal(err)
		}
		if _, err := blocks.Work(context.Background(), dir, BlockRunner(1, nil),
			blocks.WorkerOptions{ExitWhenIdle: true, Heartbeat: -1}); err != nil {
			t.Fatal(err)
		}
		_, reduced, err := blocks.Reduce(dir)
		if err != nil {
			t.Fatal(err)
		}
		var sharded bytes.Buffer
		if err := blocks.WriteReduced(obs.NewJournal(&sharded), m, reduced); err != nil {
			t.Fatal(err)
		}
		got := journalLines(t, &sharded)
		if len(got) != len(want) {
			t.Fatalf("block size %d: reduced journal has %d records, comparison %d", bs, len(got), len(want))
		}
		for i := range want {
			w, _ := json.Marshal(want[i])
			g, _ := json.Marshal(got[i])
			if !bytes.Equal(w, g) {
				t.Fatalf("block size %d: record %d differs:\n reduced    %s\n comparison %s", bs, i, g, w)
			}
		}
	}
}

// Compare journals and verifies both legs as Estimate does: one leading
// provenance record, then leg A's records, then leg B's, and a span check
// on each leg's result.
func TestCompareJournalsAndVerifiesBothLegs(t *testing.T) {
	a := cluster.Default()
	b := a
	b.MTTR *= 2
	var buf bytes.Buffer
	o := quickOpts()
	o.Workers = 2
	o.VerifySpans = true
	o.Journal = obs.NewJournal(&buf)
	stamp := provenance.Collect().WithConfig("sha256:pair")
	o.Provenance = &stamp
	c, err := Compare(a, b, o)
	if err != nil {
		t.Fatal(err)
	}
	for leg, res := range map[string]Result{"A": c.A, "B": c.B} {
		if sc := res.SpanCheck; sc == nil || !sc.Within {
			t.Errorf("leg %s span check = %+v", leg, sc)
		}
	}
	recs := journalLines(t, &buf)
	n := o.Replications
	if len(recs) != 1+2*(n+1) {
		t.Fatalf("got %d records, want %d", len(recs), 1+2*(n+1))
	}
	if recs[0]["kind"] != "provenance" || recs[0]["config_hash"] != "sha256:pair" {
		t.Fatalf("leading record = %v", recs[0])
	}
	for i, rec := range recs[1:] {
		leg, k := "A", i
		if i > n {
			leg, k = "B", i-n-1
		}
		kind := "replication"
		if k == n {
			kind = "estimate"
		}
		if rec["kind"] != kind || rec["label"] != leg {
			t.Fatalf("record %d: kind %v label %v, want %s %s", i+1, rec["kind"], rec["label"], kind, leg)
		}
		if kind == "estimate" && rec["span_check"] == nil {
			t.Fatalf("leg %s estimate record has no span check", leg)
		}
	}
}
