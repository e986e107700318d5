package runner

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// EstimateGrid must run the seeds the manifest planned, which are what
// BlockRunner runs. A cell seed of 0 is a valid plan input (the planner
// derives the replication seeds from it as given) and must not be
// re-defaulted to 1 on the monolithic path.
func TestEstimateGridRunsManifestSeeds(t *testing.T) {
	for _, seed := range []uint64{0, 7} {
		m, err := PlanGrid("seeds", []blocks.Cell{{Label: "c", Seed: seed, Config: cluster.Default()}}, 2, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		res, err := EstimateGrid(context.Background(), m, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := BlockRunner(1, nil)
		var sharded []float64
		for _, b := range m.Blocks {
			out, err := run(context.Background(), m, b)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range out.Records {
				sharded = append(sharded, r.Fields["useful_fraction"].(float64))
			}
		}
		got := res[0].PerReplication
		if len(got) != len(sharded) {
			t.Fatalf("seed %d: %d monolithic replications, %d sharded", seed, len(got), len(sharded))
		}
		for r, m := range got {
			if math.Float64bits(m.UsefulWorkFraction) != math.Float64bits(sharded[r]) {
				t.Errorf("seed %d rep %d: monolithic %v, sharded %v", seed, r, m.UsefulWorkFraction, sharded[r])
			}
		}
	}
}

// A journal shared across cells would collect their records in
// scheduling order; EstimateGrid refuses one before running anything.
// Per-cell journals go through cellOpts.
func TestEstimateGridRejectsSharedJournal(t *testing.T) {
	m, err := PlanGrid("journal", []blocks.Cell{{Seed: 1, Config: cluster.Default()}}, 0, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := EstimateGrid(context.Background(), m, Options{Journal: obs.NewJournal(&buf)}, nil); err == nil {
		t.Error("shared journal accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected grid journaled %d bytes", buf.Len())
	}
}

// A grid reports progress in cells: the hook given to EstimateGrid sees
// exactly one Final snapshot, with every cell done and their events
// counted.
func TestEstimateGridReportsProgress(t *testing.T) {
	cells := []blocks.Cell{{Seed: 1, Config: cluster.Default()}, {Seed: 2, Config: cluster.Default()}, {Seed: 3, Config: cluster.Default()}}
	m, err := PlanGrid("progress", cells, 0, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var finals []Progress
	_, err = EstimateGrid(context.Background(), m, Options{Workers: 2, Progress: func(p Progress) {
		if p.Final {
			finals = append(finals, p)
		}
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(finals) != 1 {
		t.Fatalf("%d Final snapshots, want 1", len(finals))
	}
	if f := finals[0]; f.Done != len(m.Cells) || f.Total != len(m.Cells) || f.Events == 0 {
		t.Errorf("Final snapshot %+v, want Done == Total == %d and events counted", f, len(m.Cells))
	}
}
