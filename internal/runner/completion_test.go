package runner

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cluster"
	"repro/internal/cyclesim"
)

// BlockRunner runs completion manifests too: sharded over uneven blocks,
// worked and reduced, every cell folds to exactly the Completion the
// monolithic cyclesim.JobCompletion computes from the same cell seed.
func TestBlockRunnerCompletionMatchesMonolithic(t *testing.T) {
	const work = 200.0
	var cells []blocks.Cell
	for i, procs := range []int{16384, 65536} {
		cfg := cluster.Default()
		cfg.Processors = procs
		cfg.ComputeFraction = 1
		cfg.NoIOFailures = true
		cells = append(cells, blocks.Cell{Label: "c", Seed: uint64(7 + i), Replications: 5, Config: cfg})
	}
	m, err := blocks.Plan(cells, blocks.PlanOptions{Name: "job", Kind: blocks.KindCompletion, Work: work, BlockSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := blocks.CreateRun(dir, m); err != nil {
		t.Fatal(err)
	}
	if _, err := blocks.Work(context.Background(), dir, BlockRunner(1, nil), blocks.WorkerOptions{Heartbeat: -1}); err != nil {
		t.Fatal(err)
	}
	_, reduced, err := blocks.Reduce(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range reduced {
		want, err := cyclesim.JobCompletion(c.Cell.Config, work, c.Cell.Replications, c.Cell.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := cyclesim.FoldCompletion(work, c.FlatValues(), m.Confidence); !reflect.DeepEqual(got, want) {
			t.Errorf("cell %d: reduced %+v, monolithic %+v", i, got, want)
		}
	}
}

func TestBlockRunnerRejectsUnknownKind(t *testing.T) {
	m := &blocks.Manifest{Kind: "bogus", Cells: []blocks.Cell{{Config: cluster.Default()}}}
	_, err := BlockRunner(1, nil)(context.Background(), m, blocks.Block{Seeds: []uint64{1}})
	if err == nil || !strings.Contains(err.Error(), `cannot run "bogus" blocks`) {
		t.Fatalf("unknown kind: %v", err)
	}
}
