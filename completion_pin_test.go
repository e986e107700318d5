package repro

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/blocks"
	"repro/internal/cyclesim"
	"repro/internal/stats"
)

// completionPins are the exact forecast strings JobCompletionTime returns
// for a 100 h job, 4 replications, seed 3, on the completion envelope of
// the default machine — recorded before the completion replication loop
// was shared between the library, the block runner and the reducer, so
// any drift in seeding, summation order or formatting shows up here.
var completionPins = []struct {
	procs                    int
	mean, stretch, quantiles string
}{
	{16384, "111.751 ± 4.84 (95%, n=4)", "1.12", "107/112/113"},
	{65536, "158.91 ± 8.07 (95%, n=4)", "1.59", "155/156/159"},
	{131072, "226.113 ± 13.5 (95%, n=4)", "2.26", "221/222/223"},
}

// pinConfig is the machine the pins were recorded on: the defaults at the
// given size, with the envelope the cycle engine requires.
func pinConfig(procs int) Config {
	cfg := DefaultConfig()
	cfg.Processors = procs
	cfg.MTTFPerNode = Years(1)
	cfg.CheckpointInterval = Minutes(30)
	cfg.ComputeFraction = 1
	cfg.NoIOFailures = true
	return cfg
}

func checkPin(t *testing.T, procs int, comp Completion) {
	t.Helper()
	for _, p := range completionPins {
		if p.procs != procs {
			continue
		}
		got := []string{
			fmt.Sprintf("%v", comp.Mean),
			fmt.Sprintf("%.2f", comp.Stretch()),
			fmt.Sprintf("%.0f/%.0f/%.0f", comp.Quantile(0.1), comp.Quantile(0.5), comp.Quantile(0.9)),
		}
		want := []string{p.mean, p.stretch, p.quantiles}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("procs %d: forecast field %d = %q, pinned %q", procs, i, got[i], want[i])
			}
		}
		return
	}
	t.Fatalf("no pin for procs %d", procs)
}

func TestJobCompletionPinned(t *testing.T) {
	for _, p := range completionPins {
		comp, err := JobCompletionTime(pinConfig(p.procs), 100, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		checkPin(t, p.procs, comp)
	}
}

// TestJobCompletionRunDirPinned plans a forecast exactly as the
// standalone forecasting binary of earlier releases did (name "job", one
// cell labeled "work=<H>" at X = work), writes its block journals with
// that binary's record schema — one "replication" record per seed
// carrying rep, seed, wall_hours and label — and requires the reduced
// directory to fold to the pinned forecast. Run directories planned and
// worked before the fold must keep reducing to the same numbers.
func TestJobCompletionRunDirPinned(t *testing.T) {
	const work = 100.0
	cfg := pinConfig(16384)
	m, err := blocks.Plan([]blocks.Cell{{
		Label:        fmt.Sprintf("work=%g", work),
		X:            work,
		Seed:         3,
		Replications: 4,
		Config:       cfg,
	}}, blocks.PlanOptions{Name: "job", Kind: blocks.KindCompletion, Work: work, BlockSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := blocks.CreateRun(dir, m); err != nil {
		t.Fatal(err)
	}
	legacy := func(ctx context.Context, m *blocks.Manifest, b blocks.Block) (blocks.BlockOutput, error) {
		cell := m.Cells[b.CellIndex]
		var out blocks.BlockOutput
		for i, seed := range b.Seeds {
			s, err := cyclesim.New(cell.Config, seed)
			if err != nil {
				return blocks.BlockOutput{}, err
			}
			wall, err := s.CompletionTime(m.Work, m.Work*1000)
			if err != nil {
				return blocks.BlockOutput{}, err
			}
			out.Records = append(out.Records, blocks.Record{Kind: "replication", Fields: map[string]any{
				"rep": b.RepStart + i, "seed": seed, "wall_hours": wall, "label": cell.Label,
			}})
		}
		return out, nil
	}
	if _, err := blocks.Work(context.Background(), dir, legacy, blocks.WorkerOptions{Heartbeat: -1}); err != nil {
		t.Fatal(err)
	}
	rm, cells, err := blocks.Reduce(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Hash != m.Hash || len(cells) != 1 || cells[0].Replications() != 4 {
		t.Fatalf("reduced %s: %d cells", rm.Hash, len(cells))
	}
	samples := cells[0].FlatValues()
	var acc stats.Accumulator
	for _, v := range samples {
		acc.Add(v)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	checkPin(t, 16384, Completion{Work: rm.Work, Samples: sorted, Mean: acc.CI(rm.Confidence)})
}
