package san

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// buildCellArray makes n independent two-place token cycles in one model
// with fully declared read-sets and one rate reward per cell. The sparsity
// mirrors the paper's net: each firing touches two places out of 2n, so an
// incremental scheduler reconciles O(1) activities per event while the full
// scan pays O(n).
func buildCellArray(n int) (*Model, []*Place) {
	m := NewModel("cells")
	var firsts []*Place
	for i := 0; i < n; i++ {
		a := m.Place(fmt.Sprintf("a%d", i), 1)
		b := m.Place(fmt.Sprintf("b%d", i), 0)
		m.AddTimed(Activity{
			Name:  fmt.Sprintf("ab%d", i),
			Input: AllOf(a),
			Delay: func(mk *Marking, src rng.Source) float64 {
				return rng.Exponential{MeanValue: 1}.Sample(src)
			},
			Output: Out(func(mk *Marking) { mk.Move(a, b) }),
		})
		m.AddTimed(Activity{
			Name:  fmt.Sprintf("ba%d", i),
			Input: AllOf(b),
			Delay: func(mk *Marking, src rng.Source) float64 {
				return rng.Exponential{MeanValue: 2}.Sample(src)
			},
			Output: Out(func(mk *Marking) { mk.Move(b, a) }),
		})
		firsts = append(firsts, a)
	}
	return m, firsts
}

// BenchmarkSettle measures the per-event cost of the post-firing settle on
// a sparse 32-cell net — 64 places and 64 activities, the largest net the
// executor accepts — incremental vs full scan.
func BenchmarkSettle(b *testing.B) {
	const cells = MaxSize / 2
	for _, mode := range []struct {
		name     string
		fullScan bool
	}{{"incremental", false}, {"fullscan", true}} {
		b.Run(mode.name, func(b *testing.B) {
			m, firsts := buildCellArray(cells)
			sim, err := NewSimulator(m, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			for i, p := range firsts {
				p := p
				sim.AddRateReward(fmt.Sprintf("occ%d", i), func(mk *Marking) float64 {
					return float64(mk.Get(p))
				}, p)
			}
			sim.FullScan = mode.fullScan
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !sim.Step() {
					b.Fatal("event queue drained")
				}
			}
		})
	}
}
