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

// BenchmarkCalendar measures the executor's calendar at depth 6, the base
// model's peak pending count: per op, the next firing pops and its slot
// is rescheduled, and a second pending slot is cancelled and rescheduled
// (a reactivation). The calendar is warmed before the timer starts, so
// the sentinel's short -benchtime=100x runs time a hot calendar.
// allocs/op must be 0.
func BenchmarkCalendar(b *testing.B) {
	const depth, warm = 6, 10000
	c := newCalendar(depth)
	x := uint64(1)
	for i := 0; i < depth; i++ {
		c.schedule(i, lcgDelay(&x))
	}
	for n := 0; n < warm+b.N; n++ {
		if n == warm {
			b.ReportAllocs()
			b.ResetTimer()
		}
		i := c.next()
		c.pop(i)
		c.schedule(i, c.now+lcgDelay(&x))
		j := (i + 1 + n%(depth-1)) % depth
		c.cancel(j)
		c.schedule(j, c.now+lcgDelay(&x))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// lcgDelay steps a 64-bit LCG and returns a delay in [0, 1): varied
// delays for the calendar benchmark without drawing from rng.
func lcgDelay(x *uint64) float64 {
	*x = *x*6364136223846793005 + 1442695040888963407
	return float64(*x>>11) * 0x1p-53
}
