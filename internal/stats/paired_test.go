package stats

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestPairedAccumulatorMeanMatchesLegs(t *testing.T) {
	var p PairedAccumulator
	var flat Accumulator
	r := rng.New(4)
	for i := 0; i < 500; i++ {
		a, b := r.Float64(), r.Float64()
		p.AddPair(a, b)
		flat.Add(a)
		flat.Add(b)
	}
	if math.Abs(p.pairs.Mean()-flat.Mean()) > 1e-12 {
		t.Fatalf("paired mean %v != flat mean %v", p.pairs.Mean(), flat.Mean())
	}
	if p.Pairs() != 500 || p.legs.N() != 1000 {
		t.Fatalf("counts pairs=%d legs=%d, want 500/1000", p.Pairs(), p.legs.N())
	}
	if math.Abs(p.LegVariance()-flat.Variance()) > 1e-12 {
		t.Fatalf("leg variance %v != flat variance %v", p.LegVariance(), flat.Variance())
	}
}

// Perfectly anticorrelated pairs (b = 1−a) collapse the pair variance to
// zero and the variance-reduction factor to +Inf; independent pairs leave
// it near 1; positively correlated pairs push it below 1.
func TestVarianceReductionFactorRegimes(t *testing.T) {
	r := rng.New(9)
	var anti, indep, comono PairedAccumulator
	for i := 0; i < 4000; i++ {
		a := r.Float64()
		anti.AddPair(a, 1-a)
		indep.AddPair(a, r.Float64())
		comono.AddPair(a, a)
	}
	if f := anti.VarianceReductionFactor(); !math.IsInf(f, 1) {
		t.Errorf("antithetic factor = %v, want +Inf", f)
	}
	if f := indep.VarianceReductionFactor(); f < 0.8 || f > 1.25 {
		t.Errorf("independent factor = %v, want ≈ 1", f)
	}
	if f := comono.VarianceReductionFactor(); f > 0.6 {
		t.Errorf("comonotone factor = %v, want ≈ 0.5", f)
	}
	if rho := anti.LegCorrelation(); rho > -0.99 {
		t.Errorf("antithetic leg correlation = %v, want ≈ -1", rho)
	}
	if rho := comono.LegCorrelation(); rho < 0.99 {
		t.Errorf("comonotone leg correlation = %v, want ≈ 1", rho)
	}
}

func TestPairedCIUsesPairCount(t *testing.T) {
	var p PairedAccumulator
	r := rng.New(12)
	for i := 0; i < 30; i++ {
		p.AddPair(r.Float64(), r.Float64())
	}
	iv := p.CI(0.95)
	if iv.N != 30 {
		t.Fatalf("CI over pairs has N=%d, want 30", iv.N)
	}
	if iv.HalfWide <= 0 || math.IsInf(iv.HalfWide, 0) {
		t.Fatalf("CI half-width %v not finite positive", iv.HalfWide)
	}
}

// The merged per-block paired trajectory must be identical to the
// flattened-sequence one at any block layout — the reduce contract lifted
// to pairs.
func TestMergePairedConvergenceBlockInvariance(t *testing.T) {
	r := rng.New(21)
	legs := make([]float64, 48)
	for i := range legs {
		legs[i] = r.Float64()
	}
	want := NewFold(0.95, true).Trajectory(legs)
	if len(want) != 23 {
		t.Fatalf("%d snapshots over 24 pairs, want 23", len(want))
	}
	// Odd block sizes split pairs; the fold holds the waiting leg across
	// the boundary.
	for _, sizes := range [][]int{{48}, {2, 46}, {8, 8, 8, 8, 8, 8}, {4, 20, 24}, {1, 6, 41}} {
		var blocks [][]float64
		at := 0
		for _, s := range sizes {
			blocks = append(blocks, legs[at:at+s])
			at += s
		}
		got := foldBlocks(blocks, true)
		if len(got) != len(want) {
			t.Fatalf("layout %v: %d snapshots, want %d", sizes, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("layout %v: snapshot %d = %+v, want %+v", sizes, i, got[i], want[i])
			}
		}
	}
}

func TestPairedConvergenceIgnoresTrailingLeg(t *testing.T) {
	legs := []float64{1, 2, 3, 4, 5}
	f := NewFold(0.95, true)
	got := f.Trajectory(legs)
	want := NewFold(0.95, true).Trajectory(legs[:4])
	if len(got) != len(want) {
		t.Fatalf("trailing unpaired leg changed the trajectory: %d vs %d snapshots", len(got), len(want))
	}
	if f.N() != 2 || f.Paired().legs.N() != 4 {
		t.Fatalf("fold holds %d pairs over %d legs, want 2 over 4", f.N(), f.Paired().legs.N())
	}
	if NewFold(0.95, false).Paired() != nil {
		t.Fatal("plain fold reports pair statistics")
	}
}

// The paired fold's interval and pair statistics are those of a
// PairedAccumulator fed the same pairs.
func TestPairedFoldMatchesAccumulator(t *testing.T) {
	r := rng.New(8)
	f := NewFold(0.95, true)
	var p PairedAccumulator
	for i := 0; i < 20; i++ {
		a, b := r.Float64(), r.Float64()
		if f.Add(a) {
			t.Fatal("plain leg completed an observation")
		}
		if !f.Add(b) {
			t.Fatal("reflected leg did not complete its pair")
		}
		p.AddPair(a, b)
	}
	if f.CI() != p.CI(0.95) {
		t.Fatalf("fold CI %+v != paired CI %+v", f.CI(), p.CI(0.95))
	}
	if *f.Paired() != p {
		t.Fatal("fold pair statistics differ from the accumulator's")
	}
}

func TestReplicationsToHalfWidth(t *testing.T) {
	r := rng.New(33)
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = r.Float64()
	}
	var all Accumulator
	for _, v := range vals {
		all.Add(v)
	}
	target := all.CI(0.95).HalfWide * 2
	n := NewFold(0.95, false).ReplicationsToHalfWidth(vals, target)
	if n <= 0 || n > len(vals) {
		t.Fatalf("ReplicationsToHalfWidth = %d, want in (0, %d]", n, len(vals))
	}
	// Verify it is the first crossing.
	var acc Accumulator
	for i := 0; i < n-1; i++ {
		acc.Add(vals[i])
		if acc.N() >= 2 && acc.CI(0.95).HalfWide <= target {
			t.Fatalf("crossing already at %d < reported %d", i+1, n)
		}
	}
	if NewFold(0.95, false).ReplicationsToHalfWidth(vals, 0) != -1 {
		t.Fatalf("unreachable target did not return -1")
	}
}

// Antithetic pairing must reach a target half-width in far fewer legs than
// plain folding on a monotone output — the paired count is denominated in
// legs so the two are directly comparable.
func TestPairedReplicationsToHalfWidthBeatsPlain(t *testing.T) {
	r := rng.New(55)
	const n = 4000
	plain := make([]float64, n)
	paired := make([]float64, n)
	for i := 0; i < n; i += 2 {
		u1, u2 := r.Float64Open(), r.Float64Open()
		plain[i] = -math.Log(u1)
		plain[i+1] = -math.Log(u2)
		paired[i] = -math.Log(u1)
		paired[i+1] = -math.Log(1 - u1)
	}
	target := NewFold(0.95, false).AddAll(plain).CI().HalfWide
	pn := NewFold(0.95, true).ReplicationsToHalfWidth(paired, target)
	if pn <= 0 {
		t.Fatalf("paired trajectory never reached plain target %v", target)
	}
	if pn%2 != 0 {
		t.Fatalf("paired count %d is not a whole number of pairs", pn)
	}
	if pn*2 > n {
		t.Fatalf("paired needed %d legs to match plain's %d-leg half-width; expected at least 2x fewer", pn, n)
	}
}
