package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded stream produced repeats: %d distinct of 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		if u := r.Float64Open(); u <= 0 || u >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", u)
		}
	}
}

func TestUniformityOfFloat64(t *testing.T) {
	r := New(99)
	const n = 200000
	const bins = 20
	var counts [bins]int
	for i := 0; i < n; i++ {
		counts[int(r.Float64()*bins)]++
	}
	// Chi-squared with 19 dof: 99.9th percentile ≈ 43.8.
	expect := float64(n) / bins
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	if chi2 > 43.8 {
		t.Fatalf("uniformity chi2 = %.2f > 43.8", chi2)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(5)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from split children", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(5).Split(7)
	b := New(5).Split(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("split streams with identical lineage diverged")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnCoversAllValues(t *testing.T) {
	r := New(11)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		seen[r.Intn(10)] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) produced only %d distinct values", len(seen))
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

// TestIntnDistributionProperty checks, via testing/quick, that bounded
// sampling stays in range for arbitrary bounds.
func TestIntnDistributionProperty(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound)%1000 + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
