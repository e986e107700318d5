package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// sampleMean draws n samples and returns their mean.
func sampleMean(t *testing.T, d Dist, src Source, n int) float64 {
	t.Helper()
	sum := 0.0
	for i := 0; i < n; i++ {
		v := d.Sample(src)
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%v produced invalid sample %v", d, v)
		}
		sum += v
	}
	return sum / float64(n)
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 3.5}
	src := New(1)
	for i := 0; i < 10; i++ {
		if v := d.Sample(src); v != 3.5 {
			t.Fatalf("deterministic sample = %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{MeanValue: 2.0}
	m := sampleMean(t, d, New(2), 200000)
	if math.Abs(m-2.0) > 0.05 {
		t.Fatalf("exponential sample mean = %v, want ~2.0", m)
	}
}

func TestExponentialMemoryless(t *testing.T) {
	// P(X > 2m) should be about e^{-2} and P(X > m) about e^{-1}.
	d := Exponential{MeanValue: 1.0}
	src := New(3)
	const n = 200000
	over1, over2 := 0, 0
	for i := 0; i < n; i++ {
		v := d.Sample(src)
		if v > 1 {
			over1++
		}
		if v > 2 {
			over2++
		}
	}
	p1 := float64(over1) / n
	p2 := float64(over2) / n
	if math.Abs(p1-math.Exp(-1)) > 0.01 {
		t.Errorf("P(X>1) = %v, want %v", p1, math.Exp(-1))
	}
	if math.Abs(p2-math.Exp(-2)) > 0.01 {
		t.Errorf("P(X>2) = %v, want %v", p2, math.Exp(-2))
	}
}

func TestUniform(t *testing.T) {
	d := Uniform{Low: 2, High: 6}
	src := New(4)
	for i := 0; i < 10000; i++ {
		v := d.Sample(src)
		if v < 2 || v >= 6 {
			t.Fatalf("uniform sample %v out of [2,6)", v)
		}
	}
}

func TestMaxOfNExponentialsMean(t *testing.T) {
	// E[max of n exp(mean m)] = m * H_n.
	for _, n := range []int{1, 2, 10, 100, 1024} {
		d := MaxOfNExponentials{N: n, PerNodeMean: 1.5}
		want := 1.5 * HarmonicNumber(n)
		got := sampleMean(t, d, New(uint64(n)), 100000)
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("n=%d: sample mean %v, want %v", n, got, want)
		}
		if math.Abs(d.Mean()-want) > 1e-12 {
			t.Errorf("n=%d: Mean() = %v, want %v", n, d.Mean(), want)
		}
	}
}

func TestMaxOfNExponentialsDominatesSingle(t *testing.T) {
	// The max over n>1 nodes must stochastically dominate a single node:
	// its sample mean must exceed the per-node mean.
	d := MaxOfNExponentials{N: 4096, PerNodeMean: 1.0}
	m := sampleMean(t, d, New(9), 20000)
	if m <= 1.0 {
		t.Fatalf("max-of-4096 mean %v not above per-node mean 1.0", m)
	}
}

func TestMaxOfNExponentialsHugeN(t *testing.T) {
	// Precision check: n = 2^30 (Figure 5 x-axis extends to ~1e9).
	d := MaxOfNExponentials{N: 1 << 30, PerNodeMean: 10.0 / 3600.0}
	src := New(10)
	m := sampleMean(t, d, src, 20000)
	want := d.Mean()
	if math.Abs(m-want)/want > 0.03 {
		t.Fatalf("n=2^30: sample mean %v, want %v", m, want)
	}
}

func TestHarmonicNumber(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {1, 1}, {2, 1.5}, {3, 1.0 + 0.5 + 1.0/3},
		{10, 2.9289682539682538},
	}
	for _, c := range cases {
		if got := HarmonicNumber(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("H(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Continuity across the exact/asymptotic switch at n=64.
	exact := 0.0
	for i := 1; i <= 64; i++ {
		exact += 1 / float64(i)
	}
	if got := HarmonicNumber(64); math.Abs(got-exact) > 1e-9 {
		t.Errorf("H(64) asymptotic = %v, exact = %v", got, exact)
	}
}

func TestHyperExponentialMean(t *testing.T) {
	d := HyperExponential{P: 0.3, MeanA: 5, MeanB: 1}
	want := 0.3*5 + 0.7*1
	got := sampleMean(t, d, New(6), 200000)
	if math.Abs(got-want)/want > 0.03 {
		t.Fatalf("hyperexp sample mean = %v, want %v", got, want)
	}
	if math.Abs(d.Mean()-want) > 1e-12 {
		t.Fatalf("hyperexp Mean() = %v, want %v", d.Mean(), want)
	}
}

func TestWeibullShapeOneIsExponential(t *testing.T) {
	d := Weibull{Shape: 1, Scale: 3}
	got := sampleMean(t, d, New(8), 100000)
	if math.Abs(got-3)/3 > 0.03 {
		t.Fatalf("weibull(1,3) sample mean = %v, want ~3", got)
	}
}

func TestDistStringsNonEmpty(t *testing.T) {
	dists := []Dist{
		Deterministic{1}, Exponential{1}, Uniform{0, 1},
		MaxOfNExponentials{8, 1},
		HyperExponential{0.5, 1, 2}, Weibull{2, 1},
	}
	for _, d := range dists {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

// TestMaxOfNExponentialsQuantileProperty: via testing/quick, every sample of
// the max must be finite and positive for arbitrary n and means.
func TestMaxOfNExponentialsQuantileProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint32, meanRaw uint16) bool {
		n := int(nRaw)%(1<<20) + 1
		mean := float64(meanRaw)/1000 + 1e-6
		d := MaxOfNExponentials{N: n, PerNodeMean: mean}
		src := New(seed)
		for i := 0; i < 20; i++ {
			v := d.Sample(src)
			if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxOfGroupsReducesToSingle(t *testing.T) {
	single := MaxOfNExponentials{N: 1024, PerNodeMean: 2}
	grouped := MaxOfGroups{Groups: []MaxOfNExponentials{single}}
	if math.Abs(grouped.Mean()-single.Mean())/single.Mean() > 0.01 {
		t.Fatalf("single-group mean %v vs direct %v", grouped.Mean(), single.Mean())
	}
	got := sampleMean(t, grouped, New(21), 50000)
	if math.Abs(got-single.Mean())/single.Mean() > 0.03 {
		t.Fatalf("single-group sample mean %v vs %v", got, single.Mean())
	}
}

func TestMaxOfGroupsStragglersDominate(t *testing.T) {
	// 1% stragglers 10x slower: the max is driven by the slow group.
	fast := MaxOfNExponentials{N: 63488, PerNodeMean: 1}
	slow := MaxOfNExponentials{N: 1024, PerNodeMean: 10}
	d := MaxOfGroups{Groups: []MaxOfNExponentials{fast, slow}}
	m := d.Mean()
	if m < slow.Mean()*(1-1e-9) {
		t.Fatalf("group max mean %v below slow group's own mean %v", m, slow.Mean())
	}
	if m > fast.Mean()+slow.Mean() {
		t.Fatalf("group max mean %v above sum bound %v", m, fast.Mean()+slow.Mean())
	}
	got := sampleMean(t, d, New(22), 50000)
	if math.Abs(got-m)/m > 0.03 {
		t.Fatalf("sampled %v vs integrated %v", got, m)
	}
}

func TestMaxOfGroupsEmptyAndDegenerate(t *testing.T) {
	var d MaxOfGroups
	if d.Mean() != 0 || d.Sample(New(1)) != 0 {
		t.Fatal("empty groups should be 0")
	}
	d = MaxOfGroups{Groups: []MaxOfNExponentials{{N: 0, PerNodeMean: 5}}}
	if d.Sample(New(2)) != 0 {
		t.Fatal("zero-membership group should contribute nothing")
	}
	if d.String() == "" {
		t.Fatal("empty String")
	}
}
