package rng

import (
	"math"
	"sort"
	"testing"
)

// fixedSource replays a fixed sequence of uniforms (cycling), for driving
// samplers through degenerate corners a real stream never reaches.
type fixedSource struct {
	seq []float64
	i   int
}

func (f *fixedSource) Float64() float64 {
	u := f.seq[f.i%len(f.seq)]
	f.i++
	return u
}

// A constant-zero Source used to spin rng.Float64Open forever before the
// retry loop was bounded.
func TestFloat64OpenBoundedOnDegenerateSource(t *testing.T) {
	zero := &fixedSource{seq: []float64{0}}
	got := Float64Open(zero)
	if got != math.SmallestNonzeroFloat64 {
		t.Fatalf("Float64Open on constant-zero source = %g, want smallest subnormal %g",
			got, math.SmallestNonzeroFloat64)
	}
	if zero.i != openRetries {
		t.Fatalf("consumed %d draws before falling back, want %d", zero.i, openRetries)
	}
	// The fallback must keep inversion sampling finite.
	if v := (Exponential{MeanValue: 2}).Sample(&fixedSource{seq: []float64{0}}); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("Exponential sample on degenerate source not finite: %v", v)
	}
}

// A zero prefix shorter than the bound must still be skipped, preserving the
// historical rejection behavior.
func TestFloat64OpenSkipsZeroPrefix(t *testing.T) {
	src := &fixedSource{seq: []float64{0, 0, 0, 0.25}}
	if got := Float64Open(src); got != 0.25 {
		t.Fatalf("Float64Open = %g, want first nonzero 0.25", got)
	}
	if src.i != 4 {
		t.Fatalf("consumed %d draws, want 4", src.i)
	}
}

func TestStreamFloat64OpenBounded(t *testing.T) {
	// A real stream never hits the bound; this only pins that the method
	// still produces (0,1) values after the refactor.
	r := New(11)
	for i := 0; i < 100000; i++ {
		if u := r.Float64Open(); u <= 0 || u >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", u)
		}
	}
}

func TestAntitheticReflectsUniforms(t *testing.T) {
	plain, mirror := New(42), Antithetic{Inner: New(42)}
	for i := 0; i < 10000; i++ {
		u, v := plain.Float64(), mirror.Float64()
		want := 1 - u
		if u == 0 {
			want = 1 - 0x1p-53
		}
		if v != want {
			t.Fatalf("draw %d: reflected %v of %v, want %v", i, v, u, want)
		}
		if v <= 0 || v >= 1 {
			t.Fatalf("draw %d: reflected value %v outside (0,1)", i, v)
		}
	}
}

func TestReflectIsExactInvolution(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u == 0 {
			continue // the clamped point is deliberately not an involution
		}
		if back := Reflect(Reflect(u)); back != u {
			t.Fatalf("Reflect(Reflect(%v)) = %v", u, back)
		}
	}
	if got := Reflect(0); got != 1-0x1p-53 {
		t.Fatalf("Reflect(0) = %v, want clamp below 1", got)
	}
}

// (plain, reflected) Exponential samples must be strongly negatively
// correlated — the property the antithetic estimator's variance reduction
// rests on. The pairing is antitone (y is a strictly decreasing function of
// x), so the rank (Spearman) correlation is −1; we require ≤ −0.9 with
// sampling noise. Pearson correlation on the raw samples is theoretically
// 1 − π²/6 ≈ −0.645 for exponentials — also pinned, at its own level.
func TestAntitheticExponentialCorrelation(t *testing.T) {
	const n = 20000
	d := Exponential{MeanValue: 3}
	plain, mirror := New(123), Antithetic{Inner: New(123)}
	xs := make([]float64, n)
	ys := make([]float64, n)
	var sx, sy, sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		x := d.Sample(plain)
		y := d.Sample(mirror)
		xs[i], ys[i] = x, y
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	mx, my := sx/n, sy/n
	cov := sxy/n - mx*my
	vx, vy := sxx/n-mx*mx, syy/n-my*my
	pearson := cov / math.Sqrt(vx*vy)
	if !(pearson <= -0.6) {
		t.Fatalf("antithetic Exponential Pearson correlation = %.4f, want <= -0.6 (theory ≈ -0.645)", pearson)
	}
	if rho := spearman(xs, ys); !(rho <= -0.9) {
		t.Fatalf("antithetic Exponential rank correlation = %.4f, want <= -0.9", rho)
	}
}

// spearman computes the rank correlation of two equal-length samples.
func spearman(xs, ys []float64) float64 {
	rx, ry := ranks(xs), ranks(ys)
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range rx {
		sx += rx[i]
		sy += ry[i]
		sxx += rx[i] * rx[i]
		syy += ry[i] * ry[i]
		sxy += rx[i] * ry[i]
	}
	mx, my := sx/n, sy/n
	return (sxy/n - mx*my) / math.Sqrt((sxx/n-mx*mx)*(syy/n-my*my))
}

func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for rank, i := range idx {
		r[i] = float64(rank)
	}
	return r
}

func TestCounterCounts(t *testing.T) {
	c := &Counter{Src: New(1)}
	c.Float64()
	c.Float64()
	if c.N != 2 {
		t.Fatalf("counter N = %d, want 2", c.N)
	}
	// Counting must not perturb the values.
	raw := New(1)
	c2 := &Counter{Src: New(1)}
	for i := 0; i < 100; i++ {
		if a, b := raw.Float64(), c2.Float64(); a != b {
			t.Fatalf("draw %d: counter changed value %v != %v", i, a, b)
		}
	}
}
