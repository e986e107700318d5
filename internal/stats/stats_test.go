package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", a.Mean())
	}
	// Sample variance of that classic data set is 32/7.
	if want := 32.0 / 7; math.Abs(a.Variance()-want) > 1e-12 {
		t.Errorf("variance = %v, want %v", a.Variance(), want)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Fatal("empty accumulator not zeroed")
	}
	a.Add(3)
	if a.Mean() != 3 || a.Variance() != 0 {
		t.Fatal("single-observation accumulator wrong")
	}
	iv := a.CI(0.95)
	if !math.IsInf(iv.HalfWide, 1) {
		t.Fatalf("CI of single observation should be infinite, got %v", iv.HalfWide)
	}
}

func TestAccumulatorMatchesDirectComputation(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		var a Accumulator
		var xs []float64
		n := src.Intn(50) + 2
		for i := 0; i < n; i++ {
			x := src.Float64()*100 - 50
			xs = append(xs, x)
			a.Add(x)
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs)-1)
		return math.Abs(a.Mean()-mean) < 1e-9 && math.Abs(a.Variance()-variance) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	// Classic t-table values.
	cases := []struct {
		p    float64
		df   int
		want float64
	}{
		{0.975, 1, 12.706},
		{0.975, 4, 2.776},
		{0.975, 9, 2.262},
		{0.975, 29, 2.045},
		{0.95, 9, 1.833},
		{0.995, 9, 3.250},
		{0.975, 1000, 1.962},
	}
	for _, c := range cases {
		got := TQuantile(c.p, c.df)
		if math.Abs(got-c.want) > 0.005*c.want {
			t.Errorf("TQuantile(%v, %d) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
}

func TestTQuantileSymmetry(t *testing.T) {
	for _, df := range []int{1, 3, 10, 50} {
		up := TQuantile(0.9, df)
		down := TQuantile(0.1, df)
		if math.Abs(up+down) > 1e-9 {
			t.Errorf("df=%d: quantiles not symmetric: %v vs %v", df, up, down)
		}
	}
	if TQuantile(0.5, 7) != 0 {
		t.Error("median of t distribution should be 0")
	}
}

func TestTCDFRoundTrip(t *testing.T) {
	for _, df := range []int{2, 5, 20} {
		for _, p := range []float64{0.6, 0.9, 0.975, 0.999} {
			q := TQuantile(p, df)
			if back := TCDF(q, df); math.Abs(back-p) > 1e-6 {
				t.Errorf("df=%d p=%v: round trip gave %v", df, p, back)
			}
		}
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Fatal("incomplete beta edges wrong")
	}
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-10 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.7} {
		lhs := RegIncBeta(2.5, 1.5, x)
		rhs := 1 - RegIncBeta(1.5, 2.5, 1-x)
		if math.Abs(lhs-rhs) > 1e-10 {
			t.Errorf("symmetry broken at x=%v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestCICoverage(t *testing.T) {
	// Empirical check: 95% CIs over normal samples should contain the true
	// mean about 95% of the time.
	src := rng.New(77)
	covered := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		var a Accumulator
		for j := 0; j < 10; j++ {
			a.Add(5 + src.NormFloat64())
		}
		if a.CI(0.95).Contains(5) {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.90 || frac > 0.99 {
		t.Fatalf("95%% CI empirical coverage = %v", frac)
	}
}

func TestIntervalAccessors(t *testing.T) {
	iv := Interval{Mean: 10, HalfWide: 2, Level: 0.95, N: 5}
	if iv.Low() != 8 || iv.High() != 12 {
		t.Fatal("interval bounds wrong")
	}
	if !iv.Contains(8) || !iv.Contains(12) || iv.Contains(12.01) {
		t.Fatal("Contains wrong")
	}
	if iv.RelativeWidth() != 0.2 {
		t.Fatalf("relative width = %v", iv.RelativeWidth())
	}
	if iv.String() == "" {
		t.Fatal("empty String")
	}
	zero := Interval{Mean: 0, HalfWide: 1}
	if !math.IsInf(zero.RelativeWidth(), 1) {
		t.Fatal("zero-mean relative width should be +Inf")
	}
}

func TestTimeWeighted(t *testing.T) {
	var w TimeWeighted
	w.Observe(0, 1) // value 1 on [0, 2)
	w.Observe(2, 3) // value 3 on [2, 4)
	got := w.Finish(4)
	if want := (1*2 + 3*2) / 4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("time-weighted mean = %v, want %v", got, want)
	}
	if math.Abs(w.Integral()-8) > 1e-12 {
		t.Fatalf("integral = %v, want 8", w.Integral())
	}
}

func TestTimeWeightedEmptyAndBackwards(t *testing.T) {
	var w TimeWeighted
	if w.Mean() != 0 {
		t.Fatal("empty time-weighted mean should be 0")
	}
	w.Observe(5, 2)
	w.Observe(4, 3) // non-monotone time: treated as zero-length interval
	if got := w.Finish(6); math.Abs(got-2.5) > 1.0 {
		// value 2 for 0 time, value 3 for 2h: mean = 3. Accept [2,3].
		if got < 2 || got > 3 {
			t.Fatalf("time-weighted mean after backwards observation = %v", got)
		}
	}
}

func TestBatchMeans(t *testing.T) {
	b := BatchMeans{Batches: 5}
	src := rng.New(123)
	for i := 0; i < 1000; i++ {
		b.Add(10 + src.NormFloat64())
	}
	iv, err := b.CI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(10) {
		t.Fatalf("batch-means CI %v does not contain true mean 10", iv)
	}
	if iv.N != 5 {
		t.Fatalf("CI over %d batches, want 5", iv.N)
	}
}

func TestBatchMeansTooFew(t *testing.T) {
	b := BatchMeans{Batches: 10}
	for i := 0; i < 5; i++ {
		b.Add(1)
	}
	if _, err := b.CI(0.95); err == nil {
		t.Fatal("expected error for too few observations")
	}
}

func TestBatchMeansQuantile(t *testing.T) {
	var b BatchMeans
	if b.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
	for i := 1; i <= 100; i++ {
		b.Add(float64(i))
	}
	if q := b.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := b.Quantile(1); q != 100 {
		t.Fatalf("q1 = %v", q)
	}
	if q := b.Quantile(0.5); q < 45 || q > 55 {
		t.Fatalf("median = %v", q)
	}
}

func TestConvergenceSnapshot(t *testing.T) {
	var a Accumulator
	a.Add(1)
	c := a.Convergence(0.95)
	if c.N != 1 || c.Mean != 1 || c.HalfWidth != 0 || c.RelWidth != 0 {
		t.Fatalf("n=1 snapshot = %+v", c)
	}
	a.Add(3)
	c = a.Convergence(0.95)
	if c.N != 2 || c.Mean != 2 {
		t.Fatalf("n=2 snapshot = %+v", c)
	}
	iv := a.CI(0.95)
	if c.HalfWidth != iv.HalfWide {
		t.Fatalf("half-width %v != CI %v", c.HalfWidth, iv.HalfWide)
	}
	if c.RelWidth != iv.HalfWide/2 {
		t.Fatalf("rel width = %v", c.RelWidth)
	}
}

func TestConvergenceZeroMeanIsFinite(t *testing.T) {
	var a Accumulator
	a.Add(-1)
	a.Add(1)
	c := a.Convergence(0.95)
	if c.RelWidth != 0 {
		t.Fatalf("zero-mean rel width = %v, want 0", c.RelWidth)
	}
	if math.IsInf(c.HalfWidth, 0) || math.IsNaN(c.HalfWidth) {
		t.Fatalf("half-width not finite: %v", c.HalfWidth)
	}
}

func TestConvergenceTrajectory(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	traj := NewFold(0.95, false).Trajectory(vals)
	if len(traj) != 4 {
		t.Fatalf("trajectory length = %d, want 4 (prefixes n>=2)", len(traj))
	}
	for i, c := range traj {
		if c.N != i+2 {
			t.Fatalf("entry %d has n=%d", i, c.N)
		}
	}
	// Half-widths shrink as evidence accumulates on this smooth sequence.
	if traj[len(traj)-1].HalfWidth >= traj[0].HalfWidth {
		t.Fatalf("half-width did not shrink: %v -> %v", traj[0].HalfWidth, traj[len(traj)-1].HalfWidth)
	}
	// The final entry must match folding everything into one accumulator.
	var a Accumulator
	for _, v := range vals {
		a.Add(v)
	}
	if want := a.Convergence(0.95); traj[len(traj)-1] != want {
		t.Fatalf("final entry %+v != accumulator %+v", traj[len(traj)-1], want)
	}
	if got := NewFold(0.95, false).Trajectory([]float64{7}); got != nil {
		t.Fatalf("single-value trajectory = %v, want nil", got)
	}
}

// foldBlocks folds a partition of one sequence block by block into one
// fold and returns the concatenated trajectory — how the reducer folds a
// sharded cell.
func foldBlocks(blocks [][]float64, paired bool) []Convergence {
	f := NewFold(0.95, paired)
	var out []Convergence
	for _, blk := range blocks {
		out = append(out, f.Trajectory(blk)...)
	}
	return out
}

func TestMergeConvergenceMatchesSingleStream(t *testing.T) {
	vals := []float64{0.93, 0.91, 0.97, 0.88, 0.95, 0.9, 0.94, 0.92, 0.96, 0.89}
	want := NewFold(0.95, false).Trajectory(vals)
	// Any block partition of the same sequence must produce the identical
	// trajectory — this is what makes a sharded sweep's convergence record
	// indistinguishable from the monolithic run's.
	partitions := [][][]float64{
		{vals},
		{vals[:1], vals[1:4], vals[4:4], vals[4:]},
		{vals[:5], vals[5:]},
		{{vals[0]}, {vals[1]}, {vals[2]}, {vals[3]}, {vals[4]}, {vals[5]}, {vals[6]}, {vals[7]}, {vals[8]}, {vals[9]}},
	}
	for pi, blocks := range partitions {
		got := foldBlocks(blocks, false)
		if len(got) != len(want) {
			t.Fatalf("partition %d: %d snapshots, want %d", pi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("partition %d entry %d: %+v != %+v", pi, i, got[i], want[i])
			}
		}
	}
	if got := foldBlocks(nil, false); got != nil {
		t.Fatalf("empty merge = %v, want nil", got)
	}
}
