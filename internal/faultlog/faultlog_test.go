package faultlog

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/rng"
)

// fromGaps builds a log whose first failure lands gaps[0] after time zero
// and each later one the next gap after the previous.
func fromGaps(gaps []float64) Log {
	times := make([]float64, len(gaps))
	t := 0.0
	for i, g := range gaps {
		t += g
		times[i] = t
	}
	return New(times)
}

func TestConstructionAndAccessors(t *testing.T) {
	in := []float64{3, 1, 2}
	l := New(in)
	if l.Len() != 3 {
		t.Fatalf("len = %d", l.Len())
	}
	in[0] = 99 // the log must not alias its input
	if l.Span() != 2 {
		t.Fatalf("span = %v", l.Span())
	}
	gaps := l.InterArrivals()
	if len(gaps) != 2 || gaps[0] != 1 || gaps[1] != 1 {
		t.Fatalf("gaps = %v", gaps)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	var l Log
	if l.Span() != 0 || l.InterArrivals() != nil {
		t.Fatal("empty log accessors wrong")
	}
	if _, err := l.MLEExponentialMean(); err == nil {
		t.Error("MLE on empty log accepted")
	}
	if _, err := New([]float64{1, 2}).CoefficientOfVariation(); err == nil {
		t.Error("CoV on two failures accepted")
	}
	if _, err := New([]float64{1, 2, 3}).IndexOfDispersion(0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := New([]float64{1, 1.1}).IndexOfDispersion(10); err == nil {
		t.Error("window longer than span accepted")
	}
}

func TestMLERecoversPoissonRate(t *testing.T) {
	src := rng.New(3)
	d := rng.Exponential{MeanValue: 2.5}
	gaps := make([]float64, 20000)
	for i := range gaps {
		gaps[i] = d.Sample(src)
	}
	l := fromGaps(gaps)
	mean, err := l.MLEExponentialMean()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-2.5)/2.5 > 0.03 {
		t.Fatalf("MLE mean = %v, want ~2.5", mean)
	}
	cov, err := l.CoefficientOfVariation()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cov-1) > 0.05 {
		t.Fatalf("Poisson CoV = %v, want ~1", cov)
	}
	iod, err := l.IndexOfDispersion(25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iod-1) > 0.15 {
		t.Fatalf("Poisson index of dispersion = %v, want ~1", iod)
	}
}

func TestBurstyLogIsDetected(t *testing.T) {
	// Sparse exponential background with clusters of 5 failures 0.01
	// apart every tenth arrival.
	src := rng.New(77)
	bg := rng.Exponential{MeanValue: 10}
	var times []float64
	tt := 0.0
	for i := 0; i < 50; i++ {
		tt += bg.Sample(src)
		times = append(times, tt)
		if i%10 == 0 {
			for j := 0; j < 4; j++ {
				tt += 0.01
				times = append(times, tt)
			}
		}
	}
	l := New(times)
	cov, err := l.CoefficientOfVariation()
	if err != nil {
		t.Fatal(err)
	}
	if cov <= 1.2 {
		t.Fatalf("bursty CoV = %v, want clearly above 1", cov)
	}
	bursts := l.DetectBursts(0.1, 3)
	if len(bursts) != 5 {
		t.Fatalf("detected %d bursts, want 5", len(bursts))
	}
	for _, b := range bursts {
		if b.Count != 5 {
			t.Fatalf("burst count = %d, want 5", b.Count)
		}
		if b.Duration() > 0.05 {
			t.Fatalf("burst duration = %v", b.Duration())
		}
	}
	ratio, err := l.RateRatio(bursts, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 50 {
		t.Fatalf("rate ratio = %v, want ≫ 1", ratio)
	}
}

func TestDetectBurstsEdgeCases(t *testing.T) {
	if b := New(nil).DetectBursts(1, 2); b != nil {
		t.Fatal("bursts on empty log")
	}
	if b := New([]float64{1, 2, 3}).DetectBursts(-1, 2); b != nil {
		t.Fatal("negative gap accepted")
	}
	if b := New([]float64{1, 2, 3}).DetectBursts(10, 1); b != nil {
		t.Fatal("minCount 1 accepted")
	}
	// Entire log one burst.
	b := New([]float64{1, 1.1, 1.2}).DetectBursts(0.5, 2)
	if len(b) != 1 || b[0].Count != 3 {
		t.Fatalf("whole-log burst wrong: %+v", b)
	}
	if _, err := New([]float64{1, 1.1, 1.2}).RateRatio(b, 1); err == nil {
		t.Fatal("burst covering whole log should error in RateRatio")
	}
}

func TestRateRatioNoBursts(t *testing.T) {
	l := New([]float64{1, 2, 3})
	ratio, err := l.RateRatio(nil, 0.1)
	if err != nil || ratio != 1 {
		t.Fatalf("no-burst ratio = %v, %v", ratio, err)
	}
	if _, err := l.RateRatio([]Burst{{Start: 1, End: 1.1, Count: 2}}, 0); err == nil {
		t.Fatal("zero pad accepted")
	}
}

// TestRoundTripWithModel closes the loop: traces from the checkpointing
// model with correlated-failure windows must look bursty to the analyzer,
// and traces without them must look Poisson-like.
func TestRoundTripWithModel(t *testing.T) {
	collect := func(cfg cluster.Config, seed uint64, horizon float64) Log {
		in, err := model.New(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		var times []float64
		in.SetTrace(func(tm float64, activity string, _ map[string]int) {
			if activity == "comp_failure" || activity == "recovery_failure" {
				times = append(times, tm)
			}
		}, false)
		in.Advance(horizon)
		return New(times)
	}

	base := cluster.Default()
	base.MTTFPerNode = cluster.Years(3)

	indep := collect(base, 50, 4000)
	covI, err := indep.CoefficientOfVariation()
	if err != nil {
		t.Fatal(err)
	}

	corr := base
	corr.ProbCorrelated = 0.3
	corr.CorrelatedFactor = 800
	bursty := collect(corr, 50, 4000)
	covC, err := bursty.CoefficientOfVariation()
	if err != nil {
		t.Fatal(err)
	}
	if covC <= covI {
		t.Fatalf("correlated trace CoV %v not above independent %v", covC, covI)
	}

	// The analyzer's burst windows recover an elevated in-burst rate.
	bursts := bursty.DetectBursts(cluster.Minutes(3), 3)
	if len(bursts) == 0 {
		t.Fatal("no bursts detected in correlated trace")
	}
	ratio, err := bursty.RateRatio(bursts, cluster.Minutes(1))
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 5 {
		t.Fatalf("in-burst rate ratio = %v, want clearly elevated", ratio)
	}

	// The MTTF estimate from the independent trace recovers the
	// configured system rate (1/(nλ)) within ~10%.
	mean, err := indep.MLEExponentialMean()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / base.ComputeFailureRate()
	if math.Abs(mean-want)/want > 0.15 {
		t.Fatalf("estimated MTBF %v vs configured %v", mean, want)
	}
}

// TestMLEProperty: the MLE of merged logs is a weighted mean of gaps.
func TestMLEProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%100 + 2
		src := rng.New(seed)
		gaps := make([]float64, n)
		sum := 0.0
		for i := range gaps {
			gaps[i] = src.Float64()*10 + 0.001
			sum += gaps[i]
		}
		l := fromGaps(gaps)
		mean, err := l.MLEExponentialMean()
		// The first gap (time zero to the first failure) is not an
		// inter-arrival of the log, so the MLE covers gaps[1:].
		want := (sum - gaps[0]) / float64(n-1)
		return err == nil && math.Abs(mean-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
