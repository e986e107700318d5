package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

// TestPaperExampleR600 pins the worked example of Section 6: n=1024,
// p=0.3, MTTR=10 min, MTTF=25 yr ⇒ r ≈ 600.
func TestPaperExampleR600(t *testing.T) {
	perNodeRate := 1 / cluster.Years(25)
	recoveryRate := 1 / cluster.Minutes(10)
	r, err := FactorFromConditionalProb(0.3, 1024, perNodeRate, recoveryRate)
	if err != nil {
		t.Fatal(err)
	}
	if r < 540 || r > 660 {
		t.Fatalf("r = %v, paper says about 600", r)
	}
}

func TestFactorProbRoundTrip(t *testing.T) {
	f := func(pRaw uint16, nRaw uint16) bool {
		p := float64(pRaw%900)/1000 + 0.05 // 0.05..0.95
		n := int(nRaw)%8192 + 1
		perNodeRate := 1 / cluster.Years(3)
		recoveryRate := 1 / cluster.Minutes(10)
		r, err := FactorFromConditionalProb(p, n, perNodeRate, recoveryRate)
		if err != nil {
			return false
		}
		if r < -1 {
			return false
		}
		if r < 0 {
			// λc < λi: the paper requires λc > λi for a meaningful
			// correlated factor; skip such corner combinations.
			return true
		}
		back, err := ConditionalProbFromFactor(r, n, perNodeRate, recoveryRate)
		return err == nil && math.Abs(back-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFactorInputValidation(t *testing.T) {
	if _, err := FactorFromConditionalProb(-0.1, 10, 1, 1); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := FactorFromConditionalProb(1.0, 10, 1, 1); err == nil {
		t.Error("p=1 accepted")
	}
	if _, err := FactorFromConditionalProb(0.5, 0, 1, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := FactorFromConditionalProb(0.5, 10, 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := ConditionalProbFromFactor(-1, 10, 1, 1); err == nil {
		t.Error("negative factor accepted")
	}
	if _, err := ConditionalProbFromFactor(5, -1, 1, 1); err == nil {
		t.Error("negative n accepted")
	}
}

// genericSystemRate is the Section 6 total rate λs = λsi + λsc as the
// simulator computes it from a configuration of n nodes with per-node MTTF.
func genericSystemRate(n int, mttfPerNode, alpha, r float64) float64 {
	c := cluster.Default()
	c.Processors = n * c.ProcsPerNode
	c.MTTFPerNode = mttfPerNode
	c.GenericCorrelatedCoefficient = alpha
	c.CorrelatedFactor = r
	return c.ComputeFailureRate() + c.GenericCorrelatedRate()
}

// TestGenericRateDoubles pins the Figure 8 parameterisation: r=400,
// α=0.0025 ⇒ λs = 2nλ ("the entire system failure rate gets doubled").
func TestGenericRateDoubles(t *testing.T) {
	n := 32768
	perNode := 1 / cluster.Years(3)
	got := genericSystemRate(n, cluster.Years(3), 0.0025, 400)
	want := 2 * float64(n) * perNode
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("λs = %v, want doubled rate %v", got, want)
	}
}

func TestGenericRateNoCorrelation(t *testing.T) {
	got := genericSystemRate(100, 100, 0, 400)
	if got != 1.0 {
		t.Fatalf("α=0 rate = %v, want nλ = 1.0", got)
	}
}
