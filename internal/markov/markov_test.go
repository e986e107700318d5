package markov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/analytic"
	"repro/internal/cluster"
)

func TestTwoStateChain(t *testing.T) {
	// Classic up/down chain: π_up = µ/(λ+µ).
	c, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetRate(0, 1, 2); err != nil { // fail at rate 2
		t.Fatal(err)
	}
	if err := c.SetRate(1, 0, 6); err != nil { // recover at rate 6
		t.Fatal(err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.75) > 1e-12 || math.Abs(pi[1]-0.25) > 1e-12 {
		t.Fatalf("π = %v, want [0.75 0.25]", pi)
	}
}

func TestSingleState(t *testing.T) {
	c, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.SteadyState()
	if err != nil || pi[0] != 1 {
		t.Fatalf("π = %v, err = %v", pi, err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero states accepted")
	}
	c, _ := New(3)
	if err := c.SetRate(0, 0, 1); err == nil {
		t.Error("self transition accepted")
	}
	if err := c.SetRate(-1, 0, 1); err == nil {
		t.Error("out-of-range state accepted")
	}
	if err := c.SetRate(0, 1, -1); err == nil {
		t.Error("negative rate accepted")
	}
	if c.Rate(0, 1) != 0 {
		t.Error("unset rate not zero")
	}
}

func TestDisconnectedChainFails(t *testing.T) {
	c, _ := New(3)
	// State 2 unreachable and absorbing-from-nowhere: singular system.
	if err := c.SetRate(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRate(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SteadyState(); err == nil {
		t.Fatal("disconnected chain solved")
	}
}

// TestBirthDeathClosedForm: the truncated Figure 3 chain has the known
// stationary form π_k = π₁·(λc/(λc+µ))^{k-1}·…; validate against direct
// balance equations instead: rates in must equal rates out for each state.
func TestBirthDeathBalance(t *testing.T) {
	lambdaI, lambdaC, mu := 0.9, 2.5, 6.0
	const k = 8
	c, err := BirthDeath(lambdaI, lambdaC, mu, k)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Fatalf("π sums to %v", sum)
	}
	// Global balance at each state: inflow = outflow.
	for i := 0; i <= k; i++ {
		in, out := 0.0, 0.0
		for j := 0; j <= k; j++ {
			if j == i {
				continue
			}
			in += pi[j] * c.Rate(j, i)
			out += pi[i] * c.Rate(i, j)
		}
		if math.Abs(in-out) > 1e-10 {
			t.Fatalf("balance broken at state %d: in=%v out=%v", i, in, out)
		}
	}
}

// TestFigure3MatchesSection6: solving the paper's chain reproduces the
// conditional follow-on probability p = λc/(λc+µ), and the r↔p conversion
// of internal/analytic agrees with the chain's parameters.
func TestFigure3MatchesSection6(t *testing.T) {
	// The paper's worked example: n=1024, MTTF=25yr, MTTR=10min, p=0.3.
	n := 1024
	perNodeRate := 1 / cluster.Years(25)
	mu := 1 / cluster.Minutes(10)
	p := 0.3
	r, err := analytic.FactorFromConditionalProb(p, n, perNodeRate, mu)
	if err != nil {
		t.Fatal(err)
	}
	lambdaI := float64(n) * perNodeRate
	lambdaC := lambdaI * (1 + r)
	if got := ConditionalFollowOnProbability(lambdaC, mu); math.Abs(got-p) > 1e-9 {
		t.Fatalf("closed-form p = %v, want %v", got, p)
	}
	// In the solved chain, the fraction of F1 departures that go deeper
	// (to F2) rather than home equals p.
	c, err := BirthDeath(lambdaI, lambdaC, mu, 6)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	deeper := pi[1] * c.Rate(1, 2)
	home := pi[1] * c.Rate(1, 0)
	if got := deeper / (deeper + home); math.Abs(got-p) > 1e-9 {
		t.Fatalf("chain-implied p = %v, want %v", got, p)
	}
	// Up fraction sanity: failures are rare at 25-year MTTF, so π₀ ≈ 1.
	if up := UpFraction(pi); up < 0.99 {
		t.Fatalf("up fraction = %v", up)
	}
}

func TestBirthDeathValidation(t *testing.T) {
	if _, err := BirthDeath(0, 1, 1, 3); err == nil {
		t.Error("zero λi accepted")
	}
	if _, err := BirthDeath(1, 1, 1, 0); err == nil {
		t.Error("zero states accepted")
	}
}

func TestUpFractionEmpty(t *testing.T) {
	if UpFraction(nil) != 0 {
		t.Fatal("empty π up fraction should be 0")
	}
}

// TestSteadyStateProperty: for random irreducible 3-state chains the
// solution is a distribution satisfying global balance.
func TestSteadyStateProperty(t *testing.T) {
	f := func(r01, r02, r10, r12, r20, r21 uint16) bool {
		rate := func(v uint16) float64 { return float64(v%1000)/100 + 0.01 }
		c, err := New(3)
		if err != nil {
			return false
		}
		pairs := []struct {
			i, j int
			v    uint16
		}{{0, 1, r01}, {0, 2, r02}, {1, 0, r10}, {1, 2, r12}, {2, 0, r20}, {2, 1, r21}}
		for _, p := range pairs {
			if err := c.SetRate(p.i, p.j, rate(p.v)); err != nil {
				return false
			}
		}
		pi, err := c.SteadyState()
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range pi {
			if p < -1e-12 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		for i := 0; i < 3; i++ {
			in, out := 0.0, 0.0
			for j := 0; j < 3; j++ {
				if i == j {
					continue
				}
				in += pi[j] * c.Rate(j, i)
				out += pi[i] * c.Rate(i, j)
			}
			if math.Abs(in-out) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
