package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

func TestNewCycleValidation(t *testing.T) {
	if _, err := NewCycle(0, 0.9); err == nil || !strings.Contains(err.Error(), "period") {
		t.Errorf("zero period: err = %v", err)
	}
	if _, err := NewCycle(1, 0); err == nil || !strings.Contains(err.Error(), "fraction") {
		t.Errorf("zero fraction: err = %v", err)
	}
	if _, err := NewCycle(1, 1.1); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := NewCycle(1, 1.0); err != nil {
		t.Errorf("pure compute rejected: %v", err)
	}
}

func TestPhaseDurations(t *testing.T) {
	c, err := NewCycle(cluster.Minutes(3), 0.88)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.ComputeTime()+c.IOTime()-c.Period) > 1e-15 {
		t.Fatal("phases do not sum to period")
	}
	if math.Abs(c.ComputeTime()-0.88*cluster.Minutes(3)) > 1e-15 {
		t.Fatal("compute time wrong")
	}
	if c.PureCompute() {
		t.Fatal("f=0.88 should not be pure compute")
	}
	pure, _ := NewCycle(1, 1)
	if !pure.PureCompute() || pure.IOTime() != 0 {
		t.Fatal("f=1 should be pure compute")
	}
}

func TestPhaseAt(t *testing.T) {
	c, _ := NewCycle(10, 0.8) // compute [0,8), IO [8,10)
	cases := []struct {
		t         float64
		phase     Phase
		remaining float64
	}{
		{0, Compute, 8},
		{4, Compute, 4},
		{7.999, Compute, 0.001},
		{8, IO, 2},
		{9, IO, 1},
		{10, Compute, 8}, // wraps
		{18.5, IO, 1.5},  // second cycle IO
		{-3, Compute, 8}, // negative clamps to 0
	}
	for _, cse := range cases {
		ph, rem := c.PhaseAt(cse.t)
		if ph != cse.phase || math.Abs(rem-cse.remaining) > 1e-9 {
			t.Errorf("PhaseAt(%v) = (%v, %v), want (%v, %v)", cse.t, ph, rem, cse.phase, cse.remaining)
		}
	}
}

func TestPhaseAtPureCompute(t *testing.T) {
	c, _ := NewCycle(5, 1)
	ph, _ := c.PhaseAt(12.3)
	if ph != Compute {
		t.Fatal("pure compute cycle should always be in Compute")
	}
}

func TestPhaseString(t *testing.T) {
	if Compute.String() != "compute" || IO.String() != "io" {
		t.Fatal("phase strings wrong")
	}
	if !strings.Contains(Phase(7).String(), "7") {
		t.Fatal("unknown phase should include value")
	}
}

// TestPhaseAtAlwaysConsistent: remaining time is positive and at most the
// phase duration, for arbitrary cycles and times.
func TestPhaseAtAlwaysConsistent(t *testing.T) {
	f := func(tRaw uint32, fRaw uint16) bool {
		frac := float64(fRaw%99+1) / 100
		c, err := NewCycle(1.0, frac)
		if err != nil {
			return false
		}
		at := float64(tRaw) / 1000
		ph, rem := c.PhaseAt(at)
		if rem <= 0 {
			return false
		}
		switch ph {
		case Compute:
			return rem <= c.ComputeTime()+1e-12
		case IO:
			return rem <= c.IOTime()+1e-12
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
