// Package workload models the application of Section 3.3 of the paper: a
// BSP-style parallel scientific job whose tasks alternate between a compute
// phase and a non-preemptive foreground I/O phase with a fixed cycle period
// and compute fraction (Table 3: 3-minute period, fraction 0.88–1.0).
package workload

import (
	"fmt"
	"math"
)

// Phase identifies what the application is doing.
type Phase int

const (
	// Compute is the computation phase; tasks may quiesce at any time.
	Compute Phase = iota + 1
	// IO is the foreground I/O phase; tasks cannot quiesce until it
	// completes (non-preemptive I/O, Section 3.3).
	IO
)

func (p Phase) String() string {
	switch p {
	case Compute:
		return "compute"
	case IO:
		return "io"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Cycle is the deterministic compute/I-O alternation of a BSP application.
type Cycle struct {
	// Period is the full cycle length in hours.
	Period float64
	// ComputeFraction is the fraction of the period spent computing.
	ComputeFraction float64
}

// NewCycle validates and returns a Cycle.
func NewCycle(period, computeFraction float64) (Cycle, error) {
	c := Cycle{Period: period, ComputeFraction: computeFraction}
	if err := c.Validate(); err != nil {
		return Cycle{}, err
	}
	return c, nil
}

// Validate reports parameter problems.
func (c Cycle) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("workload: period %v must be positive", c.Period)
	}
	if c.ComputeFraction <= 0 || c.ComputeFraction > 1 {
		return fmt.Errorf("workload: compute fraction %v outside (0,1]", c.ComputeFraction)
	}
	return nil
}

// ComputeTime returns the duration of the compute phase.
func (c Cycle) ComputeTime() float64 { return c.ComputeFraction * c.Period }

// IOTime returns the duration of the foreground I/O phase (0 when the
// application is pure compute).
func (c Cycle) IOTime() float64 { return (1 - c.ComputeFraction) * c.Period }

// PureCompute reports whether the application never does foreground I/O
// (ComputeFraction == 1), in which case the IO phase is skipped entirely.
func (c Cycle) PureCompute() bool { return c.IOTime() == 0 }

// PhaseAt returns the phase and the remaining time in that phase at
// absolute time t, assuming the cycle started (in Compute) at time 0 and
// was never interrupted. Used by the message-level protocol simulator.
func (c Cycle) PhaseAt(t float64) (Phase, float64) {
	if t < 0 {
		t = 0
	}
	pos := math.Mod(t, c.Period)
	if pos < c.ComputeTime() || c.PureCompute() {
		return Compute, c.ComputeTime() - pos
	}
	return IO, c.Period - pos
}
