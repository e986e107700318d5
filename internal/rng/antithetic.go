package rng

// Antithetic wraps a Source and reflects every uniform draw u → 1−u. Since
// all the simulator's distributions sample by inversion (dist.go), reflection
// propagates to event times for free: a short inter-failure gap on the plain
// leg becomes a long one on the reflected leg, and outputs that depend
// monotonically on the draws come out negatively correlated. Averaging a
// (plain, reflected) pair that shares a seed then cancels a large part of the
// Monte-Carlo noise — the antithetic-variates estimator driven by
// runner.Estimate's VarianceReduction option.
//
// The zero value is not usable; wrap a concrete Source.
type Antithetic struct {
	Inner Source
}

var _ Source = Antithetic{}

// Float64 returns the reflection 1−u of the inner stream's next uniform.
// The result is always in the open interval (0, 1): Float64's grid values
// k/2⁵³ reflect exactly (see Reflect), and the single unreachable point
// u = 0 is clamped just below one.
func (a Antithetic) Float64() float64 { return Reflect(a.Inner.Float64()) }

// Reflect maps a uniform u ∈ [0, 1) to its antithetic partner 1−u. Every
// value Float64 can produce has the form k/2⁵³ with k < 2⁵³, so 1−u =
// (2⁵³−k)/2⁵³ is exactly representable and Reflect(Reflect(u)) == u. The one
// exception is u = 0, whose exact reflection 1 lies outside [0, 1); it is
// clamped to the largest double below one so downstream inversion sampling
// (−ln u) stays finite.
func Reflect(u float64) float64 {
	r := 1 - u
	if r >= 1 {
		r = 1 - 0x1p-53
	}
	return r
}

// Counter wraps a Source and counts how many values are consumed from it.
// The common-random-numbers
// audit in runner.Compare wraps each per-purpose sub-stream in a Counter so
// a SyncReport can quantify where two configurations' draw sequences
// diverge.
type Counter struct {
	Src Source
	// N is the number of draws consumed so far.
	N uint64
}

var _ Source = (*Counter)(nil)

// Float64 counts one draw and forwards to the wrapped source.
func (c *Counter) Float64() float64 { c.N++; return c.Src.Float64() }
