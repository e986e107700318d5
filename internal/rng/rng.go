// Package rng provides the deterministic pseudo-random number generation
// used by every stochastic component of the simulator.
//
// The generator is xoshiro256++ seeded through SplitMix64, which gives
// high-quality 64-bit output, cheap stream splitting (every model component
// and every replication gets an independent sub-stream derived from a single
// root seed), and full reproducibility: identical (seed, call sequence)
// pairs yield identical simulations on every platform.
package rng

import "math"

// Source is a deterministic stream of pseudo-random numbers. It is the only
// randomness interface the rest of the repository uses, so tests can
// substitute fixed sequences.
type Source interface {
	// Float64 returns a uniform value in [0, 1).
	Float64() float64
}

// Stream is a xoshiro256++ generator. The zero value is not usable; obtain
// instances through New or Split.
type Stream struct {
	s [4]uint64
}

var _ Source = (*Stream)(nil)

// New returns a Stream seeded from a single 64-bit seed via SplitMix64.
// Any seed, including zero, produces a valid stream.
func New(seed uint64) *Stream {
	var st Stream
	st.Reseed(seed)
	return &st
}

// Reseed rewinds the stream in place to exactly the state New(seed) would
// return, so a recycled component (model.Instance.Recycle) can restart its
// random sequence for a new replication without allocating a generator.
func (r *Stream) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	// xoshiro's state must not be all zero; SplitMix64 cannot produce
	// four consecutive zeros, but guard anyway for defence in depth.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// splitMix64 advances a SplitMix64 state and returns (nextState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits of the stream.
func (r *Stream) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// openRetries bounds the zero-rejection loop in Float64Open. A healthy
// stream emits zero with probability 2⁻⁵³ per draw, so 64 consecutive zeros
// is unreachable in practice (< 2⁻³³⁹²); the bound exists so a degenerate
// Source — a test stub returning constant zero, or a broken wrapper — makes
// sampling fall back to the smallest positive subnormal instead of spinning
// forever.
const openRetries = 64

// Float64Open returns a uniform value in the open interval (0, 1), useful
// for inverse-CDF sampling where log(0) must be avoided. The retry loop is
// bounded: after openRetries zero draws it returns the smallest positive
// subnormal double rather than hanging on a degenerate stream.
func (r *Stream) Float64Open() float64 {
	for i := 0; i < openRetries; i++ {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
	return math.SmallestNonzeroFloat64
}

// Float64Open returns a uniform value in (0, 1) from an arbitrary Source,
// with the same bounded retry-and-fall-back contract as Stream.Float64Open.
// It is the generic path behind every inversion sampler in dist.go.
func Float64Open(src Source) float64 {
	if s, ok := src.(*Stream); ok {
		return s.Float64Open()
	}
	for i := 0; i < openRetries; i++ {
		u := src.Float64()
		if u > 0 {
			return u
		}
	}
	return math.SmallestNonzeroFloat64
}

// Split derives an independent Stream from this stream and a label.
// Different labels produce different streams even when called on identical
// parent states.
func (r *Stream) Split(label uint64) Source {
	// Mix one value from the parent with the label through SplitMix64 so
	// that child streams are decorrelated from the parent and each other.
	seed := r.Uint64() ^ (label * 0xd1342543de82ef95)
	return New(seed)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand semantics (a non-positive bound is a programming error).
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn bound must be positive")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	lo = a * b
	return hi, lo
}

// NormFloat64 returns a standard normal variate (Box–Muller, polar form).
// The simulator itself is exponential/deterministic, but normal variates
// are needed by the statistics tests and by Weibull/lognormal extensions.
func (r *Stream) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
