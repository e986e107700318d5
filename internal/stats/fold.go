package stats

// Fold is the one replication-order fold behind every estimate: values
// arrive in replication order and one pairing rule decides what an
// observation is. Plain, each value is one observation. Paired (antithetic
// variates), values 2k and 2k+1 are the plain and reflected legs of pair k
// and the pair mean is one observation; a leg waiting for its partner is
// held, not folded. The interval, the prefix half-width journaled beside
// each replication and the convergence trajectory all come from here — for
// the monolithic run, a block worker and the reducer alike — which is what
// pins the three to the same bits.
type Fold struct {
	level  float64
	paired bool
	plain  Accumulator
	pairs  PairedAccumulator
	leg    float64 // plain leg awaiting its reflected partner
	hasLeg bool
}

// NewFold returns an empty fold at the given confidence level.
func NewFold(level float64, paired bool) *Fold {
	return &Fold{level: level, paired: paired}
}

// Add folds the next replication value and reports whether it completed an
// observation: always when plain, on the reflected leg when paired.
func (f *Fold) Add(v float64) bool {
	switch {
	case !f.paired:
		f.plain.Add(v)
	case !f.hasLeg:
		f.leg, f.hasLeg = v, true
		return false
	default:
		f.pairs.AddPair(f.leg, v)
		f.hasLeg = false
	}
	return true
}

// AddAll folds values in order and returns f.
func (f *Fold) AddAll(values []float64) *Fold {
	for _, v := range values {
		f.Add(v)
	}
	return f
}

// estimate is the accumulator of observations: values, or pair means.
func (f *Fold) estimate() *Accumulator {
	if f.paired {
		return &f.pairs.pairs
	}
	return &f.plain
}

// N returns the number of observations folded: values, or complete pairs.
func (f *Fold) N() int { return f.estimate().N() }

// CI returns the interval over the observations folded so far.
func (f *Fold) CI() Interval { return f.estimate().CI(f.level) }

// Convergence returns the snapshot of the observations folded so far; its
// HalfWidth is the ci_half_width journaled beside a replication record.
func (f *Fold) Convergence() Convergence { return f.estimate().Convergence(f.level) }

// Paired returns the pair statistics a variance-reduction report is built
// from, or nil for a plain fold.
func (f *Fold) Paired() *PairedAccumulator {
	if !f.paired {
		return nil
	}
	return &f.pairs
}

// Trajectory folds values in order and returns one convergence snapshot
// per completed observation once at least two are in — the CI half-width
// trajectory. Folding a sequence in consecutive slices yields the
// concatenation of their trajectories, so a sharded run's block series
// reproduce the monolithic trajectory at any block layout.
func (f *Fold) Trajectory(values []float64) []Convergence {
	var out []Convergence
	for _, v := range values {
		if f.Add(v) && f.N() >= 2 {
			out = append(out, f.Convergence())
		}
	}
	return out
}

// ReplicationsToHalfWidth folds values in order and returns how many it
// consumed before the CI half-width first dropped to target or below (the
// first crossing; no check is made that it stays there), or −1 if it never
// does. Paired folds count legs, so plain and antithetic counts compare
// directly as replications simulated.
func (f *Fold) ReplicationsToHalfWidth(values []float64, target float64) int {
	for i, v := range values {
		if f.Add(v) && f.N() >= 2 && f.CI().HalfWide <= target {
			return i + 1
		}
	}
	return -1
}
