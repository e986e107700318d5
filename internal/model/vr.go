package model

import "repro/internal/rng"

// Variance-reduction plumbing for an Instance. Two orthogonal modes, both
// off by default and bit-transparent when off:
//
//   - reflected: the simulator draws through an rng.Antithetic wrapper and
//     the output-gate decisions reflect their uniforms, so the whole
//     trajectory is the antithetic mirror of the plain one with the same
//     seed. runner.Estimate schedules (plain, reflected) pairs sharing a
//     seed and averages them (DESIGN.md §19).
//
//   - crn: every random purpose draws from its own sub-stream derived from
//     the replication seed by a stable per-purpose Split label, instead of
//     the single interleaved simulator stream. Two configurations run with
//     the same seed then consume the same failure sequence even when one of
//     them draws more or fewer variates elsewhere — the common-random-
//     numbers hardening for runner.Compare. Each purpose stream is wrapped
//     in a draw counter so a SyncReport can quantify residual divergence.
//
// Both flags only take full effect at the next Recycle: the initial settle
// samples delays, so the trajectory must be rebuilt under the new routing.

// purpose enumerates the independent random uses of a trajectory. The order
// is frozen — it defines both the Split labels of the CRN sub-streams and
// the layout of DrawCounts.
type purpose int

const (
	purposeCompFailure purpose = iota
	purposeRecoveryFailure
	purposeIOFailure
	purposeRecovery
	purposeIORestart
	purposeCoord
	purposePermanent
	purposeCorrWindow
	purposeMigration
	numPurposes
)

var purposeNames = [numPurposes]string{
	"comp_failure", "recovery_failure", "io_failure", "recovery",
	"io_restart", "coord", "permanent", "corr_window", "migration",
}

// PurposeNames returns the stable names of the per-purpose CRN sub-streams,
// index-aligned with DrawCounts.
func PurposeNames() []string {
	out := make([]string, numPurposes)
	copy(out, purposeNames[:])
	return out
}

// crnSalt decorrelates the CRN root from the plain trajectory stream, which
// is seeded from the same replication seed.
const crnSalt = 0x43524e5f73616c74 // "CRN_salt"

// SetVR selects the instance's variance-reduction routing. It may be called
// repeatedly (the runner alternates legs on cached instances); call it
// before Recycle so the initial settle already draws through the new
// routing. With both flags false the instance is bit-identical to one that
// never saw this method.
func (in *Instance) SetVR(reflected, crn bool) {
	in.vrReflected, in.vrCRN = reflected, crn
	if reflected {
		in.sim.SetSource(rng.Antithetic{Inner: in.src})
	} else {
		in.sim.SetSource(in.src)
	}
	if !crn {
		in.purposes = [numPurposes]*rng.Counter{}
	}
}

// DrawCounts returns the number of variates each purpose consumed in the
// current trajectory (nil unless CRN routing is on). Index-aligned with
// PurposeNames.
func (in *Instance) DrawCounts() []uint64 {
	if !in.vrCRN {
		return nil
	}
	out := make([]uint64, numPurposes)
	for p, c := range in.purposes {
		if c != nil {
			out[p] = c.N
		}
	}
	return out
}

// derivePurposes builds the per-purpose CRN sub-streams for one
// replication. Every purpose splits off a salted root with its own stable
// label, so configuration A's k-th failure draw pairs with configuration
// B's k-th failure draw regardless of what either config consumes for other
// purposes.
func (in *Instance) derivePurposes(seed uint64) {
	root := rng.New(seed ^ crnSalt)
	for p := purpose(0); p < numPurposes; p++ {
		var s rng.Source = root.Split(uint64(p) + 1)
		if in.vrReflected {
			s = rng.Antithetic{Inner: s}
		}
		in.purposes[p] = &rng.Counter{Src: s}
	}
}

// delaySrc routes a timed activity's delay sampling: the purpose sub-stream
// under CRN, otherwise the source the simulator passed in (which is the
// antithetic wrapper on reflected legs). The non-CRN path returns src
// untouched, so plain trajectories are bit-identical to the pre-VR code.
func (in *Instance) delaySrc(p purpose, src rng.Source) rng.Source {
	if in.vrCRN {
		return in.purposes[p]
	}
	return src
}

// u01 draws the uniform behind an output-gate decision (permanent-failure,
// correlated-window, migration). Gates draw from the instance stream rather
// than the simulator source, so reflected legs reflect here explicitly; CRN
// routes to the purpose sub-stream.
func (in *Instance) u01(p purpose) float64 {
	if in.vrCRN {
		return in.purposes[p].Float64()
	}
	u := in.src.Float64()
	if in.vrReflected {
		u = rng.Reflect(u)
	}
	return u
}
