package model

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/san"
	"repro/internal/stats"
)

// Instance is one executable copy of the composed SAN with its reward
// state. Create with New; run with RunSteadyState or Advance.
type Instance struct {
	cfg cluster.Config
	mod *san.Model
	sim *san.Simulator
	pl  *places
	src *rng.Stream // concrete so Recycle can Reseed in place

	// Coordination delay distribution (Section 5 / Section 7.2 modes).
	coordDist rng.Dist

	// weibullMeanDivisor is Γ(1+1/shape), precomputed so the Weibull
	// failure sampler can derive the scale matching any (possibly
	// marking-dependent) target mean. 0 under the exponential default.
	weibullMeanDivisor float64

	// pendingWriteScale is the size of the dumped checkpoint relative to
	// a full one, consumed by the background FS write's delay.
	pendingWriteScale float64

	// Useful-work reward state (Section 7 metric; DESIGN.md §5).
	progress *san.RateReward // raw accrued work P(t)
	lost     float64         // L: total work lost to rollbacks
	capB     float64         // useful work secured by the buffered checkpoint
	capD     float64         // useful work secured by the durable checkpoint

	// states are the occupancy rewards behind the time Breakdown.
	states stateRewards

	// lossStats accumulates the work lost per rollback (hours of useful
	// work discarded each time the system rolls back to a checkpoint).
	lossStats stats.Accumulator

	counters Counters

	// phases is the phase recording behind AttachPhases (phases.go).
	phases phaseFeed

	// Variance-reduction routing (vr.go): antithetic reflection and
	// common-random-numbers purpose sub-streams. Both off by default;
	// effective from the next Recycle.
	vrReflected bool
	vrCRN       bool
	purposes    [numPurposes]*rng.Counter
}

// Counters tallies discrete events of one trajectory.
type Counters struct {
	ComputeFailures    uint64 // failures of the compute subsystem while up
	IOFailures         uint64 // failures of the I/O subsystem
	RecoveryFailures   uint64 // failures during recovery
	CheckpointsDumped  uint64 // successful dumps to the I/O nodes
	CheckpointsWritten uint64 // checkpoints made durable in the FS
	CheckpointAborts   uint64 // coordination timeouts (skip_chkpt)
	Reboots            uint64 // severe-failure system reboots
	CorrWindows        uint64 // correlated-failure windows opened
	PermanentFailures  uint64 // failures flagged permanent (extension)
	Migrations         uint64 // failures predicted and averted by proactive migration (extension)
}

// New validates cfg and builds an instance seeded with seed.
func New(cfg cluster.Config, seed uint64) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	inst := &Instance{cfg: cfg, src: rng.New(seed), pendingWriteScale: 1}
	inst.coordDist = coordinationDist(cfg)
	if cfg.FailureDist == cluster.FailureWeibull {
		inst.weibullMeanDivisor = math.Gamma(1 + 1/cfg.FailureShape)
	}
	inst.mod = san.NewModel("coordinated-checkpointing")
	inst.pl = newPlaces(inst.mod)
	inst.addComputeAndMaster()
	inst.addAppWorkload()
	inst.addIONodes()
	inst.addFailureAndRecovery()
	inst.addCorrelated()
	inst.addMigration()
	sim, err := san.NewSimulator(inst.mod, inst.src)
	if err != nil {
		return nil, err
	}
	inst.sim = sim
	// The useful-work accrual rate: 1 while the compute nodes execute the
	// application (computation or application I/O both count, Section 7)
	// with the system up; 0 while quiescing, checkpointing, recovering or
	// rebooting.
	inst.progress = sim.AddIndicator("progress", []*san.Place{inst.pl.execution, inst.pl.sysUp}, nil)
	inst.addStateRewards()
	return inst, nil
}

// coordinationDist maps the configured coordination mode to the quiesce
// delay distribution of the coord activity (Section 5 / Section 7.2).
// Under CoordMaxOfN a straggler population (heterogeneous quiesce speeds,
// an extension beyond the paper's i.i.d. assumption) splits the processors
// into fast and slow groups whose maxima race.
func coordinationDist(cfg cluster.Config) rng.Dist {
	switch cfg.Coordination {
	case cluster.CoordNone:
		return rng.Exponential{MeanValue: cfg.MTTQ}
	case cluster.CoordMaxOfN:
		if slow := cfg.StragglerCount(); slow > 0 {
			return rng.MaxOfGroups{Groups: []rng.MaxOfNExponentials{
				{N: cfg.Processors - slow, PerNodeMean: cfg.MTTQ},
				{N: slow, PerNodeMean: cfg.MTTQ * cfg.StragglerMTTQMultiplier},
			}}
		}
		return rng.MaxOfNExponentials{N: cfg.Processors, PerNodeMean: cfg.MTTQ}
	default: // CoordFixed — the base model's fixed quiesce time.
		return rng.Deterministic{Value: cfg.MTTQ}
	}
}

// Model exposes the underlying SAN structure (for structural tests).
func (in *Instance) Model() *san.Model { return in.mod }

// Counters returns the event tallies so far.
func (in *Instance) Counters() Counters { return in.counters }

// useful returns the net useful work accrued so far, P − L.
func (in *Instance) useful() float64 { return in.progress.Integral() - in.lost }

// ---- computing & checkpointing module ----

// addComputeAndMaster wires the master and compute_nodes submodels
// (Figures 2a, 2d) and the coordination submodel (Figure 2e). Every input
// gate declares the places its predicate reads so the simulator's
// place→activity dependency index can reconcile enabling incrementally.
func (in *Instance) addComputeAndMaster() {
	pl, cfg := in.pl, in.cfg

	// The checkpoint interval expires and the master starts the protocol
	// (and its timeout timer, the start_timer gate of Figure 2d). The
	// delay is the configured interval, or — under the adaptive-interval
	// extension — whatever the marking-dependent controller currently
	// recommends (see intervalDelay).
	in.mod.AddTimed(san.Activity{
		Name:   "checkpoint_trigger",
		Input:  san.AllOf(pl.masterSleep, pl.sysUp),
		Delay:  in.intervalDelay,
		Output: san.Shift(san.Tokens(pl.masterSleep, -1), san.Tokens(pl.masterCheckpointing, 1)),
	})

	// Compute nodes receive the 'quiesce' broadcast after the broadcast
	// overhead and stop at a consistent state.
	in.mod.AddTimed(san.Activity{
		Name:   "recv_quiesce",
		Input:  san.AllOf(pl.masterCheckpointing, pl.execution, pl.sysUp),
		Delay:  det(cfg.BroadcastOverhead),
		Output: san.Shift(san.Tokens(pl.execution, -1), san.Tokens(pl.quiescing, 1)),
	})

	// The master's coordination timer. It is disarmed as soon as the
	// compute nodes enter checkpointing (all 'ready' responses arrived).
	if cfg.Timeout > 0 {
		in.mod.AddTimed(san.Activity{
			Name: "master_timer",
			Input: san.When(func(m *san.Marking) bool {
				return m.Has(pl.masterCheckpointing) &&
					!m.Has(pl.checkpointing) && !m.Has(pl.fsWait)
			}, pl.masterCheckpointing, pl.checkpointing, pl.fsWait),
			Delay:  det(cfg.Timeout),
			Output: san.Out(func(m *san.Marking) { m.Set(pl.timedOut, 1) }),
		})
	}

	// Coordination: the slowest node's quiesce time (Figure 2e). It can
	// only begin once the application is in its compute phase — a node
	// doing foreground I/O must finish it first (Figure 2c).
	in.mod.AddTimed(san.Activity{
		Name:  "coord",
		Input: san.AllOf(pl.quiescing, pl.appCompute, pl.sysUp),
		Delay: func(_ *san.Marking, src rng.Source) float64 {
			return in.coordDist.Sample(in.delaySrc(purposeCoord, src))
		},
		Output: san.Out(func(m *san.Marking) {
			m.Set(pl.completeCoordination, 1)
		}),
	})

	// Coordination finished: compute nodes move to checkpoint dumping.
	in.mod.AddInstant(san.Activity{
		Name:     "coordinate",
		Priority: 1,
		Input:    san.AllOf(pl.quiescing, pl.completeCoordination),
		Output: san.Out(func(m *san.Marking) {
			m.Clear(pl.completeCoordination)
			m.Move(pl.quiescing, pl.checkpointing)
		}),
	})

	// Timer expired before coordination completed: abort the checkpoint
	// (skip_chkpt2 of Figure 2a/2d). Higher priority than coordinate so a
	// simultaneous expiry aborts, matching the master-decides semantics.
	in.mod.AddInstant(san.Activity{
		Name:     "skip_chkpt",
		Priority: 2,
		Input:    san.AllOf(pl.timedOut, pl.quiescing),
		Output: san.Out(func(m *san.Marking) {
			m.Clear(pl.timedOut)
			m.Clear(pl.completeCoordination)
			m.Move(pl.quiescing, pl.execution)
			m.Move(pl.masterCheckpointing, pl.masterSleep)
			in.resetApp(m)
			in.counters.CheckpointAborts++
		}),
	})

	// A stray timeout token with no quiesce in progress is discarded
	// (e.g. the timer and the dump completed simultaneously).
	in.mod.AddInstant(san.Activity{
		Name:     "timeout_clear",
		Priority: 0,
		Input: san.When(func(m *san.Marking) bool {
			return m.Has(pl.timedOut) && !m.Has(pl.quiescing)
		}, pl.timedOut, pl.quiescing),
		Output: san.Out(func(m *san.Marking) { m.Clear(pl.timedOut) }),
	})

	// Checkpoint dump: every group of compute nodes streams its state to
	// its I/O node in parallel (ionode_is_idle input gate of Figure 2a).
	// With the incremental extension, only every k-th dump carries the
	// full state; the others move IncrementalFraction of it.
	in.mod.AddTimed(san.Activity{
		Name:  "dump_chkpt",
		Input: san.AllOf(pl.checkpointing, pl.ionodeIdle, pl.ioUp, pl.sysUp),
		Delay: func(m *san.Marking, _ rng.Source) float64 {
			return cfg.CheckpointDumpTime() * in.checkpointScale(m)
		},
		Output: san.Out(func(m *san.Marking) {
			in.pendingWriteScale = in.checkpointScale(m)
			in.advanceIncrSeq(m)
			m.Set(pl.enableChkpt, 1)
			m.Set(pl.chkptBuffered, 1)
			// The buffered checkpoint captures all work up to the
			// quiesce point; nothing accrued since, so the secured
			// level is exactly the current useful work.
			in.capB = in.useful()
			in.counters.CheckpointsDumped++
			if cfg.BlockingCheckpointWrite {
				// Ablation: without two-step background I/O the
				// compute nodes stay stopped until the file-system
				// write finishes (paper footnote 1).
				m.Move(pl.checkpointing, pl.fsWait)
				return
			}
			m.Move(pl.checkpointing, pl.execution)
			m.Move(pl.masterCheckpointing, pl.masterSleep)
			in.resetApp(m)
		}, pl.incrSeq),
	})

	if cfg.BlockingCheckpointWrite {
		// The compute nodes resume once the file-system write has
		// finished — or been aborted by an I/O failure, which clears
		// both the write request and the in-progress write.
		in.mod.AddInstant(san.Activity{
			Name: "resume_after_fs_write",
			Input: san.When(func(m *san.Marking) bool {
				return m.Has(pl.fsWait) && !m.Has(pl.enableChkpt) && !m.Has(pl.writingChkpt)
			}, pl.fsWait, pl.enableChkpt, pl.writingChkpt),
			Output: san.Out(func(m *san.Marking) {
				m.Move(pl.fsWait, pl.execution)
				m.Move(pl.masterCheckpointing, pl.masterSleep)
				in.resetApp(m)
			}),
		})
	}
}

// resetApp returns the application workload to a fresh compute phase, as
// the paper does when checkpointing completes or aborts and after recovery
// ("the app_workload resets at the compute state", Figure 2c).
func (in *Instance) resetApp(m *san.Marking) {
	m.Clear(in.pl.appIO)
	m.Set(in.pl.appCompute, 1)
}

// det builds a deterministic DelayFunc.
func det(v float64) san.DelayFunc {
	return func(*san.Marking, rng.Source) float64 { return v }
}

// checkpointScale returns the relative size of the next checkpoint: 1 for
// a full dump, IncrementalFraction for an incremental one.
func (in *Instance) checkpointScale(m *san.Marking) float64 {
	if in.cfg.IncrementalFraction <= 0 {
		return 1
	}
	if m.Get(in.pl.incrSeq) == 0 {
		return 1
	}
	return in.cfg.IncrementalFraction
}

// advanceIncrSeq cycles the full/incremental counter: every k-th
// checkpoint is full.
func (in *Instance) advanceIncrSeq(m *san.Marking) {
	if in.cfg.IncrementalFraction <= 0 {
		return
	}
	next := (m.Get(in.pl.incrSeq) + 1) % in.cfg.FullCheckpointEvery
	m.Set(in.pl.incrSeq, next)
}
