package model

import (
	"repro/internal/rng"
	"repro/internal/san"
)

// addAppWorkload wires the app_workload submodel (Figure 2c): the BSP
// compute / foreground-I/O alternation of Section 3.3. Phase timers only
// advance while the compute nodes are executing; when a checkpoint or
// recovery interrupts the application, the workload is reset to a fresh
// compute phase (Figure 2c's to_reset_processor_state).
func (in *Instance) addAppWorkload() {
	pl, cfg := in.pl, in.cfg
	if cfg.AppIOForegroundTime() <= 0 {
		// Pure compute application: the workload stays in app_compute
		// forever and no I/O-phase activities are needed.
		return
	}
	in.mod.AddTimed(san.Activity{
		Name:   "app_compute_end",
		Input:  san.AllOf(pl.appCompute, pl.execution, pl.sysUp),
		Delay:  det(cfg.AppComputeTime()),
		Output: san.Shift(san.Tokens(pl.appCompute, -1), san.Tokens(pl.appIO, 1)),
	})
	// Foreground I/O is non-preemptive: once started it runs to
	// completion even while the nodes are quiescing for a checkpoint
	// (Section 3.3), so the enabling condition deliberately does not
	// require the execution state.
	in.mod.AddTimed(san.Activity{
		Name:  "app_io_end",
		Input: san.AllOf(pl.appIO, pl.sysUp),
		Delay: det(cfg.AppIOForegroundTime()),
		// The transferred data then sits in the I/O nodes' buffers
		// awaiting the background file-system write.
		Output: san.Shift(
			san.Tokens(pl.appIO, -1), san.Tokens(pl.appCompute, 1),
			san.Tokens(pl.appDataPending, 1),
		),
	})
}

// addIONodes wires the io_nodes submodel (Figure 2b): background writes of
// checkpoints and application data to the file system. Checkpoint writes
// take precedence over application-data writes when both are pending.
func (in *Instance) addIONodes() {
	pl, cfg := in.pl, in.cfg

	in.mod.AddInstant(san.Activity{
		Name:     "start_write_chkpt",
		Priority: 1,
		Input:    san.AllOf(pl.ionodeIdle, pl.enableChkpt, pl.ioUp),
		Output: san.Out(func(m *san.Marking) {
			m.Clear(pl.enableChkpt)
			m.Move(pl.ionodeIdle, pl.writingChkpt)
		}),
	})
	in.mod.AddTimed(san.Activity{
		Name:  "write_chkpt",
		Input: san.AllOf(pl.writingChkpt, pl.ioUp),
		Delay: func(*san.Marking, rng.Source) float64 {
			return cfg.CheckpointFSWriteTime() * in.pendingWriteScale
		},
		Output: san.Out(func(m *san.Marking) {
			m.Move(pl.writingChkpt, pl.ionodeIdle)
			// The durable checkpoint catches up with the buffer.
			in.capD = in.capB
			in.counters.CheckpointsWritten++
		}),
	})

	in.mod.AddInstant(san.Activity{
		Name:     "start_write_appdata",
		Priority: 0,
		Input:    san.AllOf(pl.ionodeIdle, pl.appDataPending, pl.ioUp),
		Output: san.Shift(
			san.Tokens(pl.appDataPending, -1),
			san.Tokens(pl.ionodeIdle, -1), san.Tokens(pl.writingAppData, 1),
		),
	})
	in.mod.AddTimed(san.Activity{
		Name:   "write_appdata",
		Input:  san.AllOf(pl.writingAppData, pl.ioUp),
		Delay:  det(cfg.AppIOBackgroundWriteTime()),
		Output: san.Shift(san.Tokens(pl.writingAppData, -1), san.Tokens(pl.ionodeIdle, 1)),
	})
}

// addFailureAndRecovery wires the comp_node_failure, comp_node_recovery,
// io_node_failure, io_node_recovery and system_reboot submodels
// (Sections 3.4 and 4).
func (in *Instance) addFailureAndRecovery() {
	pl, cfg := in.pl, in.cfg

	computeRate := cfg.ComputeFailureRate() + cfg.GenericCorrelatedRate()
	ioRate := cfg.IOFailureRate()

	// Compute-subsystem failure: may strike in any state while the system
	// is up — executing, quiescing or checkpoint dumping (Section 3.4).
	// The rate is multiplied by r inside a correlated-failure window;
	// ReactivateOn makes the delay resample when the window opens or
	// closes (sound by memorylessness under the exponential default; an
	// explicit renewal approximation under FailureWeibull, see
	// failureDelay). The output gate reads the buffer/window places
	// through computeFailure's branching. With the migration extension a
	// predicted failure is absorbed by maybeMigrate instead of rolling
	// back.
	in.mod.AddTimed(san.Activity{
		Name:  "comp_failure",
		Input: san.AllOf(pl.sysUp),
		Delay: func(m *san.Marking, src rng.Source) float64 {
			return in.failureDelay(computeRate*in.corrMult(m), in.delaySrc(purposeCompFailure, src))
		},
		ReactivateOn: []*san.Place{pl.corrWindow},
		Output: san.Out(func(m *san.Marking) {
			in.counters.ComputeFailures++
			if in.maybeMigrate(m) {
				return
			}
			in.computeFailure(m)
		}, pl.chkptBuffered, pl.corrWindow),
	})

	// Recovery stage 1: the I/O nodes read the last durable checkpoint
	// from the file system into their buffers. Skipped entirely (the
	// place never gets a token) when the checkpoint is still buffered.
	in.mod.AddTimed(san.Activity{
		Name:  "recover_stage1",
		Input: san.AllOf(pl.recoveryStage1, pl.ioUp),
		Delay: det(cfg.CheckpointFSReadTime()),
		Output: san.Out(func(m *san.Marking) {
			m.Move(pl.recoveryStage1, pl.recoveryStage2)
			// The checkpoint is buffered again; the buffer equals
			// the durable copy so no extra work is secured.
			m.Set(pl.chkptBuffered, 1)
			in.capB = in.capD
		}),
	})

	// Recovery stage 2: compute nodes read the checkpoint from the I/O
	// nodes and reinitialise. Figure 3 models recovery with a rate µ, so
	// the stage is exponential with the system MTTR as its mean. After a
	// permanent failure the extension adds the deterministic spare-node
	// reconfiguration time (§3.4 / footnote 2 of the paper).
	in.mod.AddTimed(san.Activity{
		Name:  "recover_stage2",
		Input: san.AllOf(pl.recoveryStage2, pl.ioUp),
		Delay: func(m *san.Marking, src rng.Source) float64 {
			d := rng.Exponential{MeanValue: cfg.MTTR}.Sample(in.delaySrc(purposeRecovery, src))
			if m.Has(pl.reconfigNeeded) {
				d += cfg.ReconfigurationTime
			}
			return d
		},
		Output: san.Out(func(m *san.Marking) {
			m.Clear(pl.recoveryStage2)
			m.Clear(pl.recoveryFailures)
			m.Clear(pl.reconfigNeeded)
			m.Set(pl.sysUp, 1)
			m.Set(pl.execution, 1)
			in.resetApp(m)
			// A successful recovery wipes latent errors: the system
			// exits the correlated-failure window (Section 4).
			m.Clear(pl.corrWindow)
		}),
	})

	// Failures during recovery (the paper's key departure from classic
	// models): each one restarts the recovery; after
	// SevereFailureThreshold consecutive unsuccessful recoveries the
	// whole system reboots ("severe failures", Figure 1).
	in.mod.AddTimed(san.Activity{
		Name: "recovery_failure",
		Input: san.When(func(m *san.Marking) bool {
			return (m.Has(pl.recoveryStage1) || m.Has(pl.recoveryStage2)) && !m.Has(pl.rebooting)
		}, pl.recoveryStage1, pl.recoveryStage2, pl.rebooting),
		Delay: func(m *san.Marking, src rng.Source) float64 {
			return in.failureDelay(computeRate*in.corrMult(m), in.delaySrc(purposeRecoveryFailure, src))
		},
		ReactivateOn: []*san.Place{pl.corrWindow},
		Output: san.Out(func(m *san.Marking) {
			in.counters.RecoveryFailures++
			in.maybeOpenCorrWindow(m)
			m.Add(pl.recoveryFailures, 1)
			if m.Get(pl.recoveryFailures) >= cfg.SevereFailureThreshold {
				in.startReboot(m)
				return
			}
			// Restart recovery at the appropriate stage.
			m.Clear(pl.recoveryStage1)
			m.Clear(pl.recoveryStage2)
			m.Set(in.recoveryEntryStage(m), 1)
		}, pl.recoveryFailures, pl.chkptBuffered, pl.corrWindow),
	})

	// I/O-subsystem failure (Section 3.4): restarts all I/O nodes; the
	// consequences depend on what the I/O nodes were doing. The
	// NoIOFailures ablation removes the process entirely.
	if !cfg.NoIOFailures {
		in.mod.AddTimed(san.Activity{
			Name:  "io_failure",
			Input: san.AllOf(pl.ioUp),
			Delay: func(m *san.Marking, src rng.Source) float64 {
				return in.failureDelay(ioRate*in.corrMult(m), in.delaySrc(purposeIOFailure, src))
			},
			ReactivateOn: []*san.Place{pl.corrWindow},
			Output: san.Out(func(m *san.Marking) {
				in.counters.IOFailures++
				in.ioFailure(m)
			}, pl.writingAppData, pl.appDataPending, pl.sysUp,
				pl.recoveryStage1, pl.recoveryStage2, pl.recoveryFailures,
				pl.chkptBuffered, pl.corrWindow),
		})
	}

	// I/O restart: "When an I/O node fails, all the I/O nodes need to be
	// restarted" (Section 3.4); Table 3 gives a 1-minute MTTR.
	in.mod.AddTimed(san.Activity{
		Name:  "io_restart",
		Input: san.AllOf(pl.ioRestarting),
		Delay: func(_ *san.Marking, src rng.Source) float64 {
			return rng.Exponential{MeanValue: cfg.MTTRIONodes}.Sample(in.delaySrc(purposeIORestart, src))
		},
		Output: san.Out(func(m *san.Marking) {
			m.Move(pl.ioRestarting, pl.ionodeIdle)
			m.Set(pl.ioUp, 1)
		}),
	})

	// System reboot (system_reboot submodel): after it completes the I/O
	// processors are ready but the compute nodes still need to read the
	// last durable checkpoint and recover (Figure 1's "reboot completes"
	// arrows into io_nodes and comp_node_failure).
	in.mod.AddTimed(san.Activity{
		Name:  "reboot",
		Input: san.AllOf(pl.rebooting),
		Delay: det(cfg.RebootTime),
		Output: san.Out(func(m *san.Marking) {
			m.Clear(pl.rebooting)
			m.Set(pl.ioUp, 1)
			m.Set(pl.ionodeIdle, 1)
			m.Set(pl.recoveryStage1, 1) // buffer was lost; durable read required
		}),
	})
}

// computeFailure applies the full consequence of a compute-subsystem
// failure: all work since the newest valid checkpoint is lost, any
// checkpoint protocol in progress is aborted (the previous checkpoint
// remains valid), and two-stage recovery starts — stage 1 skipped when the
// checkpoint is still buffered at the I/O nodes.
func (in *Instance) computeFailure(m *san.Marking) {
	pl := in.pl
	if in.cfg.NoBufferedRecovery {
		// Ablation: recovery ignores the I/O-node buffers, so work
		// secured only by a buffered checkpoint is lost too.
		in.capB = in.capD
	}
	// Negative impulse: the computation since the last valid checkpoint
	// must be repeated and is not useful work (Section 7).
	lost := in.useful() - in.capB
	in.lossStats.Add(lost)
	in.lost += lost

	// Tear down the compute side wherever it was (an in-progress
	// migration is overtaken by the unpredicted failure).
	m.Clear(pl.execution)
	m.Clear(pl.quiescing)
	m.Clear(pl.checkpointing)
	m.Clear(pl.fsWait)
	m.Clear(pl.migrating)
	m.Clear(pl.sysUp)

	// Abort the protocol; a partially dumped checkpoint is discarded and
	// the previous checkpoint stays valid (Section 3.2).
	m.Clear(pl.completeCoordination)
	m.Clear(pl.timedOut)
	m.Set(pl.masterSleep, 1)
	m.Clear(pl.masterCheckpointing)
	in.resetApp(m)

	// Permanent-failure extension: with the configured probability this
	// failure took hardware out for good, so the coming recovery must
	// first reconfigure onto spare nodes and remap the checkpoint.
	if in.cfg.ProbPermanentFailure > 0 && in.u01(purposePermanent) < in.cfg.ProbPermanentFailure {
		in.counters.PermanentFailures++
		m.Set(pl.reconfigNeeded, 1)
	}

	// Enter recovery.
	m.Clear(pl.recoveryStage1)
	m.Clear(pl.recoveryStage2)
	m.Set(in.recoveryEntryStage(m), 1)
	in.maybeOpenCorrWindow(m)
}

// recoveryEntryStage returns the recovery stage a rollback enters: stage 2
// when a buffered checkpoint can be used (Section 4), stage 1 otherwise.
func (in *Instance) recoveryEntryStage(m *san.Marking) *san.Place {
	if m.Has(in.pl.chkptBuffered) && !in.cfg.NoBufferedRecovery {
		return in.pl.recoveryStage2
	}
	return in.pl.recoveryStage1
}

// ioFailure applies the consequence of an I/O-subsystem failure. All I/O
// nodes restart, which always invalidates the buffered checkpoint; work it
// covered beyond the durable copy becomes at-risk again. If application
// data was buffered or being written, the application results are lost and
// the system rolls back to the last durable checkpoint (Section 3.4).
func (in *Instance) ioFailure(m *san.Marking) {
	pl := in.pl

	appDataLoss := m.Has(pl.writingAppData) || m.Has(pl.appDataPending)

	// The restart wipes I/O-node memory: buffered checkpoint and pending
	// write requests are gone. Work secured only by the buffer reverts
	// to at-risk (it is not lost yet — only a failure loses it).
	m.Clear(pl.chkptBuffered)
	in.capB = in.capD
	m.Clear(pl.enableChkpt)
	m.Clear(pl.appDataPending)
	m.Clear(pl.ionodeIdle)
	m.Clear(pl.writingChkpt)
	m.Clear(pl.writingAppData)
	m.Clear(pl.ioUp)
	m.Set(pl.ioRestarting, 1)

	recovering := m.Has(pl.recoveryStage1) || m.Has(pl.recoveryStage2)
	switch {
	case appDataLoss && m.Has(pl.sysUp):
		// Application results lost: full rollback of the compute side
		// to the last durable checkpoint.
		in.computeFailure(m)
	case recovering:
		// An I/O failure during recovery makes the attempt
		// unsuccessful; restart from stage 1 (buffer gone) and count
		// it toward the severe-failure threshold.
		in.counters.RecoveryFailures++
		m.Add(pl.recoveryFailures, 1)
		m.Clear(pl.recoveryStage1)
		m.Clear(pl.recoveryStage2)
		if m.Get(pl.recoveryFailures) >= in.cfg.SevereFailureThreshold {
			in.startReboot(m)
		} else {
			m.Set(pl.recoveryStage1, 1)
		}
		in.maybeOpenCorrWindow(m)
	default:
		// Compute nodes are not affected (e.g. the I/O nodes were idle
		// or writing a checkpoint); they keep executing and the
		// checkpoint write, if any, is simply aborted.
		in.maybeOpenCorrWindow(m)
	}
}

// startReboot puts the whole system (compute and I/O nodes) into the
// system_reboot submodel.
func (in *Instance) startReboot(m *san.Marking) {
	pl := in.pl
	in.counters.Reboots++
	m.Clear(pl.recoveryStage1)
	m.Clear(pl.recoveryStage2)
	m.Clear(pl.recoveryFailures)
	m.Clear(pl.execution)
	m.Clear(pl.quiescing)
	m.Clear(pl.checkpointing)
	m.Clear(pl.fsWait)
	m.Clear(pl.migrating)
	m.Clear(pl.sysUp)
	m.Set(pl.masterSleep, 1)
	m.Clear(pl.masterCheckpointing)
	m.Clear(pl.timedOut)
	m.Clear(pl.completeCoordination)
	m.Clear(pl.ioUp)
	m.Clear(pl.ioRestarting)
	m.Clear(pl.ionodeIdle)
	m.Clear(pl.writingChkpt)
	m.Clear(pl.writingAppData)
	m.Clear(pl.enableChkpt)
	m.Clear(pl.appDataPending)
	m.Clear(pl.chkptBuffered)
	in.capB = in.capD
	m.Clear(pl.corrWindow)
	// A full reboot reinitialises the node mapping, so any pending
	// spare-node reconfiguration is subsumed by it.
	m.Clear(pl.reconfigNeeded)
	m.Set(pl.rebooting, 1)
}

// addCorrelated wires the correlated_failures submodel: the window-end
// timer. The window place's token count increments on every trigger so the
// deterministic end timer reactivates, extending the burst.
func (in *Instance) addCorrelated() {
	pl, cfg := in.pl, in.cfg
	if cfg.ProbCorrelated <= 0 {
		return
	}
	in.mod.AddTimed(san.Activity{
		Name:         "corr_window_end",
		Input:        san.AllOf(pl.corrWindow),
		Delay:        det(cfg.CorrelatedWindow),
		ReactivateOn: []*san.Place{pl.corrWindow},
		Output:       san.Out(func(m *san.Marking) { m.Clear(pl.corrWindow) }),
	})
}

// corrMult returns the failure-rate multiplier of the correlated-failure
// window: r inside a window, 1 outside (Section 6).
func (in *Instance) corrMult(m *san.Marking) float64 {
	if m.Has(in.pl.corrWindow) && in.cfg.CorrelatedFactor > 0 {
		return in.cfg.CorrelatedFactor
	}
	return 1
}

// maybeOpenCorrWindow opens a correlated-failure window with probability
// p_e after a failure: error propagation makes follow-on failures r times
// more likely for the window's duration (Section 3.5). The window is a
// fixed-length error burst measured from the triggering failure; follow-on
// failures inside it do not extend it (the burst would otherwise
// self-sustain at the paper's r values, where p = λc/(λc+µ) ≈ 1).
func (in *Instance) maybeOpenCorrWindow(m *san.Marking) {
	cfg := in.cfg
	if cfg.ProbCorrelated <= 0 || m.Has(in.pl.corrWindow) {
		return
	}
	if in.u01(purposeCorrWindow) < cfg.ProbCorrelated {
		in.counters.CorrWindows++
		m.Set(in.pl.corrWindow, 1)
	}
}
