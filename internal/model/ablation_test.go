package model

import (
	"testing"

	"repro/internal/cluster"
)

// TestBlockingWriteCostsThroughput: without the two-step background I/O
// (paper footnote 1) the file-system write joins the critical path, so the
// failure-free fraction drops by roughly writeTime/interval ≈ 7 %.
func TestBlockingWriteCostsThroughput(t *testing.T) {
	bg := reliable()
	background := mustNew(t, bg, 40)
	mBG, err := background.RunSteadyState(100, 1500)
	if err != nil {
		t.Fatal(err)
	}
	bl := reliable()
	bl.BlockingCheckpointWrite = true
	blocking := mustNew(t, bl, 40)
	mBL, err := blocking.RunSteadyState(100, 1500)
	if err != nil {
		t.Fatal(err)
	}
	gap := mBG.UsefulWorkFraction - mBL.UsefulWorkFraction
	// Expected extra overhead per 30-min cycle: the 131 s FS write.
	want := bl.CheckpointFSWriteTime() / bl.CheckpointInterval
	if gap < want*0.5 || gap > want*1.5 {
		t.Fatalf("blocking-write gap = %v, want ≈ %v", gap, want)
	}
	if mBL.Counters.CheckpointsDumped == 0 || mBL.Counters.CheckpointsWritten == 0 {
		t.Fatalf("blocking mode did not checkpoint: %+v", mBL.Counters)
	}
}

// TestBlockingWriteSurvivesFailures: the blocking ablation must stay
// structurally sound under heavy failures (state machine does not wedge).
func TestBlockingWriteSurvivesFailures(t *testing.T) {
	cfg := cluster.Default()
	cfg.MTTFPerNode = cluster.Years(0.25)
	cfg.BlockingCheckpointWrite = true
	in := mustNew(t, cfg, 41)
	m, err := in.RunSteadyState(200, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters.ComputeFailures == 0 || m.Counters.CheckpointsDumped == 0 {
		t.Fatalf("blocking run degenerate: %+v", m.Counters)
	}
	if m.UsefulWorkFraction <= 0 || m.UsefulWorkFraction >= 1 {
		t.Fatalf("fraction = %v", m.UsefulWorkFraction)
	}
}

// TestNoBufferedRecoveryHurts: ignoring the I/O-node buffers forces stage-1
// recovery and larger rollbacks, so the fraction must drop.
func TestNoBufferedRecoveryHurts(t *testing.T) {
	base := cluster.Default() // MTTF 1yr, plenty of failures
	with := mustNew(t, base, 42)
	mWith, err := with.RunSteadyState(500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	no := base
	no.NoBufferedRecovery = true
	without := mustNew(t, no, 42)
	mWithout, err := without.RunSteadyState(500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if mWithout.UsefulWorkFraction >= mWith.UsefulWorkFraction {
		t.Fatalf("no-buffer recovery did not hurt: %v vs %v",
			mWithout.UsefulWorkFraction, mWith.UsefulWorkFraction)
	}
}

// TestNoBufferedRecoveryAlwaysStage1: a failure right after a dump must
// enter stage 1 despite the fresh buffer.
func TestNoBufferedRecoveryAlwaysStage1(t *testing.T) {
	cfg := reliable()
	cfg.NoBufferedRecovery = true
	in := mustNew(t, cfg, 43)
	in.Advance(0.6) // past the first checkpoint; buffer exists
	if in.Snapshot()["chkpt_buffered"] != 1 {
		t.Fatal("no buffered checkpoint to ignore")
	}
	in.computeFailure(in.sim.CurrentMarking())
	snap := in.Snapshot()
	if snap["recovery_stage1"] != 1 || snap["recovery_stage2"] != 0 {
		t.Fatalf("recovery should ignore the buffer: %v", snap)
	}
}

// TestNoBufferedRecoveryRollsBackToDurable: work secured only by the buffer
// is lost when the buffer is not used for recovery.
func TestNoBufferedRecoveryRollsBackToDurable(t *testing.T) {
	cfg := reliable()
	cfg.NoBufferedRecovery = true
	in := mustNew(t, cfg, 44)
	// Step into the window after the first dump but before its FS write
	// completes: capB > capD.
	for in.Now() < 2 && in.SecuredBuffered() <= in.SecuredDurable() {
		if !in.sim.Step() {
			break
		}
	}
	if in.SecuredBuffered() <= in.SecuredDurable() {
		t.Skip("no buffered-ahead window observed")
	}
	durable := in.SecuredDurable()
	in.computeFailure(in.sim.CurrentMarking())
	if got := in.Useful(); got != durable {
		t.Fatalf("useful after failure = %v, want durable level %v", got, durable)
	}
}

// TestBlockingWriteStateHasFsWaitExclusive: fs_wait participates in the
// compute-unit state exclusivity.
func TestBlockingWriteStateExclusive(t *testing.T) {
	cfg := cluster.Default()
	cfg.BlockingCheckpointWrite = true
	cfg.MTTFPerNode = cluster.Years(0.5)
	in := mustNew(t, cfg, 45)
	for step := 0; step < 2000; step++ {
		if !in.sim.Step() {
			break
		}
		snap := in.Snapshot()
		if snap["execution"]+snap["quiescing"]+snap["checkpointing"]+snap["fs_wait"] > 1 {
			t.Fatalf("compute unit in two states at t=%v: %v", in.Now(), snap)
		}
		if snap["fs_wait"] == 1 && snap["master_checkpointing"] != 1 {
			t.Fatalf("fs_wait without master in protocol at t=%v: %v", in.Now(), snap)
		}
	}
}
