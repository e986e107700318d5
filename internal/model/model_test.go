package model

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

// reliable returns a config whose failure processes are effectively off,
// for isolating the checkpointing mechanics.
func reliable() cluster.Config {
	cfg := cluster.Default()
	cfg.MTTFPerNode = cluster.Years(1e9)
	return cfg
}

func mustNew(t *testing.T, cfg cluster.Config, seed uint64) *Instance {
	t.Helper()
	in, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestModelHasAllSubmodels is the Table 1 structural check: every submodel
// of the paper is represented by its places and activities.
func TestModelHasAllSubmodels(t *testing.T) {
	cfg := cluster.Default()
	cfg.Timeout = cluster.Seconds(60)
	cfg.ProbCorrelated = 0.1
	cfg.CorrelatedFactor = 400
	in := mustNew(t, cfg, 1)

	wantPlaces := map[string][]string{
		"compute_nodes":      {"execution", "quiescing", "checkpointing"},
		"app_workload":       {"app_compute", "app_io"},
		"master":             {"master_sleep", "master_checkpointing", "timedout"},
		"coordination":       {"complete_coordination"},
		"io_nodes":           {"ionode_idle", "writing_chkpt", "writing_appdata", "enable_chkpt", "chkpt_buffered"},
		"comp_node_recovery": {"recovery_stage1", "recovery_stage2", "recovery_failures"},
		"io_node_recovery":   {"io_restarting"},
		"system_reboot":      {"rebooting"},
		"correlated":         {"corr_window"},
		"failure_flags":      {"sys_up", "io_up"},
	}
	for sub, names := range wantPlaces {
		for _, n := range names {
			if in.Model().LookupPlace(n) == nil {
				t.Errorf("submodel %s: place %q missing", sub, n)
			}
		}
	}

	wantActs := []string{
		"checkpoint_trigger", "recv_quiesce", "master_timer", "coord",
		"coordinate", "skip_chkpt", "timeout_clear", "dump_chkpt",
		"app_compute_end", "app_io_end",
		"start_write_chkpt", "write_chkpt", "start_write_appdata", "write_appdata",
		"comp_failure", "recover_stage1", "recover_stage2", "recovery_failure",
		"io_failure", "io_restart", "reboot", "corr_window_end",
	}
	have := map[string]bool{}
	for _, a := range in.Model().Activities() {
		have[a.Name] = true
	}
	for _, n := range wantActs {
		if !have[n] {
			t.Errorf("activity %q missing", n)
		}
	}
}

func TestRejectsInvalidConfig(t *testing.T) {
	cfg := cluster.Default()
	cfg.Processors = -1
	if _, err := New(cfg, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRejectsInvalidWindow(t *testing.T) {
	in := mustNew(t, reliable(), 1)
	if _, err := in.RunSteadyState(-1, 10); err == nil {
		t.Error("negative warmup accepted")
	}
	if _, err := in.RunSteadyState(0, 0); err == nil {
		t.Error("zero measure accepted")
	}
}

// TestFailureFreeFraction checks the pure checkpoint-overhead fraction:
// interval / (interval + E[wait for app IO] + quiesce + dump) ≈ 0.969 for
// Table 3 defaults with the fixed quiesce time of the base model.
func TestFailureFreeFraction(t *testing.T) {
	in := mustNew(t, reliable(), 2)
	m, err := in.RunSteadyState(200, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if m.UsefulWorkFraction < 0.960 || m.UsefulWorkFraction > 0.975 {
		t.Fatalf("failure-free fraction = %v, want ≈0.969", m.UsefulWorkFraction)
	}
	if m.Counters.ComputeFailures != 0 || m.Counters.Reboots != 0 {
		t.Fatalf("reliable system had failures: %+v", m.Counters)
	}
	// One checkpoint per ~31 min over 2200 h ⇒ ≈ 4270 dumps (count includes
	// the warmup window; counters span the whole trajectory).
	if m.Counters.CheckpointsDumped < 4000 || m.Counters.CheckpointsDumped > 4500 {
		t.Fatalf("checkpoints dumped = %d, want ≈4270", m.Counters.CheckpointsDumped)
	}
	// Every dumped checkpoint gets written to the file system eventually.
	written := m.Counters.CheckpointsWritten
	if written < m.Counters.CheckpointsDumped-1 || written > m.Counters.CheckpointsDumped {
		t.Fatalf("written=%d vs dumped=%d", written, m.Counters.CheckpointsDumped)
	}
}

func TestPureComputeWorkloadHasNoIOPhases(t *testing.T) {
	cfg := reliable()
	cfg.ComputeFraction = 1.0
	in := mustNew(t, cfg, 3)
	m, err := in.RunSteadyState(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Without foreground I/O waits the overhead is just quiesce + dump.
	interval := cfg.CheckpointInterval
	want := interval / (interval + cfg.MTTQ + cfg.CheckpointDumpTime())
	if math.Abs(m.UsefulWorkFraction-want) > 0.003 {
		t.Fatalf("pure-compute fraction = %v, want ≈%v", m.UsefulWorkFraction, want)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := cluster.Default()
	cfg.ProbCorrelated = 0.1
	cfg.CorrelatedFactor = 400
	cfg.Timeout = cluster.Seconds(90)
	cfg.Coordination = cluster.CoordMaxOfN
	a := mustNew(t, cfg, 77)
	b := mustNew(t, cfg, 77)
	ma, err := a.RunSteadyState(500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.RunSteadyState(500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if ma.UsefulWorkFraction != mb.UsefulWorkFraction || ma.Counters != mb.Counters {
		t.Fatalf("same seed diverged: %v vs %v", ma, mb)
	}
	c := mustNew(t, cfg, 78)
	mc, err := c.RunSteadyState(500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Counters == ma.Counters {
		t.Fatal("different seeds produced identical trajectories")
	}
}

// TestFailuresReduceUsefulWork: the defining property of the useful-work
// measure — work since the last checkpoint is subtracted on failure.
func TestFailuresReduceUsefulWork(t *testing.T) {
	cfg := cluster.Default() // MTTF 1 yr, 8192 nodes: ~0.93 failures/h
	in := mustNew(t, cfg, 4)
	m, err := in.RunSteadyState(1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters.ComputeFailures == 0 {
		t.Fatal("expected failures at MTTF 1yr with 8K nodes")
	}
	rel := mustNew(t, reliable(), 4)
	mRel, err := rel.RunSteadyState(1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if m.UsefulWorkFraction >= mRel.UsefulWorkFraction-0.1 {
		t.Fatalf("failures barely hurt: %v vs reliable %v", m.UsefulWorkFraction, mRel.UsefulWorkFraction)
	}
	// Paper Section 7.1: at 64K processors, MTTF 1 yr, the useful work
	// fraction is well above the 128K peak value but far below 1.
	if m.UsefulWorkFraction < 0.5 || m.UsefulWorkFraction > 0.8 {
		t.Fatalf("64K fraction = %v, expected ~0.6–0.7", m.UsefulWorkFraction)
	}
}

// TestBaseModelHeadline reproduces the paper's headline claim (§7.1): with
// MTTF 1 yr per node, MTTR 10 min, interval 30 min, the total useful work
// peaks at an interior optimum (128K in the paper) and the fraction at the
// peak is below 50%.
func TestBaseModelHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	cfg := cluster.Default()
	scales := []int{64 * 1024, 128 * 1024, 256 * 1024}
	totals := make([]float64, len(scales))
	fracs := make([]float64, len(scales))
	for i, n := range scales {
		c := cfg
		c.Processors = n
		// Two replications per point for stability.
		var sum float64
		for r := 0; r < 2; r++ {
			in := mustNew(t, c, uint64(100+10*i+r))
			m, err := in.RunSteadyState(1000, 4000)
			if err != nil {
				t.Fatal(err)
			}
			sum += m.TotalUsefulWork
		}
		totals[i] = sum / 2
		fracs[i] = totals[i] / float64(n)
	}
	if !(totals[1] > totals[0] && totals[1] > totals[2]) {
		t.Fatalf("no interior optimum at 128K: totals = %v", totals)
	}
	if fracs[1] >= 0.5 {
		t.Fatalf("fraction at peak = %v, paper says < 50%%", fracs[1])
	}
}

// TestRecoverySkipsStage1WhenBuffered: after a successful dump the
// checkpoint is buffered at the I/O nodes, so a compute failure goes
// straight to recovery stage 2 (Section 4).
func TestRecoverySkipsStage1WhenBuffered(t *testing.T) {
	cfg := reliable()
	in := mustNew(t, cfg, 5)
	// Run past one checkpoint so a buffered checkpoint exists.
	in.Advance(0.6)
	snap := in.Snapshot()
	if snap["chkpt_buffered"] != 1 {
		t.Fatalf("no buffered checkpoint after one interval: %v", snap)
	}
	// Inject a failure through the public failure path.
	in.computeFailure(in.sim.CurrentMarking())
	snap = in.Snapshot()
	if snap["recovery_stage1"] != 0 || snap["recovery_stage2"] != 1 {
		t.Fatalf("buffered recovery should skip stage 1: %v", snap)
	}
}

func TestRecoveryUsesStage1WithoutBuffer(t *testing.T) {
	cfg := reliable()
	in := mustNew(t, cfg, 6)
	in.Advance(0.01) // before the first checkpoint: nothing buffered
	if in.Snapshot()["chkpt_buffered"] != 0 {
		t.Fatal("unexpected buffered checkpoint")
	}
	in.computeFailure(in.sim.CurrentMarking())
	snap := in.Snapshot()
	if snap["recovery_stage1"] != 1 || snap["recovery_stage2"] != 0 {
		t.Fatalf("unbuffered recovery should start at stage 1: %v", snap)
	}
}

// TestUsefulWorkRollback: a failure subtracts exactly the work accrued
// since the buffered capture point.
func TestUsefulWorkRollback(t *testing.T) {
	cfg := reliable()
	in := mustNew(t, cfg, 7)
	in.Advance(0.6) // past the first checkpoint
	secured := in.SecuredBuffered()
	if secured <= 0 {
		t.Fatal("nothing secured after first checkpoint")
	}
	in.Advance(0.7) // accrue a bit more at-risk work
	preUseful := in.Useful()
	if preUseful <= secured {
		t.Fatal("no at-risk work accrued")
	}
	in.computeFailure(in.sim.CurrentMarking())
	if got := in.Useful(); math.Abs(got-secured) > 1e-9 {
		t.Fatalf("useful after failure = %v, want rollback to %v", got, secured)
	}
}

// TestCapOrderingInvariant: capD ≤ capB ≤ useful must hold throughout a
// long failure-heavy trajectory.
func TestCapOrderingInvariant(t *testing.T) {
	cfg := cluster.Default()
	cfg.MTTFPerNode = cluster.Years(0.5)
	cfg.ProbCorrelated = 0.2
	cfg.CorrelatedFactor = 800
	in := mustNew(t, cfg, 8)
	for step := 0; step < 200; step++ {
		in.Advance(float64(step) * 5)
		u, b, d := in.Useful(), in.SecuredBuffered(), in.SecuredDurable()
		if d > b+1e-9 || b > u+1e-9 {
			t.Fatalf("invariant broken at t=%v: durable=%v buffered=%v useful=%v", in.Now(), d, b, u)
		}
	}
}

// TestTimeoutAbortsCheckpoints: with max-of-n coordination at 64K
// processors (E[Y] ≈ 116 s for MTTQ 10 s) a 20-second timeout aborts
// essentially every checkpoint (Figure 6's collapse region).
func TestTimeoutAbortsCheckpoints(t *testing.T) {
	cfg := reliable()
	cfg.Coordination = cluster.CoordMaxOfN
	cfg.Timeout = cluster.Seconds(20)
	in := mustNew(t, cfg, 9)
	m, err := in.RunSteadyState(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters.CheckpointAborts == 0 {
		t.Fatal("no aborts with a 20s timeout at 64K processors")
	}
	if m.Counters.CheckpointsDumped > m.Counters.CheckpointAborts/10 {
		t.Fatalf("expected nearly all aborts: dumped=%d aborts=%d",
			m.Counters.CheckpointsDumped, m.Counters.CheckpointAborts)
	}
}

// TestGenerousTimeoutNeverAborts: a 10-minute timeout is far above the
// coordination scale, so no aborts occur (Figure 6's insensitive region).
func TestGenerousTimeoutNeverAborts(t *testing.T) {
	cfg := reliable()
	cfg.Coordination = cluster.CoordMaxOfN
	cfg.Timeout = cluster.Minutes(10)
	in := mustNew(t, cfg, 10)
	m, err := in.RunSteadyState(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters.CheckpointAborts != 0 {
		t.Fatalf("aborts with generous timeout: %d", m.Counters.CheckpointAborts)
	}
	if m.Counters.CheckpointsDumped == 0 {
		t.Fatal("no checkpoints at all")
	}
}

// TestCoordinationCostGrowsWithN: under max-of-n coordination the
// failure-free useful fraction decreases with processor count (Figure 5).
func TestCoordinationCostGrowsWithN(t *testing.T) {
	fractions := make([]float64, 0, 3)
	for i, n := range []int{1024, 64 * 1024, 4 * 1024 * 1024} {
		cfg := reliable()
		cfg.Coordination = cluster.CoordMaxOfN
		cfg.Processors = n
		in := mustNew(t, cfg, uint64(20+i))
		m, err := in.RunSteadyState(100, 1500)
		if err != nil {
			t.Fatal(err)
		}
		fractions = append(fractions, m.UsefulWorkFraction)
	}
	if !(fractions[0] > fractions[1] && fractions[1] > fractions[2]) {
		t.Fatalf("coordination cost not increasing in n: %v", fractions)
	}
}

// TestIOFailureDuringCheckpointWriteDoesNotStopCompute: an I/O failure
// while writing a checkpoint aborts the write and restarts the I/O nodes,
// but the compute nodes keep working (Section 3.4).
func TestIOFailureDuringCheckpointWrite(t *testing.T) {
	cfg := reliable()
	in := mustNew(t, cfg, 11)
	// Advance into the FS-write window right after the first dump. The
	// first trigger fires at ~0.5h; dump completes ~57s later; the write
	// takes 131s. Step until writing_chkpt is marked.
	for in.Now() < 2 && in.Snapshot()["writing_chkpt"] == 0 {
		if !in.sim.Step() {
			break
		}
	}
	if in.Snapshot()["writing_chkpt"] != 1 {
		t.Fatal("never observed a checkpoint FS write")
	}
	buffered := in.SecuredBuffered()
	durable := in.SecuredDurable()
	if buffered <= durable {
		t.Fatal("expected buffered checkpoint ahead of durable")
	}
	in.ioFailure(in.sim.CurrentMarking())
	snap := in.Snapshot()
	if snap["execution"] != 1 || snap["sys_up"] != 1 {
		t.Fatalf("compute side affected by checkpoint-write I/O failure: %v", snap)
	}
	if snap["io_restarting"] != 1 || snap["io_up"] != 0 {
		t.Fatalf("I/O nodes not restarting: %v", snap)
	}
	if snap["chkpt_buffered"] != 0 {
		t.Fatal("buffer survived I/O restart")
	}
	if in.SecuredBuffered() != durable {
		t.Fatalf("buffered capture should revert to durable %v, got %v", durable, in.SecuredBuffered())
	}
}

// TestIOFailureDuringAppDataWriteRollsBack: application results are lost
// and the system rolls back to the last checkpoint (Section 3.4).
func TestIOFailureDuringAppDataWrite(t *testing.T) {
	cfg := reliable()
	in := mustNew(t, cfg, 12)
	for in.Now() < 2 && in.Snapshot()["writing_appdata"] == 0 {
		if !in.sim.Step() {
			break
		}
	}
	if in.Snapshot()["writing_appdata"] != 1 {
		t.Fatal("never observed an application-data FS write")
	}
	in.ioFailure(in.sim.CurrentMarking())
	snap := in.Snapshot()
	if snap["sys_up"] != 0 {
		t.Fatalf("compute side kept running after app-data loss: %v", snap)
	}
	if snap["recovery_stage1"] != 1 {
		t.Fatalf("rollback should need stage-1 recovery (buffer lost): %v", snap)
	}
}

// TestRebootAfterThreshold: consecutive recovery failures beyond the
// threshold trigger a whole-system reboot, after which compute nodes read
// the durable checkpoint (stage 1).
func TestRebootAfterThreshold(t *testing.T) {
	cfg := reliable()
	cfg.SevereFailureThreshold = 3
	in := mustNew(t, cfg, 13)
	in.Advance(0.6)
	mk := in.sim.CurrentMarking()
	in.computeFailure(mk)
	for i := 0; i < 3; i++ {
		if in.Snapshot()["rebooting"] == 1 {
			break
		}
		// Simulate a recovery failure by driving the same path the
		// recovery_failure activity takes.
		in.counters.RecoveryFailures++
		mk.Add(in.pl.recoveryFailures, 1)
		if mk.Get(in.pl.recoveryFailures) >= cfg.SevereFailureThreshold {
			in.startReboot(mk)
		}
	}
	snap := in.Snapshot()
	if snap["rebooting"] != 1 {
		t.Fatalf("no reboot after %d recovery failures: %v", cfg.SevereFailureThreshold, snap)
	}
	if snap["sys_up"] != 0 || snap["io_up"] != 0 {
		t.Fatalf("reboot should take the whole system down: %v", snap)
	}
	if in.Counters().Reboots != 1 {
		t.Fatalf("reboot counter = %d", in.Counters().Reboots)
	}
}

// TestCorrelatedWindowRaisesFailureRate: with pe=1 and a large factor,
// every failure opens a window and failures cluster, so the same horizon
// sees far more failures than the independent case.
func TestCorrelatedWindowRaisesFailureRate(t *testing.T) {
	base := cluster.Default()
	base.MTTFPerNode = cluster.Years(3)
	indep := mustNew(t, base, 14)
	mi, err := indep.RunSteadyState(500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	corr := base
	corr.ProbCorrelated = 1.0
	corr.CorrelatedFactor = 1600
	cin := mustNew(t, corr, 14)
	mc, err := cin.RunSteadyState(500, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Counters.CorrWindows == 0 {
		t.Fatal("no correlated windows opened with pe=1")
	}
	totalIndep := mi.Counters.ComputeFailures + mi.Counters.RecoveryFailures
	totalCorr := mc.Counters.ComputeFailures + mc.Counters.RecoveryFailures
	if totalCorr <= totalIndep {
		t.Fatalf("correlated failures did not increase failure count: %d vs %d", totalCorr, totalIndep)
	}
}

// TestErrorPropagationBarelyMovesFraction reproduces the Figure 7 claim:
// correlated failures due to error propagation (windows during recovery)
// change the useful-work fraction only slightly.
func TestErrorPropagationBarelyMovesFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("long comparison run")
	}
	base := cluster.Default()
	base.Processors = 64 * 1024
	base.MTTFPerNode = cluster.Years(3)
	indep := mustNew(t, base, 15)
	mi, err := indep.RunSteadyState(1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	corr := base
	corr.ProbCorrelated = 0.2
	corr.CorrelatedFactor = 1600
	cin := mustNew(t, corr, 15)
	mc, err := cin.RunSteadyState(1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(mi.UsefulWorkFraction - mc.UsefulWorkFraction); diff > 0.08 {
		t.Fatalf("error propagation moved fraction by %v; paper says the effect is small", diff)
	}
}

// TestGenericCorrelatedDegradesFraction reproduces the Figure 8 claim: the
// doubled failure rate of generic correlated failures (r=400, α=0.0025)
// causes a large drop in useful-work fraction.
func TestGenericCorrelatedDegradesFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("long comparison run")
	}
	base := cluster.Default()
	base.Processors = 128 * 1024
	base.MTTFPerNode = cluster.Years(3)
	indep := mustNew(t, base, 16)
	mi, err := indep.RunSteadyState(1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	gen := base
	gen.CorrelatedFactor = 400
	gen.GenericCorrelatedCoefficient = 0.0025
	gin := mustNew(t, gen, 16)
	mg, err := gin.RunSteadyState(1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if mg.UsefulWorkFraction >= mi.UsefulWorkFraction-0.05 {
		t.Fatalf("generic correlated failures barely hurt: %v vs %v",
			mg.UsefulWorkFraction, mi.UsefulWorkFraction)
	}
}

// TestStateExclusivity: the compute unit is in at most one of execution /
// quiescing / checkpointing, and all state places stay 0/1, throughout a
// failure-heavy run.
func TestStateExclusivity(t *testing.T) {
	cfg := cluster.Default()
	cfg.MTTFPerNode = cluster.Years(0.25)
	cfg.Timeout = cluster.Seconds(60)
	cfg.Coordination = cluster.CoordMaxOfN
	cfg.ProbCorrelated = 0.2
	cfg.CorrelatedFactor = 400
	in := mustNew(t, cfg, 17)
	flags := []string{
		"execution", "quiescing", "checkpointing", "app_compute", "app_io",
		"master_sleep", "master_checkpointing", "sys_up", "io_up",
		"recovery_stage1", "recovery_stage2", "rebooting", "io_restarting",
		"ionode_idle", "writing_chkpt", "writing_appdata", "chkpt_buffered",
	}
	for step := 0; step < 3000; step++ {
		if !in.sim.Step() {
			break
		}
		snap := in.Snapshot()
		for _, f := range flags {
			if snap[f] < 0 || snap[f] > 1 {
				t.Fatalf("place %s = %d at t=%v", f, snap[f], in.Now())
			}
		}
		if snap["execution"]+snap["quiescing"]+snap["checkpointing"]+snap["fs_wait"] > 1 {
			t.Fatalf("compute unit in two states at t=%v: %v", in.Now(), snap)
		}
		if snap["app_compute"]+snap["app_io"] > 1 {
			t.Fatalf("app in two phases at t=%v: %v", in.Now(), snap)
		}
		if snap["master_sleep"]+snap["master_checkpointing"] != 1 {
			t.Fatalf("master state broken at t=%v: %v", in.Now(), snap)
		}
		if snap["ionode_idle"]+snap["writing_chkpt"]+snap["writing_appdata"]+snap["io_restarting"]+snap["rebooting"] > 1 {
			t.Fatalf("I/O unit in two states at t=%v: %v", in.Now(), snap)
		}
		if snap["sys_up"] == 1 && (snap["recovery_stage1"]+snap["recovery_stage2"] > 0) {
			t.Fatalf("recovering while up at t=%v: %v", in.Now(), snap)
		}
	}
}

// TestCountersAdvance sanity-checks counter plumbing on a stressed system.
func TestCountersAdvance(t *testing.T) {
	cfg := cluster.Default()
	cfg.MTTFPerNode = cluster.Years(0.125)
	cfg.SevereFailureThreshold = 2 // make reboots reachable on this horizon
	in := mustNew(t, cfg, 18)
	m, err := in.RunSteadyState(100, 2000)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Counters
	if c.ComputeFailures == 0 || c.RecoveryFailures == 0 || c.Reboots == 0 ||
		c.CheckpointsDumped == 0 || c.IOFailures == 0 {
		t.Fatalf("expected all counters active on stressed system: %+v", c)
	}
	if m.UsefulWorkFraction <= 0 || m.UsefulWorkFraction >= 1 {
		t.Fatalf("fraction = %v out of (0,1)", m.UsefulWorkFraction)
	}
}

// TestMetricsString covers the human-readable rendering.
func TestMetricsString(t *testing.T) {
	in := mustNew(t, reliable(), 19)
	m, err := in.RunSteadyState(10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() == "" {
		t.Fatal("empty Metrics.String()")
	}
}

// TestNoTimeoutMeansNoTimerActivity: Timeout=0 disables the timer entirely.
func TestNoTimeoutMeansNoTimerActivity(t *testing.T) {
	in := mustNew(t, reliable(), 20)
	for _, a := range in.Model().Activities() {
		if a.Name == "master_timer" {
			t.Fatal("master_timer present with Timeout=0")
		}
	}
}

// TestCoordinationModes: the three modes produce ordered overheads at large
// n: fixed(MTTQ) ≈ exp(MTTQ) ≪ max-of-n.
func TestCoordinationModes(t *testing.T) {
	fracs := map[cluster.CoordinationMode]float64{}
	for i, mode := range []cluster.CoordinationMode{cluster.CoordFixed, cluster.CoordNone, cluster.CoordMaxOfN} {
		cfg := reliable()
		cfg.Processors = 256 * 1024
		cfg.Coordination = mode
		in := mustNew(t, cfg, uint64(30+i))
		m, err := in.RunSteadyState(100, 1500)
		if err != nil {
			t.Fatal(err)
		}
		fracs[mode] = m.UsefulWorkFraction
	}
	if fracs[cluster.CoordMaxOfN] >= fracs[cluster.CoordFixed] {
		t.Fatalf("max-of-n should cost more than fixed: %v", fracs)
	}
	if math.Abs(fracs[cluster.CoordFixed]-fracs[cluster.CoordNone]) > 0.01 {
		t.Fatalf("fixed and single-exponential quiesce should be close: %v", fracs)
	}
}
