package model

import (
	"testing"

	"repro/internal/cluster"
)

// TestPermanentFailuresExtendRecovery: the extension's reconfiguration
// time lengthens recoveries and lowers the useful-work fraction.
func TestPermanentFailuresExtendRecovery(t *testing.T) {
	base := cluster.Default()
	plain := mustNew(t, base, 70)
	mPlain, err := plain.RunSteadyState(300, 2500)
	if err != nil {
		t.Fatal(err)
	}
	perm := base
	perm.ProbPermanentFailure = 0.5
	perm.ReconfigurationTime = cluster.Minutes(30)
	pin := mustNew(t, perm, 70)
	mPerm, err := pin.RunSteadyState(300, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if mPerm.Counters.PermanentFailures == 0 {
		t.Fatal("no permanent failures recorded at p=0.5")
	}
	// Roughly half the failures should be permanent.
	ratio := float64(mPerm.Counters.PermanentFailures) / float64(mPerm.Counters.ComputeFailures)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("permanent ratio = %v, want ≈0.5", ratio)
	}
	if mPerm.UsefulWorkFraction >= mPlain.UsefulWorkFraction {
		t.Fatalf("reconfiguration did not hurt: %v vs %v",
			mPerm.UsefulWorkFraction, mPlain.UsefulWorkFraction)
	}
	if mPerm.Breakdown.Recovery <= mPlain.Breakdown.Recovery {
		t.Fatalf("recovery share did not grow: %v vs %v",
			mPerm.Breakdown.Recovery, mPlain.Breakdown.Recovery)
	}
}

// TestPermanentFlagClearedByRecovery: a successful recovery consumes the
// pending reconfiguration.
func TestPermanentFlagClearedByRecovery(t *testing.T) {
	cfg := reliable()
	cfg.ProbPermanentFailure = 1.0
	cfg.ReconfigurationTime = cluster.Minutes(5)
	in := mustNew(t, cfg, 71)
	in.Advance(0.6)
	in.computeFailure(in.sim.CurrentMarking())
	if in.Snapshot()["reconfig_needed"] != 1 {
		t.Fatal("permanent failure did not set reconfig_needed at p=1")
	}
	// Run until recovery completes.
	in.Advance(in.Now() + 5)
	snap := in.Snapshot()
	if snap["sys_up"] != 1 {
		t.Fatalf("system did not recover: %v", snap)
	}
	if snap["reconfig_needed"] != 0 {
		t.Fatal("reconfig_needed not cleared by successful recovery")
	}
}

// TestPermanentDisabledByDefault: the paper's model (p=0) never flags
// permanent failures.
func TestPermanentDisabledByDefault(t *testing.T) {
	in := mustNew(t, cluster.Default(), 72)
	m, err := in.RunSteadyState(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters.PermanentFailures != 0 {
		t.Fatalf("permanent failures with p=0: %d", m.Counters.PermanentFailures)
	}
}

// TestPermanentValidation: the config demands a positive reconfiguration
// time when the probability is set.
func TestPermanentValidation(t *testing.T) {
	cfg := cluster.Default()
	cfg.ProbPermanentFailure = 0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("missing reconfiguration time accepted")
	}
	cfg.ReconfigurationTime = cluster.Minutes(10)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid extension config rejected: %v", err)
	}
	cfg.ProbPermanentFailure = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("probability > 1 accepted")
	}
}
