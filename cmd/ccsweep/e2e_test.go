package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMain doubles as the worker-process entry point for the e2e test:
// when CCSWEEP_E2E_WORKER is set the binary behaves as a plain
// `ccsweep -worker` invocation instead of running the test suite, so the
// crash/resume test below can launch real, separately killable worker
// processes without building anything.
func TestMain(m *testing.M) {
	if dir := os.Getenv("CCSWEEP_E2E_WORKER"); dir != "" {
		args := []string{"-worker", dir, "-workers", "1",
			"-worker-name", os.Getenv("CCSWEEP_E2E_NAME"), "-lease-ttl", "1s"}
		if hb := os.Getenv("CCSWEEP_E2E_HEARTBEAT"); hb != "" {
			args = append(args, "-heartbeat-every", hb)
		}
		if err := run(args, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "e2e worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCrashResumeBitIdentical is the process-level half of the sweep
// engine's determinism contract, run across two scenarios and a
// completion forecast: plan into a run directory, let two real worker
// processes race over it, SIGKILL one mid-block, repair with -resume, let
// a fresh worker finish, and require the reduced output to equal the
// monolithic run's — and, for the sweeps, the reduced journal to be
// byte-identical (timestamp fields aside) to the monolithic journal.
func TestCrashResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash test")
	}
	for _, scen := range []string{"base", "max-of-n"} {
		t.Run(scen, func(t *testing.T) {
			crashResume(t, true, "-scenario", scen, "-param", "procs", "-values", "65536,131072",
				"-reps", "3", "-warmup", "100", "-measure", "30000", "-seed", "42")
		})
	}
	t.Run("completion", func(t *testing.T) {
		crashResume(t, false, "-work", "200000", "-values", "65536,131072", "-reps", "3", "-seed", "42")
	})
}

func crashResume(t *testing.T, journals bool, sweep ...string) {
	dir := t.TempDir()
	runDir := filepath.Join(dir, "run")
	mono := filepath.Join(dir, "mono.jsonl")
	reduced := filepath.Join(dir, "reduced.jsonl")

	// Reference: the monolithic run.
	monoArgs := sweep
	if journals {
		monoArgs = append(sweep, "-journal", mono)
	}
	var monoOut, reducedOut bytes.Buffer
	if err := run(monoArgs, &monoOut); err != nil {
		t.Fatal(err)
	}
	// Plan the identical run into a shared run directory.
	if err := run(append(sweep, "-manifest", runDir, "-block-size", "1"), os.Stdout); err != nil {
		t.Fatal(err)
	}

	// Two worker processes race over the directory; the victim is killed
	// as soon as it has claimed a block, so it dies holding a lease (and
	// possibly mid-journal-write).
	victim := workerProc(t, runDir, "victim")
	survivor := workerProc(t, runDir, "survivor")
	killWhenLeased(t, runDir, "victim", victim)
	if err := survivor.Wait(); err != nil {
		t.Fatalf("surviving worker: %v", err)
	}

	// Repair and finish. -resume drops whatever the crash left behind
	// (torn journal, expired lease, temp files); the rescuer re-runs any
	// reclaimed blocks. Both are no-ops when the survivor already
	// reclaimed everything — the output must be identical either way.
	if err := run([]string{"-resume", runDir}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	rescuer := workerProc(t, runDir, "rescuer")
	if err := rescuer.Wait(); err != nil {
		t.Fatalf("rescuer worker: %v", err)
	}

	if err := run([]string{"-reduce", runDir, "-journal", reduced}, &reducedOut); err != nil {
		t.Fatal(err)
	}
	if reducedOut.String() != monoOut.String() {
		t.Errorf("reduced output differs from monolithic run\nmonolithic:\n%s\nreduced:\n%s", &monoOut, &reducedOut)
	}
	if !journals {
		return
	}
	want, got := readStripped(t, mono), readStripped(t, reduced)
	if want != got {
		t.Errorf("reduced journal differs from monolithic run\nmonolithic:\n%s\nreduced:\n%s", want, got)
	}
}

// workerProc launches this test binary as a detached ccsweep worker.
func workerProc(t *testing.T, runDir, name string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "CCSWEEP_E2E_WORKER="+runDir, "CCSWEEP_E2E_NAME="+name)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// killWhenLeased SIGKILLs the worker process the moment a lease naming it
// appears, so the kill lands while it is executing a block. If the worker
// outruns the poll and exits cleanly, the run simply has no crash to
// recover — the identity check still stands.
func killWhenLeased(t *testing.T, runDir, name string, cmd *exec.Cmd) {
	t.Helper()
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			t.Logf("%s finished before the kill landed", name)
			return
		default:
		}
		if leaseHeldBy(runDir, name) {
			if err := cmd.Process.Signal(syscall.SIGKILL); err == nil {
				t.Logf("killed %s mid-block", name)
			}
			<-exited
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s neither claimed a block nor exited", name)
}

// leaseHeldBy reports whether any live lease file names the worker.
func leaseHeldBy(runDir, name string) bool {
	entries, err := os.ReadDir(filepath.Join(runDir, "leases"))
	if err != nil {
		return false
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(runDir, "leases", e.Name()))
		if err == nil && strings.Contains(string(data), `"worker":"`+name+`"`) {
			return true
		}
	}
	return false
}

// readStripped loads a journal with the wall-clock fields blanked — the
// only fields the engine does not promise to reproduce bit for bit.
func readStripped(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, f := range obs.TimestampFields {
		re := regexp.MustCompile(`"` + f + `":("[^"]*"|[0-9.e+-]+)`)
		s = re.ReplaceAllString(s, `"`+f+`":X`)
	}
	return s
}
