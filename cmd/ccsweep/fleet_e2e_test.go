package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/blocks"
	"repro/internal/obs"
)

// TestFleetTelemetryEndToEnd is the observability counterpart of
// TestCrashResumeBitIdentical: two real worker processes run a planned
// sweep, one is SIGKILLed mid-block, and the run directory's telemetry
// must tell the whole story afterwards — the victim flagged dead from
// heartbeat age with its last flight-recorder snapshot intact (SIGKILL
// runs no handler; the last periodic heartbeat IS the postmortem), the
// survivor's final snapshot saying "done", the -fleet JSON and -timeline
// trace-event export well-formed, and the merged fleet metrics rendering
// as valid Prometheus exposition text.
func TestFleetTelemetryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process telemetry test")
	}
	dir := t.TempDir()
	runDir := filepath.Join(dir, "run")
	// Each block must outlast the heartbeat wait before the kill (4
	// intervals), so that the kill lands mid-block.
	if err := run([]string{"-param", "procs", "-values", "65536,131072",
		"-reps", "2", "-warmup", "100", "-measure", "100000", "-seed", "7",
		"-manifest", runDir, "-block-size", "1"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	const hbEvery = 50 * time.Millisecond

	victim := fleetWorkerProc(t, runDir, "victim", hbEvery)
	survivor := fleetWorkerProc(t, runDir, "survivor", hbEvery)

	// Kill the victim only after it holds a lease AND a heartbeat carrying
	// that claim has had time to flush — the postmortem must be on disk
	// before the SIGKILL, because nothing runs after it.
	killAfterHeartbeat(t, runDir, "victim", victim, hbEvery)
	if err := survivor.Wait(); err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	// The survivor reclaims the victim's block after the 1s lease TTL, so
	// by now the victim's last heartbeat is far older than its dead
	// threshold (6 intervals = 300ms).

	now := time.Now()
	m, st, fl, err := blocks.CollectFleet(runDir, now)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatalf("sweep not complete after survivor exit: %+v", st)
	}
	byName := map[string]blocks.FleetWorker{}
	for _, fw := range fl.Workers {
		byName[fw.Worker] = fw
	}
	v, ok := byName["victim"]
	if !ok {
		t.Fatalf("victim left no heartbeat; fleet = %+v", fl.Workers)
	}
	if v.Health != blocks.WorkerDead || v.Final {
		t.Fatalf("victim = health %q final %v, want dead without a final snapshot", v.Health, v.Final)
	}
	var sawClaim bool
	for _, fe := range v.Flight {
		if fe.Kind == "claim" {
			sawClaim = true
		}
	}
	if !sawClaim {
		t.Fatalf("victim postmortem flight ring lacks its claim: %+v", v.Flight)
	}
	s, ok := byName["survivor"]
	if !ok || s.Health != blocks.WorkerExited || s.Reason != "done" {
		t.Fatalf("survivor = %+v, want exited/done", s.Heartbeat)
	}
	if s.Metrics == nil || s.Metrics.Counters["runner.events"] == 0 {
		t.Fatalf("survivor heartbeat carries no metrics registry: %+v", s.Metrics)
	}
	if s.Completed == 0 || s.Completed+s.SkippedComplete+v.Completed < st.Planned {
		t.Fatalf("fleet progress inconsistent: survivor %+v victim %+v planned %d",
			s.Heartbeat, v.Heartbeat, st.Planned)
	}

	// -fleet emits one valid JSON document naming both workers.
	var fleetBuf bytes.Buffer
	if err := fleetCmd(runDir, &fleetBuf); err != nil {
		t.Fatal(err)
	}
	var fleetDoc struct {
		Done  bool         `json:"done"`
		Fleet blocks.Fleet `json:"fleet"`
	}
	if err := json.Unmarshal(fleetBuf.Bytes(), &fleetDoc); err != nil {
		t.Fatalf("-fleet output not JSON: %v\n%s", err, fleetBuf.String())
	}
	if !fleetDoc.Done || len(fleetDoc.Fleet.Workers) != 2 {
		t.Fatalf("-fleet doc = %+v", fleetDoc)
	}

	// -timeline emits trace-event JSON: one named track per worker and a
	// complete span for every committed block.
	var tlBuf bytes.Buffer
	if err := blocks.WriteTimeline(&tlBuf, runDir, now); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Ts    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			Tid   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tlBuf.Bytes(), &trace); err != nil {
		t.Fatalf("-timeline output not JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
	tracks := map[string]bool{}
	blockSpans := map[float64]bool{}
	for _, ev := range trace.TraceEvents {
		switch {
		case ev.Phase == "M" && ev.Name == "thread_name":
			name, _ := ev.Args["name"].(string)
			tracks[name] = true
		case ev.Phase == "X" && strings.HasPrefix(ev.Name, "block "):
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("span out of range: %+v", ev)
			}
			if id, ok := ev.Args["block"].(float64); ok {
				blockSpans[id] = true
			}
		}
	}
	if !tracks["victim"] || !tracks["survivor"] {
		t.Fatalf("timeline tracks = %v, want victim and survivor", tracks)
	}
	if len(blockSpans) != st.Planned {
		t.Fatalf("timeline covers %d committed blocks, want %d (%v)", len(blockSpans), st.Planned, blockSpans)
	}

	// The merged fleet registry renders as valid Prometheus text
	// exposition — what /metricz.prom serves on a live worker.
	if fl.Metrics == nil {
		t.Fatalf("fleet merged no metrics (err %q)", fl.MetricsErr)
	}
	var promBuf bytes.Buffer
	if err := obs.WriteProm(&promBuf, *fl.Metrics); err != nil {
		t.Fatal(err)
	}
	promLine := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? (NaN|[+-]?Inf|[0-9eE.+-]+)$`)
	sc := bufio.NewScanner(&promBuf)
	var sawEvents bool
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
		if strings.HasPrefix(line, "runner_events ") {
			sawEvents = true
		}
	}
	if !sawEvents {
		t.Fatal("merged exposition lacks runner_events")
	}
	_ = m
}

// fleetWorkerProc launches this test binary as a ccsweep worker with a
// fast heartbeat cadence.
func fleetWorkerProc(t *testing.T, runDir, name string, hb time.Duration) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"CCSWEEP_E2E_WORKER="+runDir,
		"CCSWEEP_E2E_NAME="+name,
		"CCSWEEP_E2E_HEARTBEAT="+hb.String())
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd
}

// killAfterHeartbeat waits for the worker to hold a lease, lets a few
// heartbeat intervals elapse so the claim reaches the on-disk flight ring,
// then SIGKILLs it if it still holds a lease.
func killAfterHeartbeat(t *testing.T, runDir, name string, cmd *exec.Cmd, hb time.Duration) {
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
			time.Sleep(4 * hb)
			if !leaseHeldBy(runDir, name) {
				continue // the block ended during the wait: kill during the next one
			}
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
