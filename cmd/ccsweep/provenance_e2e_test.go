package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/blocks"
	"repro/internal/obs"
	"repro/internal/provenance"
)

// TestProvenanceAndProfilesEndToEnd is the sentinel half of the fleet e2e
// story: two real worker processes run a planned sweep, and afterwards the
// run directory must identify what produced it — every heartbeat stamped
// with the worker's binary provenance and the manifest hash it joined, a
// doctored stamp (as if a stale binary had joined the fleet) flagged by
// CollectFleet as a mixed-binary mismatch with the minority worker marked,
// and an armed ProfileCapture leaving parseable pprof files that
// obs.ReadProfiles (and therefore `cctop -run`) can list.
func TestProvenanceAndProfilesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process provenance test")
	}
	dir := t.TempDir()
	runDir := filepath.Join(dir, "run")
	if err := run([]string{"-param", "procs", "-values", "65536,131072",
		"-reps", "2", "-warmup", "100", "-measure", "20000", "-seed", "11",
		"-manifest", runDir, "-block-size", "1"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	m, err := blocks.LoadManifest(runDir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Provenance == nil {
		t.Fatal("CreateRun left the manifest unstamped")
	}

	const hbEvery = 50 * time.Millisecond
	alpha := fleetWorkerProc(t, runDir, "alpha", hbEvery)
	beta := fleetWorkerProc(t, runDir, "beta", hbEvery)
	if err := alpha.Wait(); err != nil {
		t.Fatalf("worker alpha: %v", err)
	}
	if err := beta.Wait(); err != nil {
		t.Fatalf("worker beta: %v", err)
	}

	// Uniform fleet: both heartbeats carry the same binary's stamp, with
	// ConfigHash proving which manifest each worker executed against.
	now := time.Now()
	_, st, fl, err := blocks.CollectFleet(runDir, now)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() {
		t.Fatalf("sweep not complete: %+v", st)
	}
	if len(fl.Workers) != 2 {
		t.Fatalf("fleet has %d workers, want 2", len(fl.Workers))
	}
	for _, fw := range fl.Workers {
		if fw.Provenance == nil {
			t.Fatalf("worker %s heartbeat carries no provenance stamp", fw.Worker)
		}
		if fw.Provenance.ConfigHash != m.Hash {
			t.Fatalf("worker %s stamp config %q, want manifest hash %q",
				fw.Worker, fw.Provenance.ConfigHash, m.Hash)
		}
		if fw.Provenance.GoVersion == "" || fw.Provenance.Goos == "" {
			t.Fatalf("worker %s stamp incomplete: %+v", fw.Worker, fw.Provenance)
		}
		if fw.ProvenanceOutlier {
			t.Fatalf("uniform fleet flagged worker %s as outlier", fw.Worker)
		}
	}
	if fl.ProvenanceMismatch {
		t.Fatalf("uniform fleet flagged as mismatched: %v", fl.Binaries)
	}
	if len(fl.Binaries) != 1 {
		t.Fatalf("uniform fleet tallies %d binaries: %v", len(fl.Binaries), fl.Binaries)
	}
	for _, n := range fl.Binaries {
		if n != 2 {
			t.Fatalf("binary tally = %v, want both workers under one id", fl.Binaries)
		}
	}

	// Doctor beta's heartbeat as if a worker built from another commit had
	// joined the run: the fleet view must refuse to present the directory
	// as homogeneous. With one worker per binary the majority vote ties and
	// falls back to the smaller BinaryID; test binaries report
	// "unversioned", so a revision sorting above it keeps alpha in the
	// majority and pins beta as the outlier.
	doctorHeartbeatSHA(t, runDir, "beta", "zfeedfacefeedfacefeedfacefeedfac")
	_, _, fl2, err := blocks.CollectFleet(runDir, now)
	if err != nil {
		t.Fatal(err)
	}
	if !fl2.ProvenanceMismatch || len(fl2.Binaries) != 2 {
		t.Fatalf("doctored fleet not flagged: mismatch=%v binaries=%v",
			fl2.ProvenanceMismatch, fl2.Binaries)
	}
	for _, fw := range fl2.Workers {
		wantOutlier := fw.Worker == "beta"
		if fw.ProvenanceOutlier != wantOutlier {
			t.Fatalf("worker %s outlier=%v, want %v", fw.Worker, fw.ProvenanceOutlier, wantOutlier)
		}
	}

	// An armed ProfileCapture drops parseable pprof files into the run
	// directory's profiles/ — the same location worker -profile-dir uses
	// and cctop -run lists.
	profiler := obs.NewProfileCapture(obs.ProfileCaptureOptions{
		Dir:    blocks.ProfileDir(runDir),
		Prefix: "sentinel",
		Window: 200 * time.Millisecond,
		Meta:   provenance.Collect().WithConfig(m.Hash),
	})
	if !profiler.Trigger("e2e") {
		t.Fatal("armed profiler refused the trigger")
	}
	profiler.Wait()
	infos, err := obs.ReadProfiles(blocks.ProfileDir(runDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("ReadProfiles found %d captures, want 1", len(infos))
	}
	info := infos[0]
	if info.Prefix != "sentinel" || info.Reason != "e2e" {
		t.Fatalf("capture = %+v", info)
	}
	var sawCPU, sawHeap bool
	for _, f := range info.Files {
		switch {
		case strings.HasSuffix(f, "-cpu.pprof"):
			sawCPU = true
		case strings.HasSuffix(f, "-heap.pprof"):
			sawHeap = true
		}
		if strings.HasSuffix(f, ".pprof") {
			checkPprof(t, filepath.Join(blocks.ProfileDir(runDir), f))
		}
	}
	if !sawCPU || !sawHeap {
		t.Fatalf("capture files = %v, want cpu and heap profiles", info.Files)
	}
}

// doctorHeartbeatSHA rewrites one worker's on-disk heartbeat with a foreign
// git revision, simulating a stale binary in the fleet.
func doctorHeartbeatSHA(t *testing.T, runDir, worker, sha string) {
	t.Helper()
	hbs, err := blocks.ReadHeartbeats(runDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, hb := range hbs {
		if hb.Worker != worker {
			continue
		}
		if hb.Provenance == nil {
			t.Fatalf("worker %s has no stamp to doctor", worker)
		}
		stamp := *hb.Provenance
		stamp.GitSHA = sha
		hb.Provenance = &stamp
		if err := blocks.WriteHeartbeat(runDir, hb); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no heartbeat for worker %s", worker)
}

// checkPprof verifies a capture is a well-formed pprof file: gzip-framed
// (runtime/pprof always compresses) and fully decompressible to a non-empty
// protobuf payload.
func checkPprof(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: not gzip-framed: %v", filepath.Base(path), err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("%s: truncated gzip stream: %v", filepath.Base(path), err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("%s: gzip checksum: %v", filepath.Base(path), err)
	}
	if len(raw) == 0 {
		t.Fatalf("%s: empty profile payload", filepath.Base(path))
	}
}
