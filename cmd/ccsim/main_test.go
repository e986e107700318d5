package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/provenance"
)

func TestRunDefaultsQuick(t *testing.T) {
	err := run([]string{"-reps", "1", "-warmup", "20", "-measure", "100", "-procs", "8192"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunVerboseAndModes(t *testing.T) {
	for _, mode := range []string{"fixed", "none", "max-of-n"} {
		err := run([]string{
			"-reps", "1", "-warmup", "10", "-measure", "50",
			"-procs", "8192", "-coordination", mode, "-v",
		})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
}

func TestRunCorrelatedFlags(t *testing.T) {
	err := run([]string{
		"-reps", "1", "-warmup", "10", "-measure", "50", "-procs", "8192",
		"-pe", "0.1", "-r", "400", "-alpha", "0.001", "-timeout-sec", "90",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelWithProgress(t *testing.T) {
	err := run([]string{
		"-reps", "2", "-warmup", "10", "-measure", "50", "-procs", "8192",
		"-workers", "2", "-progress",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunVerifySpans(t *testing.T) {
	err := run([]string{
		"-reps", "2", "-warmup", "20", "-measure", "100", "-procs", "8192",
		"-verify-spans",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	err := run([]string{"-coordination", "psychic"})
	if err == nil || !strings.Contains(err.Error(), "coordination") {
		t.Fatalf("bad mode accepted: %v", err)
	}
}

// -rare-level runs importance splitting, which has no replication journal,
// antithetic legs or phase spans: each of those flags is an error there,
// not silently ignored.
func TestRunRareLevelRejectsSteadyStateFlags(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "rare.jsonl")
	for _, tc := range []struct{ flags []string }{
		{[]string{"-journal", journal}},
		{[]string{"-vr", "antithetic"}},
		{[]string{"-verify-spans"}},
	} {
		args := append([]string{"-procs", "8192", "-rare-level", "1", "-rare-effort", "10", "-rare-horizon", "1"}, tc.flags...)
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), tc.flags[0]) {
			t.Errorf("%v with -rare-level: %v", tc.flags, err)
		}
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("-rare-level left a journal file behind: %v", err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run([]string{"-procs", "-5"}); err == nil {
		t.Fatal("negative processors accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunWithConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	content := `{"processors": 16384, "mttfYears": 2, "intervalMinutes": 15}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	// The file sets the base; explicit flags still override it.
	err := run([]string{"-config", path, "-reps", "1", "-warmup", "10", "-measure", "60", "-mttf-years", "4"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithMissingConfigFile(t *testing.T) {
	if err := run([]string{"-config", "/does/not/exist.json"}); err == nil {
		t.Fatal("missing config file accepted")
	}
}

func TestRunWithBrokenConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path}); err == nil {
		t.Fatal("broken config accepted")
	}
}

func TestRunJournalMetricsAndDebugAddr(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	err := run([]string{
		"-reps", "2", "-warmup", "20", "-measure", "100", "-procs", "8192",
		"-journal", journal, "-metrics", "-debug-addr", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 4 { // 1 provenance + 2 replications + 1 estimate
		t.Fatalf("journal has %d lines, want 4:\n%s", len(lines), data)
	}
	var rec map[string]any
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if i == 0 {
			if rec["kind"] != "provenance" || rec["config_hash"] == nil || rec["go_version"] == nil {
				t.Fatalf("leading record is not a provenance stamp: %s", l)
			}
		}
	}
	if rec["kind"] != "estimate" {
		t.Fatalf("last record kind = %v", rec["kind"])
	}
}

// TestRunProfileDir: -profile-dir commits a parseable capture (manifest +
// pprof files) during the run.
func TestRunProfileDir(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-reps", "1", "-warmup", "10", "-measure", "50", "-procs", "8192",
		"-profile-dir", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	infos, err := obs.ReadProfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Reason != "start" || infos[0].Prefix != "ccsim" {
		t.Fatalf("profiles = %+v", infos)
	}
	var hasHeap bool
	for _, f := range infos[0].Files {
		if strings.HasSuffix(f, "-heap.pprof") {
			hasHeap = true
		}
	}
	if !hasHeap {
		t.Fatalf("capture files = %v", infos[0].Files)
	}
	// The manifest meta is a provenance stamp carrying the config hash.
	var stamp provenance.Stamp
	if err := json.Unmarshal(infos[0].Meta, &stamp); err != nil || stamp.ConfigHash == "" {
		t.Fatalf("capture meta = %s (err %v)", infos[0].Meta, err)
	}
}

func TestRunJournalUnwritablePath(t *testing.T) {
	if err := run([]string{
		"-reps", "1", "-warmup", "10", "-measure", "50", "-procs", "8192",
		"-journal", filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl"),
	}); err == nil {
		t.Fatal("expected error for unwritable journal path")
	}
}

func TestRunScenario(t *testing.T) {
	err := run([]string{"-scenario", "migration", "-reps", "1", "-warmup", "10", "-measure", "50"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioWithFlagOverride(t *testing.T) {
	// Explicit flags override the scenario, exactly as they do -config.
	err := run([]string{"-scenario", "base", "-procs", "8192", "-reps", "1", "-warmup", "10", "-measure", "50"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunListScenarios(t *testing.T) {
	if err := run([]string{"-list-scenarios"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioAndConfigExclusive(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(cfgPath, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-scenario", "base", "-config", cfgPath})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("want mutual-exclusion error, got %v", err)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	err := run([]string{"-scenario", "nope"})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("want unknown-scenario error, got %v", err)
	}
}

func TestRunScenarioDirOverride(t *testing.T) {
	dir := t.TempDir()
	body := `{"name": "tiny", "title": "Tiny machine", "description": "d", "citation": "local",
		"tags": ["local"], "config": {"processors": 8192}}`
	if err := os.WriteFile(filepath.Join(dir, "tiny.json"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-scenario", "tiny", "-scenario-dir", dir, "-reps", "1", "-warmup", "10", "-measure", "50"})
	if err != nil {
		t.Fatal(err)
	}
}
