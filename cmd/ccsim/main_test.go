package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/provenance"
)

func TestRunDefaultsQuick(t *testing.T) {
	err := run([]string{"-reps", "1", "-warmup", "20", "-measure", "100", "-procs", "8192"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunVerboseAndModes(t *testing.T) {
	for _, mode := range []string{"fixed", "none", "max-of-n"} {
		err := run([]string{
			"-reps", "1", "-warmup", "10", "-measure", "50",
			"-procs", "8192", "-coordination", mode, "-v",
		}, io.Discard)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
}

func TestRunCorrelatedFlags(t *testing.T) {
	err := run([]string{
		"-reps", "1", "-warmup", "10", "-measure", "50", "-procs", "8192",
		"-pe", "0.1", "-r", "400", "-alpha", "0.001", "-timeout-sec", "90",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelWithProgress(t *testing.T) {
	err := run([]string{
		"-reps", "2", "-warmup", "10", "-measure", "50", "-procs", "8192",
		"-workers", "2", "-progress",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunVerifySpans(t *testing.T) {
	err := run([]string{
		"-reps", "2", "-warmup", "20", "-measure", "100", "-procs", "8192",
		"-verify-spans",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	err := run([]string{"-coordination", "psychic"}, io.Discard)
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
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flags[0]) {
			t.Errorf("%v with -rare-level: %v", tc.flags, err)
		}
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("-rare-level left a journal file behind: %v", err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run([]string{"-procs", "-5"}, io.Discard); err == nil {
		t.Fatal("negative processors accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, io.Discard); err == nil {
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
	err := run([]string{"-config", path, "-reps", "1", "-warmup", "10", "-measure", "60", "-mttf-years", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithMissingConfigFile(t *testing.T) {
	if err := run([]string{"-config", "/does/not/exist.json"}, io.Discard); err == nil {
		t.Fatal("missing config file accepted")
	}
}

func TestRunWithBrokenConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", path}, io.Discard); err == nil {
		t.Fatal("broken config accepted")
	}
}

func TestRunJournalMetricsAndDebugAddr(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")
	err := run([]string{
		"-reps", "2", "-warmup", "20", "-measure", "100", "-procs", "8192",
		"-journal", journal, "-metrics", "-debug-addr", "127.0.0.1:0",
	}, io.Discard)
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
	}, io.Discard)
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

// Periodic captures need somewhere to land: -profile-every without
// -profile-dir is an error, not silently ignored.
func TestRunProfileEveryNeedsProfileDir(t *testing.T) {
	err := run([]string{"-reps", "1", "-warmup", "10", "-measure", "50", "-procs", "8192",
		"-profile-every", "1s"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-profile-every") || !strings.Contains(err.Error(), "-profile-dir") {
		t.Fatalf("-profile-every without -profile-dir: %v", err)
	}
}

func TestRunJournalUnwritablePath(t *testing.T) {
	if err := run([]string{
		"-reps", "1", "-warmup", "10", "-measure", "50", "-procs", "8192",
		"-journal", filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl"),
	}, io.Discard); err == nil {
		t.Fatal("expected error for unwritable journal path")
	}
}

func TestRunScenario(t *testing.T) {
	err := run([]string{"-scenario", "migration", "-reps", "1", "-warmup", "10", "-measure", "50"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioWithFlagOverride(t *testing.T) {
	// Explicit flags override the scenario, exactly as they do -config.
	err := run([]string{"-scenario", "base", "-procs", "8192", "-reps", "1", "-warmup", "10", "-measure", "50"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunListScenarios(t *testing.T) {
	if err := run([]string{"-list-scenarios"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioAndConfigExclusive(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(cfgPath, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-scenario", "base", "-config", cfgPath}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("want mutual-exclusion error, got %v", err)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	err := run([]string{"-scenario", "nope"}, io.Discard)
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
	err := run([]string{"-scenario", "tiny", "-scenario-dir", dir, "-reps", "1", "-warmup", "10", "-measure", "50"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func writeCfg(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compare runs ccsim with args and returns its stdout.
func compare(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestCompareDetectsImprovement(t *testing.T) {
	a := writeCfg(t, "a.json", `{"processors": 16384, "mttfYears": 1}`)
	b := writeCfg(t, "b.json", `{"processors": 16384, "mttfYears": 4}`)
	out := compare(t, "-config", a, "-compare", b, "-reps", "3", "-warmup", "50", "-measure", "500")
	if !strings.Contains(out, "B is significantly better") {
		t.Fatalf("4x MTTF not detected as better:\n%s", out)
	}
	if !strings.HasPrefix(out, "A ("+a+")") {
		t.Fatalf("side A not labelled with its file:\n%s", out)
	}
}

func TestCompareIdenticalConfigs(t *testing.T) {
	a := writeCfg(t, "a.json", `{"processors": 16384}`)
	b := writeCfg(t, "b.json", `{"processors": 16384}`)
	out := compare(t, "-config", a, "-compare", b, "-reps", "2", "-warmup", "20", "-measure", "200")
	if !strings.Contains(out, "no significant difference") {
		t.Fatalf("identical configs not recognised:\n%s", out)
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	a := writeCfg(t, "a.json", `{"processors": 16384}`)
	b := writeCfg(t, "b.json", `{"processors": 16384, "intervalMinutes": 240}`)
	out := compare(t, "-config", a, "-compare", b, "-reps", "3", "-warmup", "50", "-measure", "500")
	if !strings.Contains(out, "B is significantly worse") {
		t.Fatalf("4h interval not detected as worse:\n%s", out)
	}
}

// Explicitly set configuration flags apply to both sides: raising side
// A's MTTF to B's makes the two identical.
func TestCompareFlagsApplyToBothSides(t *testing.T) {
	a := writeCfg(t, "a.json", `{"processors": 16384, "mttfYears": 1}`)
	b := writeCfg(t, "b.json", `{"processors": 16384, "mttfYears": 4}`)
	out := compare(t, "-config", a, "-compare", b, "-mttf-years", "4", "-reps", "2", "-warmup", "20", "-measure", "200")
	if !strings.Contains(out, "paired difference (B−A)  fraction 0 ± 0") {
		t.Fatalf("-mttf-years did not reach both sides:\n%s", out)
	}
}

func TestCompareScenarioNames(t *testing.T) {
	// Both sides can name catalog scenarios; migration on top of base
	// absorbs most failures, so B must come out better.
	out := compare(t, "-scenario", "base", "-compare", "migration", "-reps", "3", "-warmup", "50", "-measure", "500")
	if !strings.Contains(out, "B is significantly better") {
		t.Fatalf("migration not detected as better:\n%s", out)
	}
}

func TestCompareListScenarios(t *testing.T) {
	// The listing names the scenarios -compare accepts as a reference.
	var out bytes.Buffer
	if err := run([]string{"-list-scenarios"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"base", "migration", "adaptive-interval"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("listing missing %q:\n%s", want, out.String())
		}
	}
}

func TestCompareBadReference(t *testing.T) {
	err := run([]string{"-scenario", "base", "-compare", "no-such-thing"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no-such-thing") {
		t.Fatalf("want resolution error, got %v", err)
	}
}

func TestCompareErrors(t *testing.T) {
	bad := writeCfg(t, "bad.json", "{broken")
	good := writeCfg(t, "good.json", "{}")
	for _, args := range [][]string{
		{"-compare", "/missing.json"},
		{"-config", bad, "-compare", good},
		{"-config", good, "-compare", bad},
		{"-config", good, "-compare"},
		{"-compare", good, "-procs", "-5"},
		{"-compare", good, "-zzz"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// Every flag either applies to a comparison or is rejected with it: the
// splitting estimate and the antithetic legs have no paired form, and the
// sync audit exists only for a comparison.
func TestCompareRejectsInapplicableFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sync-report"}, "-sync-report"},
		{[]string{"-compare", "migration", "-rare-level", "1"}, "-rare-level"},
		{[]string{"-compare", "migration", "-rare-horizon", "2"}, "-rare-horizon"},
		{[]string{"-compare", "migration", "-vr", "antithetic"}, "-vr"},
	} {
		err := run(append([]string{"-reps", "2", "-warmup", "10", "-measure", "50"}, tc.args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}

// -compare -journal writes one provenance record hashing both sides, then
// leg A's replication and estimate records, then leg B's.
func TestCompareJournalBothLegs(t *testing.T) {
	dir := t.TempDir()
	read := func(name string, extra ...string) []map[string]any {
		t.Helper()
		path := filepath.Join(dir, name)
		compare(t, append([]string{"-scenario", "base", "-reps", "2", "-warmup", "10", "-measure", "60",
			"-procs", "8192", "-journal", path}, extra...)...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var recs []map[string]any
		for _, l := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(l), &rec); err != nil {
				t.Fatalf("%s: line not JSON: %v", name, err)
			}
			recs = append(recs, rec)
		}
		return recs
	}
	recs := read("pair.jsonl", "-compare", "migration", "-sync-report")
	want := []string{"provenance", "replication A", "replication A", "estimate A", "replication B", "replication B", "estimate B"}
	if len(recs) != len(want) {
		t.Fatalf("journal has %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		got := fmt.Sprint(rec["kind"])
		if l, ok := rec["label"]; ok {
			got += " " + fmt.Sprint(l)
		}
		if got != want[i] {
			t.Errorf("record %d is %q, want %q", i, got, want[i])
		}
	}
	single := read("single.jsonl")
	if recs[0]["config_hash"] == nil || recs[0]["config_hash"] == single[0]["config_hash"] {
		t.Errorf("comparison config hash %v does not cover side B (single run: %v)", recs[0]["config_hash"], single[0]["config_hash"])
	}
}

// An explicit 0 for a run flag is refused, naming the default the runner
// would silently have run instead.
func TestExplicitZeroRunFlagRefused(t *testing.T) {
	for name, def := range map[string]string{
		"reps": "5 replications", "warmup": "1000 h warmup", "measure": "4000 h measure", "seed": "seed 1",
	} {
		err := run([]string{"-" + name, "0"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-"+name+" 0 would run the default "+def) {
			t.Errorf("-%s 0: err = %v", name, err)
		}
	}
}
