package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

func quickArgs(extra ...string) []string {
	base := []string{"-reps", "1", "-warmup", "10", "-measure", "60", "-procs", "8192"}
	return append(base, extra...)
}

func TestSweepProcs(t *testing.T) {
	if err := run(quickArgs("-param", "procs", "-values", "8192,16384"), os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestSweepEveryParameter(t *testing.T) {
	cases := map[string]string{
		"interval-min": "15,30",
		"mttf-years":   "1,2",
		"mttr-min":     "10,20",
		"mttq-sec":     "2,10",
		"timeout-sec":  "60,120",
		"pe":           "0,0.1",
		"alpha":        "0,0.001",
	}
	for param, values := range cases {
		if err := run(quickArgs("-param", param, "-values", values), os.Stdout); err != nil {
			t.Fatalf("param %s: %v", param, err)
		}
	}
}

func TestSweepCoordinationModes(t *testing.T) {
	for _, mode := range []string{"fixed", "none", "max-of-n"} {
		if err := run(quickArgs("-param", "procs", "-values", "8192", "-coordination", mode), os.Stdout); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
}

func TestSweepParallelRows(t *testing.T) {
	if err := run(quickArgs("-param", "procs", "-values", "8192,16384,32768", "-workers", "3"), os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestSweepRejectsBadValueBeforeSimulating(t *testing.T) {
	err := run(quickArgs("-param", "procs", "-values", "8192,-5"), os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "-5") {
		t.Fatalf("invalid row accepted: %v", err)
	}
}

func TestSweepRequiresValues(t *testing.T) {
	err := run([]string{"-param", "procs"}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "-values") {
		t.Fatalf("missing values accepted: %v", err)
	}
}

func TestSweepRejectsUnknownParam(t *testing.T) {
	err := run(quickArgs("-param", "magic", "-values", "1"), os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "unknown parameter") {
		t.Fatalf("unknown parameter accepted: %v", err)
	}
}

func TestSweepRejectsBadValue(t *testing.T) {
	if err := run(quickArgs("-param", "procs", "-values", "banana"), os.Stdout); err == nil {
		t.Fatal("non-numeric value accepted")
	}
}

func TestSweepRejectsInvalidConfigValue(t *testing.T) {
	if err := run(quickArgs("-param", "procs", "-values", "-1"), os.Stdout); err == nil {
		t.Fatal("invalid processor count accepted")
	}
}

func TestSweepRejectsBadMode(t *testing.T) {
	if err := run(quickArgs("-coordination", "nope", "-values", "1"), os.Stdout); err == nil {
		t.Fatal("bad coordination mode accepted")
	}
}

// A run-directory flag without the verb it configures is an error, not
// silently ignored by an otherwise valid sweep.
func TestSweepRejectsVerbFlagsWithoutVerb(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		verb  string
	}{
		{[]string{"-json"}, "-status"},
		{[]string{"-block-size", "2"}, "-manifest"},
		{[]string{"-worker-name", "w1"}, "-worker"},
		{[]string{"-lease-ttl", "1m"}, "-worker"},
		{[]string{"-heartbeat-every", "-1s"}, "-worker"},
		{[]string{"-profile-dir", "off"}, "-worker"},
		{[]string{"-profile-every", "1s"}, "-worker"},
	} {
		err := run(quickArgs(append([]string{"-param", "procs", "-values", "8192"}, tc.flags...)...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flags[0]) || !strings.Contains(err.Error(), tc.verb) {
			t.Errorf("%v without %s: %v", tc.flags, tc.verb, err)
		}
	}
}

// TestSweepJournalDeterministicAcrossWorkers checks that the per-row
// buffered journals concatenate in input order: apart from the wall-clock
// fields, a parallel sweep writes the same file as a sequential one.
func TestSweepJournalDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	sweep := func(workers, path string) []map[string]any {
		t.Helper()
		err := run(quickArgs("-param", "procs", "-values", "4096,8192",
			"-reps", "2", "-workers", workers, "-journal", path), os.Stdout)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var recs []map[string]any
		for _, l := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(l), &m); err != nil {
				t.Fatalf("bad journal line %q: %v", l, err)
			}
			for _, f := range obs.TimestampFields {
				delete(m, f)
			}
			recs = append(recs, m)
		}
		return recs
	}
	seq := sweep("1", filepath.Join(dir, "seq.jsonl"))
	par := sweep("4", filepath.Join(dir, "par.jsonl"))
	if len(seq) != 6 { // 2 rows × (2 replications + 1 estimate)
		t.Fatalf("sequential journal has %d records, want 6", len(seq))
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("journal differs across worker counts:\nseq %v\npar %v", seq, par)
	}
	if seq[0]["label"] != "procs=4096" || seq[3]["label"] != "procs=8192" {
		t.Fatalf("row labels out of order: %v %v", seq[0]["label"], seq[3]["label"])
	}
}

func TestSweepMetricsTable(t *testing.T) {
	if err := run(quickArgs("-param", "procs", "-values", "4096", "-metrics"), os.Stdout); err != nil {
		t.Fatal(err)
	}
}

func TestSweepScenarioBase(t *testing.T) {
	err := run([]string{
		"-scenario", "weibull-field", "-param", "procs", "-values", "8192,16384",
		"-reps", "1", "-warmup", "10", "-measure", "50",
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepListScenarios(t *testing.T) {
	if err := run([]string{"-list-scenarios"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
}

// An explicit 0 for a run flag is refused, naming the default the runner
// would silently have run instead.
func TestExplicitZeroRunFlagRefused(t *testing.T) {
	for name, def := range map[string]string{
		"reps": "5 replications", "warmup": "1000 h warmup", "measure": "4000 h measure",
	} {
		err := run([]string{"-param", "procs", "-values", "8192", "-" + name, "0"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-"+name+" 0 would run the default "+def) {
			t.Errorf("-%s 0: err = %v", name, err)
		}
	}
	// The rows run the cell seeds the plan derives from -seed as given, so
	// seed 0 is a seed like any other.
	var out [2]strings.Builder
	for seed := range out {
		if err := run(quickArgs("-param", "procs", "-values", "8192", "-seed", strconv.Itoa(seed)), &out[seed]); err != nil {
			t.Fatalf("-seed %d: %v", seed, err)
		}
	}
	if out[0].String() == out[1].String() {
		t.Errorf("-seed 0 ran what -seed 1 runs:\n%s", out[0].String())
	}
}
