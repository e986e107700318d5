package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/blocks"
)

// forecast16384 is what the standalone forecaster of earlier releases
// printed for `-work 100 -procs 16384 -reps 4 -seed 3`; a one-row -work
// forecast must reproduce it byte for byte after its label line.
const forecast16384 = `job                 100 h of useful work on 16384 processors
expected completion 111.751 ± 4.84 (95%, n=4) h
stretch factor      1.12x over a failure-free machine
quantiles           p10 107 | p50 112 | p90 113 h
`

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("ccsweep %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func TestJobForecast(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-work", "100", "-values", "16384", "-reps", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"expected completion", "stretch factor", "p50"} {
		if !strings.Contains(s, want) {
			t.Fatalf("forecast missing %q:\n%s", want, s)
		}
	}
}

func TestJobWithConfigFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, []byte(`{"processors": 16384, "mttfYears": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-config", path, "-work", "100", "-reps", "3", "-param", "mttf-years", "-values", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "16384 processors") {
		t.Fatalf("config file not used:\n%s", out.String())
	}
}

func TestJobErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-work", "-5", "-values", "16384"}, &out); err == nil {
		t.Error("negative work accepted")
	}
	if err := run([]string{"-work", "100", "-procs", "-1", "-param", "mttf-years", "-values", "1"}, &out); err == nil {
		t.Error("bad config accepted")
	}
	if err := run([]string{"-work", "100", "-config", "/missing.json", "-values", "16384"}, &out); err == nil {
		t.Error("missing config accepted")
	}
	if err := run([]string{"-zzz"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestForecastMatchesStandaloneForecaster(t *testing.T) {
	got := runOut(t, "-work", "100", "-values", "16384", "-reps", "4", "-seed", "3")
	if want := "forecast            procs=16384\n" + forecast16384; got != want {
		t.Fatalf("forecast drifted:\n%s\nwant:\n%s", got, want)
	}
}

// A forecast planned into a run directory, worked and reduced prints
// exactly what the monolithic forecast prints, row for row — the
// completion half of the sharded ≡ monolithic contract.
func TestForecastShardedMatchesMonolithic(t *testing.T) {
	forecast := []string{"-work", "100", "-values", "16384,65536", "-reps", "4", "-seed", "3"}
	mono := runOut(t, forecast...)
	runDir := filepath.Join(t.TempDir(), "run")
	runOut(t, append(forecast, "-manifest", runDir, "-block-size", "3")...)
	runOut(t, "-worker", runDir, "-heartbeat-every", "-1s")
	if got := runOut(t, "-reduce", runDir); got != mono {
		t.Fatalf("reduced forecast differs from monolithic\nmonolithic:\n%s\nreduced:\n%s", mono, got)
	}
	if !strings.HasPrefix(mono, "forecast            procs=16384\n"+forecast16384+"forecast            procs=65536\n") {
		t.Fatalf("unexpected forecast rows:\n%s", mono)
	}
}

// A run directory planned exactly as the standalone forecaster of earlier
// releases planned it (name "job", one cell labeled "work=<H>") is served
// by -worker and reduced to the forecast — never to the estimate table,
// which used to print completion hours as a useful-work fraction.
func TestReduceCompletionDirPrintsForecast(t *testing.T) {
	cfg := repro.DefaultConfig()
	cfg.Processors = 16384
	cfg.ComputeFraction = 1
	cfg.NoIOFailures = true
	m, err := blocks.Plan([]blocks.Cell{{
		Label: "work=100", X: 100, Seed: 3, Replications: 4, Config: cfg,
	}}, blocks.PlanOptions{Name: "job", Kind: blocks.KindCompletion, Work: 100, BlockSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	runDir := filepath.Join(t.TempDir(), "run")
	if err := blocks.CreateRun(runDir, m); err != nil {
		t.Fatal(err)
	}
	if out := runOut(t, "-worker", runDir, "-heartbeat-every", "-1s"); !strings.Contains(out, "4 blocks completed") {
		t.Fatalf("worker did not finish the forecast: %s", out)
	}
	journal := filepath.Join(t.TempDir(), "merged.jsonl")
	got := runOut(t, "-reduce", runDir, "-journal", journal)
	if want := "forecast            work=100\n" + forecast16384; got != want {
		t.Fatalf("reduced forecast:\n%s\nwant:\n%s", got, want)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"kind":"completion"`); n != 1 {
		t.Fatalf("merged journal holds %d completion records:\n%s", n, data)
	}
}

func TestForecastRejectsEstimateOnlyModes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-vr", "antithetic"}, "-vr antithetic"},
		{[]string{"-journal", filepath.Join(t.TempDir(), "j.jsonl")}, "-journal"},
	} {
		args := append([]string{"-work", "100", "-values", "16384", "-reps", "2"}, tc.args...)
		err := run(args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error naming %s", tc.args, err, tc.want)
		}
	}
}

// Each row's seed is the sweep's cell seed, so row i of a multi-row
// forecast equals a one-row forecast run with seed + i·1000003.
func TestForecastRowSeeds(t *testing.T) {
	multi := runOut(t, "-work", "100", "-values", "16384,65536", "-reps", "3", "-seed", "5")
	second := runOut(t, "-work", "100", "-values", "65536", "-reps", "3", "-seed", fmt.Sprint(5+1000003))
	if !strings.HasSuffix(multi, second) {
		t.Fatalf("row 1 does not use the cell seed:\n%s\nvs\n%s", multi, second)
	}
}
