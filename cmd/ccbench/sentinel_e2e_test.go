package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runRealBench executes a real (tiny) benchmark in this module and
// returns its transcript — the same shape `make bench-smoke` produces.
func runRealBench(t *testing.T) string {
	t.Helper()
	cmd := exec.Command("go", "test", "-run", "NONE", "-bench", "Calendar$",
		"-benchtime", "10x", "-count", "3", "repro/internal/san")
	cmd.Dir = "../.." // module root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go test -bench: %v\n%s", err, out)
	}
	return string(out)
}

// TestSentinelEndToEnd is the full sentinel loop: record two real
// benchmark runs into a history, render the trend, compare the last two
// entries (warn-only — two honest runs may legitimately jitter), then
// doctor a 5x regression into the history and require compare to exit
// non-zero naming the benchmark.
func TestSentinelEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go test -bench")
	}
	hist := filepath.Join(t.TempDir(), "BENCH_HISTORY.jsonl")
	var out bytes.Buffer
	for i := 0; i < 2; i++ {
		transcript := runRealBench(t)
		if err := run([]string{"record", "-history", hist, "-note", "e2e"},
			strings.NewReader(transcript), &out); err != nil {
			t.Fatalf("record run %d: %v\n%s", i, err, out.String())
		}
	}
	reports, err := readHistory(hist)
	if err != nil || len(reports) != 2 {
		t.Fatalf("history = %d entries, err %v", len(reports), err)
	}
	for _, rep := range reports {
		if rep.Provenance == nil || rep.Provenance.GoVersion == "" {
			t.Fatalf("history entry unstamped: %+v", rep)
		}
		if len(rep.Benchmarks) != 3 {
			t.Fatalf("-count=3 rows did not survive: %+v", rep.Benchmarks)
		}
	}

	out.Reset()
	if err := run([]string{"trend", "-history", hist}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("trend: %v", err)
	}
	if !strings.Contains(out.String(), "Calendar") || !strings.Contains(out.String(), "ns/op") {
		t.Fatalf("trend output:\n%s", out.String())
	}

	// Two honest runs of the same code: gate in warn-only mode must pass.
	out.Reset()
	if err := run([]string{"compare", "-history", hist, "-warn-only"}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("warn-only compare of identical code failed: %v\n%s", err, out.String())
	}

	// Doctor a regression: the same run, every ns/op multiplied by 5 —
	// far outside any noise band a 3-sample run can produce.
	doctored := reports[1]
	doctored.Benchmarks = append([]Benchmark(nil), doctored.Benchmarks...)
	for i, b := range doctored.Benchmarks {
		m := make(map[string]float64, len(b.Metrics))
		for unit, v := range b.Metrics {
			if unit == "ns/op" {
				v *= 5
			}
			m[unit] = v
		}
		doctored.Benchmarks[i].Metrics = m
	}
	if err := appendHistory(hist, doctored); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = run([]string{"compare", "-history", hist}, strings.NewReader(""), &out)
	if err == nil {
		t.Fatalf("doctored regression not caught:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "Calendar") || !strings.Contains(err.Error(), "ns/op") {
		t.Fatalf("regression error does not name the benchmark: %v", err)
	}
}
