package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const transcript = `goos: linux
goarch: amd64
pkg: repro/internal/san
cpu: AMD EPYC 7B13
BenchmarkCalendar-8       	24941218	        48.03 ns/op	       0 B/op	       0 allocs/op
BenchmarkSettle-8         	18000000	        66.10 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/san	2.511s
pkg: repro/internal/model
BenchmarkRecycleVsRebuild/rebuild-8 	     100	  11000000 ns/op	  920000 B/op	   12000 allocs/op
BenchmarkRecycleVsRebuild/recycle-8 	     120	  10400000 ns/op	 3714600 events/s	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/model	3.001s
`

func TestParseBench(t *testing.T) {
	rep, err := parseBench(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "AMD EPYC 7B13" {
		t.Fatalf("platform headers wrong: %+v", rep)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	first := rep.Benchmarks[0]
	if first.Name != "Calendar" || first.Procs != 8 || first.Pkg != "repro/internal/san" {
		t.Fatalf("first benchmark wrong: %+v", first)
	}
	if first.Iterations != 24941218 || first.Metrics["ns/op"] != 48.03 || first.Metrics["allocs/op"] != 0 {
		t.Fatalf("first metrics wrong: %+v", first)
	}
	recycle := rep.Benchmarks[3]
	if recycle.Name != "RecycleVsRebuild/recycle" || recycle.Pkg != "repro/internal/model" {
		t.Fatalf("subbenchmark name wrong: %+v", recycle)
	}
	if recycle.Metrics["events/s"] != 3714600 {
		t.Fatalf("custom metric lost: %+v", recycle.Metrics)
	}
}

func TestParseBenchRejectsFailure(t *testing.T) {
	in := "BenchmarkX-4 10 5.0 ns/op\nFAIL\trepro/internal/san\t0.1s\n"
	if _, err := parseBench(strings.NewReader(in)); err == nil {
		t.Fatal("FAIL transcript accepted")
	}
}

func TestParseBenchRejectsMalformedLine(t *testing.T) {
	for _, in := range []string{
		"BenchmarkX-4 notanumber 5.0 ns/op\n",
		"BenchmarkX-4 10 oops ns/op\n",
		"BenchmarkX-4 10 5.0\n", // odd field count: unit missing
	} {
		if _, err := parseBench(strings.NewReader(in)); err == nil {
			t.Fatalf("malformed line accepted: %q", in)
		}
	}
}

func TestRunWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var out bytes.Buffer
	if err := run([]string{"-o", path}, strings.NewReader(transcript), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("round-tripped %d benchmarks, want 4", len(rep.Benchmarks))
	}
}

// TestParseLineEdgeCases pins the -procs suffix split on awkward names:
// sub-benchmarks whose segments contain `/` and `-`, names ending in a
// dash-number at GOMAXPROCS=1 (the documented ambiguity: the number is
// eaten as procs, per the go convention), names that are nothing but a
// dash-number, and custom b.ReportMetric units.
func TestParseLineEdgeCases(t *testing.T) {
	cases := []struct {
		line      string
		name      string
		procs     int
		unit      string
		value     float64
		iterCount int64
	}{
		{"BenchmarkSweep/n=64-2/mode=max-of-n-8 100 5.0 ns/op", "Sweep/n=64-2/mode=max-of-n", 8, "ns/op", 5, 100},
		{"BenchmarkFib-20 100 5.0 ns/op", "Fib", 20, "ns/op", 5, 100}, // GOMAXPROCS=1 ambiguity, pinned
		{"Benchmark-8 100 5.0 ns/op", "-8", 0, "ns/op", 5, 100},       // suffix-only name survives
		{"BenchmarkX-0 100 5.0 ns/op", "X-0", 0, "ns/op", 5, 100},     // procs must be positive
		{"BenchmarkOpt-4 7 1.25 opt-procs@1yr", "Opt", 4, "opt-procs@1yr", 1.25, 7},
		{"BenchmarkRate-4 7 3714600 events/s", "Rate", 4, "events/s", 3714600, 7},
	}
	for _, tc := range cases {
		b, err := parseLine(tc.line)
		if err != nil {
			t.Fatalf("%q: %v", tc.line, err)
		}
		if b.Name != tc.name || b.Procs != tc.procs || b.Iterations != tc.iterCount {
			t.Fatalf("%q parsed as %+v, want name %q procs %d iters %d", tc.line, b, tc.name, tc.procs, tc.iterCount)
		}
		if b.Metrics[tc.unit] != tc.value {
			t.Fatalf("%q metrics = %v, want %s=%v", tc.line, b.Metrics, tc.unit, tc.value)
		}
	}
}

// TestParseBenchFailMidStream: a FAIL after valid benchmark lines still
// poisons the transcript.
func TestParseBenchFailMidStream(t *testing.T) {
	in := "BenchmarkA-4 10 5.0 ns/op\nFAIL\trepro/internal/san\t0.1s\nBenchmarkB-4 10 5.0 ns/op\n"
	if _, err := parseBench(strings.NewReader(in)); err == nil {
		t.Fatal("mid-stream FAIL accepted")
	}
	// --- lines from -benchtime warnings and arbitrary noise are skipped.
	in = "noise\nBenchmarkA-4 10 5.0 ns/op\nPASS\n"
	rep, err := parseBench(strings.NewReader(in))
	if err != nil || len(rep.Benchmarks) != 1 {
		t.Fatalf("noisy transcript: %+v, %v", rep, err)
	}
}

// TestParseBenchCountDuplicates: -count=N duplicate rows must all survive
// (compare derives its noise band from them).
func TestParseBenchCountDuplicates(t *testing.T) {
	in := "pkg: p\nBenchmarkA-4 10 5.0 ns/op\nBenchmarkA-4 11 5.5 ns/op\nBenchmarkA-4 12 4.5 ns/op\n"
	rep, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("duplicates collapsed: %+v", rep.Benchmarks)
	}
	for _, b := range rep.Benchmarks {
		if b.Key() != "p.A" {
			t.Fatalf("key = %q", b.Key())
		}
	}
}

func TestRunStdoutAndErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(transcript), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"Calendar"`) {
		t.Fatalf("stdout JSON missing benchmark:\n%s", out.String())
	}
	if err := run([]string{"-x"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run(nil, strings.NewReader("PASS\nok x 1s\n"), &out); err == nil {
		t.Fatal("benchmark-free input accepted")
	}
}
