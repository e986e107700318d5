package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFiguresSubsetToDirectory(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-only", "fig4g", "-reps", "1", "-warmup", "20", "-measure", "120",
		"-out", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4g.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{"fig4g", "MTTF=1yr", "shape claim"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFiguresCSV(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-only", "fig4g", "-reps", "1", "-warmup", "20", "-measure", "120",
		"-out", dir, "-csv",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4g.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "figure,series,x,y") {
		t.Fatalf("CSV header missing:\n%s", data)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 7 { // header + 2 series × 3 nodes
		t.Fatalf("CSV has %d lines, want 7", len(lines))
	}
}

func TestFiguresUnknownID(t *testing.T) {
	err := run([]string{"-only", "fig42"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown figure accepted: %v", err)
	}
}

func TestFiguresBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestFiguresBadOutDir(t *testing.T) {
	err := run([]string{
		"-only", "fig4g", "-reps", "1", "-warmup", "10", "-measure", "60",
		"-out", string([]byte{0}),
	})
	if err == nil {
		t.Fatal("invalid output directory accepted")
	}
}

func TestFiguresChart(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-only", "fig4g", "-reps", "1", "-warmup", "20", "-measure", "120",
		"-out", dir, "-chart",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4g.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "log scale") || !strings.Contains(out, "MTTF=1yr") {
		t.Fatalf("chart output missing:\n%s", out)
	}
}

func TestFiguresScenarioSweep(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-scenario", "weibull-field", "-reps", "1", "-warmup", "10", "-measure", "60",
		"-out", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "scenario-weibull-field.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{"scenario-weibull-field", "Weibull", "useful work fraction"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFiguresListScenarios(t *testing.T) {
	if err := run([]string{"-list-scenarios"}); err != nil {
		t.Fatal(err)
	}
}

// reportArgs runs fig8 at a small window with -report into path.
func reportArgs(path string) []string {
	return []string{"-only", "fig8", "-reps", "2", "-warmup", "50", "-measure", "300",
		"-out", filepath.Dir(path), "-report", path}
}

func TestFiguresReportToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "REPORT.md")
	if err := run(reportArgs(path)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Reproduction report", "| fig8 |", "PASS", "**1/1 claims pass.**\n"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("report missing %q:\n%s", want, data)
		}
	}
}

// -report replaces only the generated head of an existing report: the
// hand-written sections after its "claims pass." line survive byte for
// byte, stale claim rows do not.
func TestFiguresReportKeepsHandWrittenTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "REPORT.md")
	tail := "\n## Benchmarks\n\nhand-written | table\t \r\nclaims pass. is mentioned again\n\n\nno final newline"
	old := "# old title\n\n| fig4a | stale row | FAIL | x |\n\n**0/1 claims pass.**\n" + tail
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(reportArgs(path)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	head, rest, _ := strings.Cut(got, "**1/1 claims pass.**\n")
	if rest != tail {
		t.Fatalf("tail after the claim table = %q, want %q", rest, tail)
	}
	if strings.Contains(head, "stale row") || !strings.Contains(head, "| fig8 |") {
		t.Fatalf("head not regenerated:\n%s", head)
	}
}

// A file without a generated head is refused, never truncated.
func TestFiguresReportRefusesFileWithoutHead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "NOTES.md")
	const notes = "# notes\n\nnothing generated here\n"
	if err := os.WriteFile(path, []byte(notes), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(reportArgs(path))
	if err == nil || !strings.Contains(err.Error(), "claims pass.") {
		t.Fatalf("file without a head accepted: %v", err)
	}
	if data, _ := os.ReadFile(path); string(data) != notes {
		t.Fatalf("refused file was modified:\n%s", data)
	}
}

// -only restricts the report to the named figure's claims.
func TestFiguresReportSubset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "REPORT.md")
	if err := run(reportArgs(path)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	report := string(data)
	for _, want := range []string{"Reproduction report", "| fig8 |", "PASS", "claims pass"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	for _, other := range []string{"| fig4a |", "| fig5 |", "| fig6 |", "| fig7 |"} {
		if strings.Contains(report, other) {
			t.Fatalf("report for -only fig8 has a %s row:\n%s", other, report)
		}
	}
}

// An unknown -only ID fails before any report file is written.
func TestFiguresReportUnknownID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "REPORT.md")
	err := run([]string{"-only", "fig99", "-out", filepath.Dir(path), "-report", path})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown experiment accepted: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("report written for an unknown experiment: %v", err)
	}
}

// -report needs a file name.
func TestFiguresReportBadFlag(t *testing.T) {
	if err := run([]string{"-only", "fig8", "-report"}); err == nil {
		t.Fatal("-report without a file accepted")
	}
}

// An explicit 0 for a run flag is refused, naming the default it would
// silently have run instead: the quick or -paper window, and seed 1 (every
// experiment derives its cell seeds from the defaulted seed).
func TestExplicitZeroRunFlagRefused(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-reps 0", "-reps 0 would run the default 3 replications"},
		{"-paper -reps 0", "-reps 0 would run the default 5 replications"},
		{"-warmup 0", "-warmup 0 would run the default 300 h warmup"},
		{"-measure 0", "-measure 0 would run the default 1500 h measure"},
		{"-seed 0", "-seed 0 would run the default seed 1:"},
	} {
		err := run(append(strings.Fields(c.args), "-only", "fig4g"))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.args, err, c.want)
		}
	}
}
