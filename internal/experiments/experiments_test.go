package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/stats"
)

// tinyOpts keeps unit-test sweeps fast; shape fidelity at paper scale is
// exercised by the benchmarks and cmd/ccfigures.
func tinyOpts() runner.Options {
	return runner.Options{Replications: 2, Warmup: 50, Measure: 250, Seed: 5}
}

func TestRegistryComplete(t *testing.T) {
	defs := All()
	if len(defs) != 12 {
		t.Fatalf("registry has %d experiments, want 12 (fig4a-h, fig5-8)", len(defs))
	}
	want := []string{"fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f",
		"fig4g", "fig4h", "fig5", "fig6", "fig7", "fig8"}
	for i, id := range want {
		if defs[i].ID != id {
			t.Errorf("defs[%d].ID = %s, want %s", i, defs[i].ID, id)
		}
	}
	for _, d := range table {
		grid := d.base != "" && d.x != "" && len(d.xs) > 0 && len(d.series) > 0
		if d.Title == "" || d.ShapeClaim == "" || d.figTitle == "" || d.xLabel == "" ||
			d.yLabel == "" || d.claims == nil || grid == (d.run != nil) {
			t.Errorf("experiment %s incomplete", d.ID)
		}
	}
}

// def returns the table row with the given ID.
func def(t *testing.T, id string) Def {
	t.Helper()
	d, err := LookupAny(id)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLookup(t *testing.T) {
	d, err := Lookup("fig5")
	if err != nil || d.ID != "fig5" {
		t.Fatalf("Lookup(fig5) = %v, %v", d.ID, err)
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig5ShapeMonotone(t *testing.T) {
	fig, err := def(t, "fig5").Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("fig5 has %d series, want 3", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) < 10 {
			t.Fatalf("series %s has only %d points", s.Name, len(s.Points))
		}
		// Failure-free coordination cost grows with n, so the fraction
		// is non-increasing (up to tiny simulation noise).
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Fraction.Mean > s.Points[i-1].Fraction.Mean+0.005 {
				t.Errorf("series %s not monotone at x=%v: %v > %v", s.Name,
					s.Points[i].X, s.Points[i].Fraction.Mean, s.Points[i-1].Fraction.Mean)
			}
		}
	}
	// MTTQ ordering at the largest n: 10s costs more than 0.5s.
	s10 := fig.SeriesByName("MTTQ=10s")
	s05 := fig.SeriesByName("MTTQ=0.5s")
	if s10 == nil || s05 == nil {
		t.Fatal("expected MTTQ series missing")
	}
	last := len(s10.Points) - 1
	if s10.Points[last].Fraction.Mean >= s05.Points[last].Fraction.Mean {
		t.Fatalf("MTTQ=10s should cost more than MTTQ=0.5s at large n: %v vs %v",
			s10.Points[last].Fraction.Mean, s05.Points[last].Fraction.Mean)
	}
}

func TestFig7Structure(t *testing.T) {
	fig, err := def(t, "fig7").Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("fig7 series = %d, want 3 (r=400,800,1600)", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 5 {
			t.Fatalf("series %s points = %d, want 5", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Fraction.Mean < 0 || p.Fraction.Mean > 1 {
				t.Fatalf("fraction %v out of range", p.Fraction.Mean)
			}
		}
	}
}

func TestFig8Degradation(t *testing.T) {
	fig, err := def(t, "fig8").Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	without := fig.SeriesByName("without correlated failure")
	with := fig.SeriesByName("with correlated failure")
	if without == nil || with == nil {
		t.Fatal("fig8 series missing")
	}
	// At the largest scale the doubled failure rate must visibly hurt.
	last := len(without.Points) - 1
	if with.Points[last].Fraction.Mean >= without.Points[last].Fraction.Mean {
		t.Fatalf("generic correlated failures did not degrade the fraction: %v vs %v",
			with.Points[last].Fraction.Mean, without.Points[last].Fraction.Mean)
	}
}

func TestSweepSeedsDiffer(t *testing.T) {
	// Two series with different names must use decorrelated seeds.
	if hashName("a") == hashName("b") {
		t.Fatal("hashName collision on trivial inputs")
	}
}

func buildTestFigure() *Figure {
	mk := func(mean, half float64) stats.Interval {
		return stats.Interval{Mean: mean, HalfWide: half, Level: 0.95, N: 3}
	}
	return &Figure{
		ID: "figX", Title: "test figure", XLabel: "x", YLabel: "total useful work",
		Series: []Series{
			{Name: "s1", Points: []Point{
				{X: 1, Fraction: mk(0.5, 0.01), Total: mk(100, 5)},
				{X: 2, Fraction: mk(0.4, 0.01), Total: mk(200, 5)},
			}},
			{Name: "s2", Points: []Point{
				{X: 1, Fraction: mk(0.6, 0.02), Total: mk(150, 6)},
			}},
		},
	}
}

func TestWriteTable(t *testing.T) {
	fig := buildTestFigure()
	var sb strings.Builder
	if err := WriteTable(&sb, fig); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"figX", "s1", "s2", "100", "200", "150", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTableEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteTable(&sb, &Figure{ID: "e", Title: "empty"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty figure not flagged")
	}
}

func TestWriteCSV(t *testing.T) {
	fig := buildTestFigure()
	var sb strings.Builder
	if err := WriteCSV(&sb, fig); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 { // header + 3 points
		t.Fatalf("CSV has %d lines, want 4:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[0], "figure,series,x,y") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
	if !strings.Contains(lines[1], "figX") || !strings.Contains(lines[1], `"s1"`) {
		t.Fatalf("CSV row wrong: %s", lines[1])
	}
}

func TestYValueSelectsMeasure(t *testing.T) {
	fig := buildTestFigure()
	p := fig.Series[0].Points[0]
	if fig.YValue(p) != 100 {
		t.Fatalf("total figure YValue = %v, want 100", fig.YValue(p))
	}
	fig.YLabel = "useful work fraction"
	if fig.YValue(p) != 0.5 {
		t.Fatalf("fraction figure YValue = %v, want 0.5", fig.YValue(p))
	}
}

func TestArgMax(t *testing.T) {
	fig := buildTestFigure()
	x, y, ok := fig.ArgMax(fig.SeriesByName("s1"))
	if !ok || x != 2 || y != 200 {
		t.Fatalf("ArgMax = (%v, %v, %v), want (2, 200, true)", x, y, ok)
	}
	if _, _, ok := fig.ArgMax(nil); ok {
		t.Fatal("ArgMax of nil series should be !ok")
	}
	if fig.SeriesByName("nope") != nil {
		t.Fatal("SeriesByName should return nil for unknown series")
	}
}

// TestEveryExperimentRunsAtTinyScale smoke-tests every registered
// experiment (paper figures and extras): each must produce non-empty,
// finite series with the expected structure. Shape fidelity at real scale
// is covered by the benchmarks, ccfigures -report and the stored results.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry")
	}
	opts := runner.Options{Replications: 1, Warmup: 20, Measure: 120, Seed: 77}
	for _, def := range append(All(), Extras()...) {
		def := def
		t.Run(def.ID, func(t *testing.T) {
			fig, err := def.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID != def.ID {
				t.Fatalf("figure ID %q != experiment ID %q", fig.ID, def.ID)
			}
			if len(fig.Series) == 0 {
				t.Fatal("no series")
			}
			for _, s := range fig.Series {
				if len(s.Points) == 0 {
					t.Fatalf("series %q empty", s.Name)
				}
				for _, p := range s.Points {
					if math.IsNaN(p.Fraction.Mean) || math.IsInf(p.Fraction.Mean, 0) {
						t.Fatalf("series %q: invalid fraction at x=%v", s.Name, p.X)
					}
					if p.Fraction.Mean < 0 || p.Fraction.Mean > 1.0+1e-9 {
						t.Fatalf("series %q: fraction %v out of range at x=%v",
							s.Name, p.Fraction.Mean, p.X)
					}
				}
			}
		})
	}
}
