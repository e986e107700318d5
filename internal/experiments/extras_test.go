package experiments

import (
	"math"
	"testing"
)

func TestExtrasRegistry(t *testing.T) {
	extras := Extras()
	if len(extras) != 5 {
		t.Fatalf("extras = %d, want 5", len(extras))
	}
	for _, d := range extras {
		if d.ID == "" || d.Title == "" || d.ShapeClaim == "" || d.claims == nil {
			t.Errorf("extra %q incomplete", d.ID)
		}
	}
}

func TestLookupAny(t *testing.T) {
	if d, err := LookupAny("fig5"); err != nil || d.ID != "fig5" {
		t.Fatalf("LookupAny(fig5) = %v, %v", d.ID, err)
	}
	if d, err := LookupAny("xablations"); err != nil || d.ID != "xablations" {
		t.Fatalf("LookupAny(xablations) = %v, %v", d.ID, err)
	}
	if _, err := LookupAny("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestExtraBreakdownStructure(t *testing.T) {
	fig, err := def(t, "xbreakdown").Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("breakdown series = %d, want 5", len(fig.Series))
	}
	// At each machine size the useful + repeated + checkpointing +
	// recovery + reboot shares must not exceed 1 (useful ≤ execution).
	for i := range procSweep {
		sum := 0.0
		for _, s := range fig.Series {
			sum += s.Points[i].Fraction.Mean
		}
		if sum > 1.0+1e-6 {
			t.Fatalf("breakdown shares sum to %v at x=%v", sum, fig.Series[0].Points[i].X)
		}
		if sum < 0.9 {
			t.Fatalf("breakdown shares sum to only %v at x=%v", sum, fig.Series[0].Points[i].X)
		}
	}
	// Recovery share must grow with machine size.
	rec := fig.SeriesByName("recovery")
	first := rec.Points[0].Fraction.Mean
	last := rec.Points[len(rec.Points)-1].Fraction.Mean
	if last <= first {
		t.Fatalf("recovery share did not grow with scale: %v → %v", first, last)
	}
}

func TestExtraAblationsOrdering(t *testing.T) {
	fig, err := def(t, "xablations").Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	full := fig.SeriesByName("full design")
	blocking := fig.SeriesByName("blocking FS writes")
	nobuf := fig.SeriesByName("no buffered recovery")
	if full == nil || blocking == nil || nobuf == nil {
		t.Fatal("ablation series missing")
	}
	// The full design dominates both ablations at the small/medium sizes
	// where noise is low (allow tiny slack).
	for i := 0; i < 3; i++ {
		f := full.Points[i].Fraction.Mean
		if blocking.Points[i].Fraction.Mean > f+0.01 {
			t.Fatalf("blocking writes beat full design at x=%v", full.Points[i].X)
		}
		if nobuf.Points[i].Fraction.Mean > f+0.01 {
			t.Fatalf("no-buffer beat full design at x=%v", full.Points[i].X)
		}
	}
	if math.IsNaN(full.Points[0].Fraction.Mean) {
		t.Fatal("NaN fraction")
	}
}

func TestExtrasIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(All(), Extras()...) {
		if seen[d.ID] {
			t.Fatalf("duplicate experiment id %q", d.ID)
		}
		seen[d.ID] = true
	}
	if len(Extras()) != 5 {
		t.Fatalf("extras = %d, want 5", len(Extras()))
	}
}

func TestExtraStragglersShape(t *testing.T) {
	fig, err := def(t, "xstragglers").Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	homog := fig.SeriesByName("homogeneous")
	heavy := fig.SeriesByName("1% stragglers 100x")
	if homog == nil || heavy == nil {
		t.Fatal("straggler series missing")
	}
	last := len(homog.Points) - 1
	if heavy.Points[last].Fraction.Mean >= homog.Points[last].Fraction.Mean {
		t.Fatalf("severe stragglers did not cost coordination time: %v vs %v",
			heavy.Points[last].Fraction.Mean, homog.Points[last].Fraction.Mean)
	}
}

func TestExtraModelErrorShape(t *testing.T) {
	fig, err := def(t, "xmodelerror").Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	sim := fig.SeriesByName("simulated (SAN)")
	classic := fig.SeriesByName("classic (no coordination)")
	renewal := fig.SeriesByName("renewal (with coordination)")
	if sim == nil || classic == nil || renewal == nil {
		t.Fatal("model-error series missing")
	}
	last := len(sim.Points) - 1
	// The renewal model includes coordination cost, so it must sit at or
	// below the classic model everywhere.
	for i := range classic.Points {
		if renewal.Points[i].Fraction.Mean > classic.Points[i].Fraction.Mean+1e-9 {
			t.Fatalf("renewal above classic at x=%v", classic.Points[i].X)
		}
	}
	// The renewal prediction tracks the simulation within a few points at
	// the largest machine (both include coordination).
	gap := renewal.Points[last].Fraction.Mean - sim.Points[last].Fraction.Mean
	if gap < -0.1 || gap > 0.1 {
		t.Fatalf("renewal model far from simulation at 256K: gap = %v", gap)
	}
}
