package experiments

import (
	"math"
	"testing"
)

func TestExtraPhaseCheckAgrees(t *testing.T) {
	fig, err := def(t, "xphasecheck").Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want paired reward/span", len(fig.Series))
	}
	rw := fig.SeriesByName("reward accounting")
	sp := fig.SeriesByName("span accounting")
	if rw == nil || sp == nil {
		t.Fatal("paired series missing")
	}
	if len(rw.Points) != len(phaseCheckVariants()) || len(sp.Points) != len(rw.Points) {
		t.Fatalf("points: reward %d, span %d, want %d", len(rw.Points), len(sp.Points), len(phaseCheckVariants()))
	}
	for i := range rw.Points {
		// Same trajectories, two accountings: means agree to round-off,
		// far inside the CI half-width the claim checker allows.
		if d := math.Abs(rw.Points[i].Fraction.Mean - sp.Points[i].Fraction.Mean); d > 1e-9 {
			t.Errorf("variant %d: Δ = %g", i, d)
		}
	}
	for _, res := range CheckClaims(fig) {
		if !res.Pass {
			t.Errorf("claim failed: %s — %s", res.Claim, res.Detail)
		}
	}
}

func TestCheckSpanAgreementRejectsDrift(t *testing.T) {
	fig, err := def(t, "xphasecheck").Run(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one span mean beyond the tolerance: the claim must fail.
	sp := fig.SeriesByName("span accounting")
	sp.Points[0].Fraction.Mean += 10 * (fig.SeriesByName("reward accounting").Points[0].Fraction.HalfWide + 1e-9)
	var failed bool
	for _, res := range CheckClaims(fig) {
		if !res.Pass {
			failed = true
		}
	}
	if !failed {
		t.Fatal("claim checker accepted a drifted span estimate")
	}
}
