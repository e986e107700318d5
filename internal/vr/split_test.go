package vr

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// walk is a toy Trajectory: a biased ±1 random walk whose importance level
// is the running maximum position. Deterministic in its seed history, like
// the SAN trajectories the driver really runs.
type walk struct {
	p   float64 // P[step up]
	src *rng.Stream
	pos int
	max int
	t   float64
}

func newWalk(p float64) *walk { return &walk{p: p, src: rng.New(0)} }

func (w *walk) Prime(seed uint64) {
	w.src.Reseed(seed)
	w.pos, w.max, w.t = 0, 0, 0
}

func (w *walk) Step() bool {
	if w.src.Float64() < w.p {
		w.pos++
	} else {
		w.pos--
	}
	if w.pos > w.max {
		w.max = w.pos
	}
	w.t++
	return true
}

func (w *walk) Now() float64       { return w.t }
func (w *walk) Level() int         { return w.max }
func (w *walk) Reseed(seed uint64) { w.src.Reseed(seed) }

func TestSplitEstimateDeterministic(t *testing.T) {
	opts := SplitOptions{Level: 4, Effort: 100, Horizon: 50, Seed: 7}
	a, err := SplitEstimate(newWalk(0.35), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SplitEstimate(newWalk(0.35), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Probability != b.Probability || a.Steps != b.Steps || a.Trials != b.Trials {
		t.Fatalf("same options, different results: %+v vs %+v", a, b)
	}
	if len(a.StageFractions) != 4 {
		t.Fatalf("want 4 stage fractions, got %v", a.StageFractions)
	}
}

// The tentpole pin: fixed-effort splitting must agree with brute force in
// expectation. A large brute-force run fixes the reference; the mean of
// many independent splitting estimates must land inside a generous CI of
// its own spread around that reference.
func TestSplitEstimateUnbiasedVsBruteForce(t *testing.T) {
	const level = 7
	w := newWalk(0.35)
	ref, err := BruteForce(w, SplitOptions{Level: level, Effort: 400000, Horizon: 60, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Probability <= 0 || ref.Probability > 0.05 {
		t.Fatalf("reference probability %v not in the rare band this test assumes", ref.Probability)
	}
	var acc stats.Accumulator
	for k := 0; k < 120; k++ {
		est, err := SplitEstimate(w, SplitOptions{Level: level, Effort: 300, Horizon: 60, Seed: uint64(1000 + k)})
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(est.Probability)
	}
	// 99.9%-ish band: 4 standard errors plus the reference's own noise.
	refSE := math.Sqrt(ref.Probability * (1 - ref.Probability) / 400000)
	tol := 4*acc.StdErr() + 4*refSE
	if diff := math.Abs(acc.Mean() - ref.Probability); diff > tol {
		t.Fatalf("splitting mean %v vs brute force %v: |Δ| = %v exceeds tolerance %v",
			acc.Mean(), ref.Probability, diff, tol)
	}
}

// Splitting must resolve events far too rare for an equal-trial brute-force
// run: at walk parameters where p_hit ~ 1e-6, a 3000-trial brute force
// almost surely reports zero while splitting still produces a positive,
// sane estimate.
func TestSplitEstimateReachesRareLevels(t *testing.T) {
	w := newWalk(0.3)
	opts := SplitOptions{Level: 9, Effort: 1000, Horizon: 200, Seed: 5}
	est, err := SplitEstimate(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.Probability <= 0 {
		t.Fatalf("splitting found no path to level %d; stage fractions %v", opts.Level, est.StageFractions)
	}
	if est.Probability > 1e-3 {
		t.Fatalf("probability %v implausibly large for level %d of a 0.3-up walk", est.Probability, opts.Level)
	}
	brute, err := BruteForce(w, SplitOptions{Level: 9, Effort: 3000, Horizon: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if brute.Probability != 0 {
		t.Logf("brute force got lucky: %v", brute.Probability)
	}
}

func TestSplitEstimateZeroStageShortCircuits(t *testing.T) {
	// An always-down walk can never climb: stage 0 crosses nothing.
	est, err := SplitEstimate(newWalk(0), SplitOptions{Level: 3, Effort: 50, Horizon: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Probability != 0 {
		t.Fatalf("impossible event estimated at %v", est.Probability)
	}
	if len(est.StageFractions) != 1 || est.StageFractions[0] != 0 {
		t.Fatalf("want short-circuit after stage 0, got fractions %v", est.StageFractions)
	}
}

func TestSplitOptionValidation(t *testing.T) {
	w := newWalk(0.5)
	if _, err := SplitEstimate(w, SplitOptions{Level: 0, Effort: 10, Horizon: 1}); err == nil {
		t.Error("level 0 accepted")
	}
	if _, err := SplitEstimate(w, SplitOptions{Level: 1, Effort: 1, Horizon: 1}); err == nil {
		t.Error("effort 1 accepted")
	}
	if _, err := SplitEstimate(w, SplitOptions{Level: 1, Effort: 10, Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := BruteForce(w, SplitOptions{Level: 1, Effort: 0, Horizon: 1}); err == nil {
		t.Error("brute force effort 0 accepted")
	}
}

func TestModeParseRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"", ModeNone}, {"none", ModeNone}, {"antithetic", ModeAntithetic}} {
		m, err := ParseMode(tc.in)
		if err != nil || m != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, m, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
	if ModeAntithetic.String() != "antithetic" || ModeNone.String() != "none" {
		t.Error("mode String round trip broken")
	}
}

// A Mode field encodes as its flag spelling, omitted when plain, and
// decodes back; an unknown mode fails both ways.
func TestModeJSON(t *testing.T) {
	type doc struct {
		VR Mode `json:"vr,omitempty"`
	}
	for _, tc := range []struct {
		mode Mode
		json string
	}{{ModeNone, `{}`}, {ModeAntithetic, `{"vr":"antithetic"}`}} {
		data, err := json.Marshal(doc{tc.mode})
		if err != nil || string(data) != tc.json {
			t.Errorf("marshal %v = %s, %v; want %s", tc.mode, data, err, tc.json)
		}
		var back doc
		if err := json.Unmarshal(data, &back); err != nil || back.VR != tc.mode {
			t.Errorf("unmarshal %s = %v, %v", data, back.VR, err)
		}
	}
	if _, err := json.Marshal(doc{Mode(7)}); err == nil {
		t.Error("unknown mode marshalled")
	}
	var back doc
	if err := json.Unmarshal([]byte(`{"vr":"bogus"}`), &back); err == nil {
		t.Error("unknown mode unmarshalled")
	}
}

// A mode's fold pairs exactly when the mode is antithetic, and the report
// follows the fold: none for a plain fold, the pair statistics otherwise.
func TestModeFoldAndReport(t *testing.T) {
	if NewReport(ModeNone.Fold(0.95).AddAll([]float64{1, 2, 3, 4}).Paired()) != nil {
		t.Error("plain fold produced a variance-reduction report")
	}
	f := ModeAntithetic.Fold(0.95).AddAll([]float64{1, 3, 2, 2, 4, 0})
	rep := NewReport(f.Paired())
	if rep == nil || rep.Mode != "antithetic" || rep.Pairs != 3 || f.N() != 3 {
		t.Fatalf("antithetic report = %+v over %d observations", rep, f.N())
	}
	// Every pair mean is 2: zero pair variance clamps the factor finite.
	if rep.Factor != math.MaxFloat64 {
		t.Errorf("degenerate factor = %v, want MaxFloat64", rep.Factor)
	}
}

func TestBuildSyncReport(t *testing.T) {
	names := []string{"fail", "rec"}
	drawsA := [][]uint64{{3, 1}, {4, 2}, {5, 1}}
	drawsB := [][]uint64{{3, 1}, {4, 9}, {5, 1}}
	outA := []float64{0.90, 0.91, 0.92}
	outB := []float64{0.80, 0.81, 0.82}
	rep := BuildSyncReport(names, drawsA, drawsB, outA, outB)
	if rep.Pairs != 3 {
		t.Fatalf("pairs = %d", rep.Pairs)
	}
	if math.Abs(rep.InSyncFraction-2.0/3) > 1e-12 {
		t.Fatalf("in-sync fraction = %v, want 2/3", rep.InSyncFraction)
	}
	if rep.Components[0].MatchedPairs != 3 || rep.Components[1].MatchedPairs != 2 {
		t.Fatalf("component matches = %+v", rep.Components)
	}
	if rep.OutputCorrelation < 0.99 {
		t.Fatalf("perfectly correlated outputs scored %v", rep.OutputCorrelation)
	}
	if rep.CIShrinkFactor < 100 {
		t.Fatalf("constant difference should shrink CI hugely, got %v", rep.CIShrinkFactor)
	}
}
