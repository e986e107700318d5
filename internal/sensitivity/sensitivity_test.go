package sensitivity

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/runner"
)

func quickOpts() runner.Options {
	return runner.Options{Replications: 3, Warmup: 100, Measure: 800, Seed: 13}
}

func TestAnalyzeBaseSystem(t *testing.T) {
	// At the paper's base point (64K procs, MTTF 1yr) failures dominate,
	// so MTTF must be the most sensitive parameter, with a positive
	// elasticity; MTTR's must be negative.
	a, err := Analyze(cluster.Default(), nil, 1.5, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Effects) != len(AllParameters()) {
		t.Fatalf("effects = %d", len(a.Effects))
	}
	if a.MostSensitive() != ParamMTTF {
		t.Fatalf("most sensitive = %s, want mttf (effects: %+v)", a.MostSensitive(), a.Effects)
	}
	byParam := map[Parameter]Effect{}
	for _, e := range a.Effects {
		byParam[e.Parameter] = e
	}
	if byParam[ParamMTTF].Elasticity <= 0 {
		t.Fatalf("MTTF elasticity = %v, want positive", byParam[ParamMTTF].Elasticity)
	}
	if byParam[ParamMTTR].Elasticity >= 0 {
		t.Fatalf("MTTR elasticity = %v, want negative", byParam[ParamMTTR].Elasticity)
	}
	if byParam[ParamInterval].Elasticity >= 0 {
		t.Fatalf("interval elasticity = %v, want negative at 30min base", byParam[ParamInterval].Elasticity)
	}
}

func TestAnalyzeSubset(t *testing.T) {
	a, err := Analyze(cluster.Default(), []Parameter{ParamCkptSize}, 2.0, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Effects) != 1 || a.Effects[0].Parameter != ParamCkptSize {
		t.Fatalf("effects = %+v", a.Effects)
	}
	// Doubling the checkpoint size doubles dump+write times: small
	// negative effect.
	if a.Effects[0].FractionDiff.Mean >= 0 {
		t.Fatalf("bigger checkpoints should hurt: %v", a.Effects[0].FractionDiff)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(cluster.Default(), nil, 1.0, quickOpts()); err == nil {
		t.Error("factor 1 accepted")
	}
	if _, err := Analyze(cluster.Default(), nil, -0.5, quickOpts()); err == nil {
		t.Error("negative factor accepted")
	}
	if _, err := Analyze(cluster.Default(), []Parameter{"nonsense"}, 1.2, quickOpts()); err == nil {
		t.Error("unknown parameter accepted")
	}
	bad := cluster.Default()
	bad.Processors = 0
	if _, err := Analyze(bad, nil, 1.2, quickOpts()); err == nil {
		t.Error("invalid base config accepted")
	}
}

// The per-parameter comparisons run concurrently and each journals its
// legs, so a shared journal would interleave them in scheduling order:
// Analyze must refuse one before simulating anything.
func TestAnalyzeRejectsJournal(t *testing.T) {
	var buf bytes.Buffer
	o := quickOpts()
	o.Workers = 2
	o.Journal = obs.NewJournal(&buf)
	if _, err := Analyze(cluster.Default(), []Parameter{ParamMTTF, ParamMTTR}, 1.2, o); err == nil {
		t.Error("journal accepted")
	}
	if buf.Len() != 0 {
		t.Errorf("rejected analysis journaled %d bytes", buf.Len())
	}
}

func TestApplyCoversAllParameters(t *testing.T) {
	base := cluster.Default()
	for _, p := range AllParameters() {
		cfg, err := apply(base, p, 1.25)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if cfg == base {
			t.Fatalf("%s: perturbation did not change the config", p)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: perturbed config invalid: %v", p, err)
		}
	}
}
