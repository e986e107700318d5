package scenario

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/fstest"

	"repro/internal/model"
)

// TestBuiltinCatalog pins the catalog's shape: it must load, hold at least
// the nine scenarios the CLIs advertise, and include the six legacy
// variants the differential suite pins bit-identically.
func TestBuiltinCatalog(t *testing.T) {
	reg := Builtin()
	names := reg.Names()
	if len(names) < 9 {
		t.Fatalf("builtin catalog has %d scenarios (%v); want at least 9", len(names), names)
	}
	legacy := []string{"base", "max-of-n", "timeout", "error-propagation", "blocking-write", "incremental-ckpt"}
	for _, want := range legacy {
		s, err := reg.Get(want)
		if err != nil {
			t.Errorf("legacy scenario missing: %v", err)
			continue
		}
		if !slices.Contains(s.Tags, "legacy") {
			t.Errorf("scenario %q is not tagged legacy", want)
		}
	}
	for _, s := range reg.All() {
		if s.Citation == "" {
			t.Errorf("scenario %q has no citation", s.Name)
		}
		if len(s.Tags) == 0 {
			t.Errorf("scenario %q has no tags", s.Name)
		}
	}
}

// TestSmokeRunEveryScenario builds and runs one deterministic replication
// of every embedded scenario — the test behind `make validate-scenarios`.
// A scenario whose config is mis-unitized (minutes where hours belong, MB
// where bytes belong) lands far outside its expected useful-work band.
func TestSmokeRunEveryScenario(t *testing.T) {
	const horizon = 2000.0
	for _, s := range Builtin().All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			cfg, err := s.ClusterConfig()
			if err != nil {
				t.Fatal(err)
			}
			in, err := model.New(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			mt, err := in.RunSteadyState(horizon/2, horizon/2)
			if err != nil {
				t.Fatal(err)
			}
			u := mt.UsefulWorkFraction
			if u <= 0 || u > 1 {
				t.Fatalf("useful-work fraction %v outside (0,1]", u)
			}
			t.Logf("useful-work fraction %.4f", u)
			if e := s.Expect; e != nil && (u < e.UsefulFractionMin || u > e.UsefulFractionMax) {
				t.Errorf("useful-work fraction %.4f outside expected [%v, %v]",
					u, e.UsefulFractionMin, e.UsefulFractionMax)
			}
		})
	}
}

// TestLoadDirOverridesAndExtends checks the user-directory mechanism: a
// same-named file replaces the built-in, a new name extends the catalog.
func TestLoadDirOverridesAndExtends(t *testing.T) {
	dir := t.TempDir()
	override := `{
		"name": "base",
		"title": "Overridden base",
		"description": "Base with a smaller machine.",
		"citation": "local",
		"tags": ["local"],
		"config": {"processors": 1024}
	}`
	extra := `{
		"name": "my-experiment",
		"title": "Local experiment",
		"description": "A user-supplied setup.",
		"citation": "local",
		"tags": ["local"],
		"config": {"mttfYears": 1}
	}`
	for name, body := range map[string]string{"base.json": override, "extra.json": extra} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg := Builtin()
	before := len(reg.Names())
	if err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Names()); got != before+1 {
		t.Fatalf("catalog size %d after override+extend; want %d", got, before+1)
	}
	base, err := reg.Get("base")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := base.ClusterConfig()
	if err != nil {
		t.Fatal(err)
	}
	if base.Title != "Overridden base" || cfg.Processors != 1024 {
		t.Fatalf("override not applied: %+v", base)
	}
	if _, err := reg.Get("my-experiment"); err != nil {
		t.Fatal(err)
	}
}

// TestParseRejectsUnknownFields covers typo detection at both nesting
// levels of a scenario file.
func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"name": "x", "titel": "typo"}`)); err == nil {
		t.Error("top-level typo accepted")
	}
	if _, err := Parse(strings.NewReader(`{"name": "x", "config": {"processros": 5}}`)); err == nil {
		t.Error("nested config typo accepted")
	}
}

// TestRegistryValidation covers Add/Get error paths.
func TestRegistryValidation(t *testing.T) {
	reg := New()
	bad := Scenario{Name: "Bad Name", Title: "t", Description: "d"}
	if err := reg.Add(bad); err == nil {
		t.Error("malformed name accepted")
	}
	if err := reg.Add(Scenario{Name: "no-title", Description: "d"}); err == nil {
		t.Error("missing title accepted")
	}
	ok := Scenario{Name: "fine", Title: "t", Description: "d"}
	if err := reg.Add(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("nope"); err == nil || !strings.Contains(err.Error(), "fine") {
		t.Errorf("unknown-name error should list registered names, got: %v", err)
	}
}

// TestLoadDirRejectsInvalid ensures a broken user file fails loudly with
// the file path in the error.
func TestLoadDirRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.json")
	if err := os.WriteFile(path, []byte(`{"name": "broken", "title": "t", "description": "d", "config": {"coordination": "psychic"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Builtin().LoadDir(dir)
	if err == nil {
		t.Fatal("invalid scenario file accepted")
	}
	if !strings.Contains(err.Error(), "broken.json") {
		t.Errorf("error does not name the file: %v", err)
	}
}

// Builtin hands each caller its own registry: a scenario added to one is
// absent from the next.
func TestBuiltinRegistriesAreIndependent(t *testing.T) {
	a := Builtin()
	if err := a.Add(Scenario{Name: "only-in-a", Title: "t", Description: "d"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Builtin().Get("only-in-a"); err == nil {
		t.Error("a scenario added to one Builtin registry is in the next")
	}
}

// A catalog that does not parse panics rather than loading partially.
func TestCorruptCatalogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("corrupt catalog did not panic")
		}
	}()
	catalog(fstest.MapFS{"scenarios/bad.json": {Data: []byte(`{"name": "bad", "title": "t", "description": "d", "config": {"processros": 5}}`)}})
}
