package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// baseFlags declares a CLI's configuration flags with their usual
// defaults plus one flag outside the parameter vocabulary.
func baseFlags(args ...string) *flag.FlagSet {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Int("procs", 65536, "")
	fs.Float64("mttf-years", 1, "")
	fs.Float64("r", 400, "")
	fs.Int("reps", 3, "")
	if err := fs.Parse(args); err != nil {
		panic(err)
	}
	return fs
}

// BaseConfig applies only the explicitly set config flags, over the
// defaults, a -config file or a -scenario alike, never a skipped one, and
// refuses both bases at once.
func TestBaseConfig(t *testing.T) {
	file := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(file, []byte(`{"processors": 16384, "mttfYears": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := Builtin().Get("error-propagation")
	if err != nil {
		t.Fatal(err)
	}
	scen, err := base.ClusterConfig()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		fs               *flag.FlagSet
		config, scenario string
		skip             []string
		procs            int
		mttf, r          float64
	}{
		{"unset flags leave the defaults", baseFlags(), "", "", nil, 65536, cluster.Years(1), cluster.Default().CorrelatedFactor},
		{"explicit flag overrides defaults", baseFlags("-r", "5"), "", "", nil, 65536, cluster.Years(1), 5},
		{"skip leaves r alone", baseFlags("-r", "5"), "", "", []string{"r"}, 65536, cluster.Years(1), cluster.Default().CorrelatedFactor},
		{"file keeps its values", baseFlags(), file, "", nil, 16384, cluster.Years(2), cluster.Default().CorrelatedFactor},
		{"explicit flag overrides file", baseFlags("-mttf-years", "3"), file, "", nil, 16384, cluster.Years(3), cluster.Default().CorrelatedFactor},
		{"scenario keeps its values", baseFlags(), "", "error-propagation", nil, scen.Processors, scen.MTTFPerNode, scen.CorrelatedFactor},
		{"explicit flag overrides scenario", baseFlags("-procs", "8192"), "", "error-propagation", nil, 8192, scen.MTTFPerNode, scen.CorrelatedFactor},
	} {
		cfg, err := Builtin().BaseConfig(tc.fs, tc.config, tc.scenario, tc.skip...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cfg.Processors != tc.procs || cfg.MTTFPerNode != tc.mttf || cfg.CorrelatedFactor != tc.r {
			t.Errorf("%s: procs %d mttf %v r %v, want %d %v %v", tc.name,
				cfg.Processors, cfg.MTTFPerNode, cfg.CorrelatedFactor, tc.procs, tc.mttf, tc.r)
		}
	}
	for _, tc := range []struct {
		fs               *flag.FlagSet
		config, scenario string
		want             string
	}{
		{baseFlags(), file, "base", "mutually exclusive"},
		{baseFlags(), "/missing.json", "", "no such file"},
		{baseFlags(), "", "nope", "nope"},
	} {
		_, err := Builtin().BaseConfig(tc.fs, tc.config, tc.scenario)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("BaseConfig(%q, %q): %v, want an error containing %q", tc.config, tc.scenario, err, tc.want)
		}
	}
}

// Flags declared from every vocabulary entry, none set, give exactly the
// defaults.
func TestBaseConfigDeclaredFlagsKeepDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cluster.DeclareFlags(fs, cluster.ParamNames()...)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := Builtin().BaseConfig(fs, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if cfg != cluster.Default() {
		t.Errorf("BaseConfig = %+v, want cluster.Default() %+v", cfg, cluster.Default())
	}
}
