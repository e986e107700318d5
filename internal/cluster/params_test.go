package cluster

import (
	"flag"
	"strings"
	"testing"
)

func TestParseCoordination(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CoordinationMode
		err  string
	}{
		{"fixed", CoordFixed, ""},
		{"none", CoordNone, ""},
		{"max-of-n", CoordMaxOfN, ""},
		{"", 0, `unknown coordination mode ""`},
		{"Fixed", 0, `unknown coordination mode "Fixed"`},
		{"maxofn", 0, `unknown coordination mode "maxofn"`},
	} {
		got, err := ParseCoordination(tc.in)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("ParseCoordination(%q) error = %v, want %q", tc.in, err, tc.err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseCoordination(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("ParseCoordination(%q).String() = %q", tc.in, got.String())
		}
	}
}

// TestSetParamVocabulary pins each name of the vocabulary to the field and
// unit it sets.
func TestSetParamVocabulary(t *testing.T) {
	for _, tc := range []struct {
		name, value string
		check       func(Config) bool
	}{
		{"procs", "8192", func(c Config) bool { return c.Processors == 8192 }},
		{"procs-per-node", "16", func(c Config) bool { return c.ProcsPerNode == 16 }},
		{"nodes", "1024", func(c Config) bool { return c.Processors == 1024*8 }},
		{"mttf-years", "3", func(c Config) bool { return c.MTTFPerNode == Years(3) }},
		{"mttr-min", "20", func(c Config) bool { return c.MTTR == Minutes(20) }},
		{"interval-min", "60", func(c Config) bool { return c.CheckpointInterval == Minutes(60) }},
		{"mttq-sec", "0.5", func(c Config) bool { return c.MTTQ == Seconds(0.5) }},
		{"timeout-sec", "120", func(c Config) bool { return c.Timeout == Seconds(120) }},
		{"coordination", "max-of-n", func(c Config) bool { return c.Coordination == CoordMaxOfN }},
		{"pe", "0.1", func(c Config) bool { return c.ProbCorrelated == 0.1 }},
		{"r", "400", func(c Config) bool { return c.CorrelatedFactor == 400 }},
		{"alpha", "0.0025", func(c Config) bool { return c.GenericCorrelatedCoefficient == 0.0025 }},
		{"straggler-fraction", "0.01", func(c Config) bool { return c.StragglerFraction == 0.01 }},
		{"straggler-mttq-mult", "10", func(c Config) bool { return c.StragglerMTTQMultiplier == 10 }},
		{"blocking-write", "true", func(c Config) bool { return c.BlockingCheckpointWrite }},
		{"no-buffered-recovery", "true", func(c Config) bool { return c.NoBufferedRecovery }},
		{"compute-per-io-node", "32", func(c Config) bool { return c.ComputePerIONode == 32 }},
		{"io-mttr-min", "2", func(c Config) bool { return c.MTTRIONodes == Minutes(2) }},
		{"reboot-hours", "2.5", func(c Config) bool { return c.RebootTime == 2.5 }},
		{"severe-threshold", "25", func(c Config) bool { return c.SevereFailureThreshold == 25 }},
		{"broadcast-ms", "4", func(c Config) bool { return c.BroadcastOverhead == Seconds(0.004) }},
		{"cycle-min", "6", func(c Config) bool { return c.IOComputeCyclePeriod == Minutes(6) }},
		{"compute-fraction", "0.88", func(c Config) bool { return c.ComputeFraction == 0.88 }},
		{"io-node-mbps", "700", func(c Config) bool { return c.BandwidthToIONode == 700*MB*SecondsPerHour }},
		{"fs-mbps", "250", func(c Config) bool { return c.BandwidthIOToFS == 250*MB*SecondsPerHour }},
		{"checkpoint-mb", "512", func(c Config) bool { return c.CheckpointSizePerNode == 512*MB }},
		{"io-data-mb", "20", func(c Config) bool { return c.IODataPerNode == 20*MB }},
		{"window-min", "6", func(c Config) bool { return c.CorrelatedWindow == Minutes(6) }},
		{"failure-dist", "weibull", func(c Config) bool { return c.FailureDist == FailureWeibull }},
		{"failure-shape", "0.7", func(c Config) bool { return c.FailureShape == 0.7 }},
		{"no-io-failures", "true", func(c Config) bool { return c.NoIOFailures }},
		{"p-permanent", "0.25", func(c Config) bool { return c.ProbPermanentFailure == 0.25 }},
		{"reconfig-min", "45", func(c Config) bool { return c.ReconfigurationTime == Minutes(45) }},
		{"incremental-fraction", "0.2", func(c Config) bool { return c.IncrementalFraction == 0.2 }},
		{"full-every", "4", func(c Config) bool { return c.FullCheckpointEvery == 4 }},
		{"prediction-accuracy", "0.7", func(c Config) bool { return c.FailurePredictionAccuracy == 0.7 }},
		{"migration-min", "2", func(c Config) bool { return c.MigrationTime == Minutes(2) }},
		{"adaptive-interval", "true", func(c Config) bool { return c.AdaptiveInterval }},
		{"adaptive-floor-min", "5", func(c Config) bool { return c.AdaptiveIntervalMin == Minutes(5) }},
		{"adaptive-ceiling-min", "240", func(c Config) bool { return c.AdaptiveIntervalMax == Minutes(240) }},
	} {
		c := Default()
		if err := SetParam(&c, tc.name, tc.value); err != nil {
			t.Errorf("%s=%s: %v", tc.name, tc.value, err)
			continue
		}
		if !tc.check(c) {
			t.Errorf("%s=%s did not set its field: %+v", tc.name, tc.value, c)
		}
	}
	if got, want := len(ParamNames()), 40; got != want {
		t.Errorf("vocabulary has %d names, the test covers %d", got, want)
	}
}

func TestSetParamRejects(t *testing.T) {
	c := Default()
	err := SetParam(&c, "bogus", "1")
	if err == nil || !strings.Contains(err.Error(), `unknown parameter "bogus"`) ||
		!strings.Contains(err.Error(), strings.Join(ParamNames(), ", ")) {
		t.Errorf("unknown name: %v", err)
	}
	for _, bad := range [][2]string{{"procs", "many"}, {"blocking-write", "maybe"}, {"coordination", "bogus"},
		{"procs", "8192.9"}, {"nodes", "1024.5"}, {"severe-threshold", "2.5"}, {"mttf-years", "inf"},
		{"failure-dist", "lognormal"}} {
		before := c
		if err := SetParam(&c, bad[0], bad[1]); err == nil {
			t.Errorf("%s=%s accepted", bad[0], bad[1])
		}
		if c != before {
			t.Errorf("%s=%s changed the config on error", bad[0], bad[1])
		}
	}
}

// TestDeclareFlagsRendersDefaults declares every vocabulary entry as a
// flag and applies each rendered default back through SetParam: the
// result is exactly Default(), so a flag's default can never drift from
// the configuration it describes.
func TestDeclareFlagsRendersDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	DeclareFlags(fs, ParamNames()...)
	c := Default()
	c.Processors = 1 // the procs and nodes defaults must restore it
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if err := SetParam(&c, f.Name, f.DefValue); err != nil {
			t.Errorf("-%s default %q: %v", f.Name, f.DefValue, err)
		}
		if f.Usage == "" {
			t.Errorf("-%s has no help text", f.Name)
		}
	})
	if n != len(ParamNames()) {
		t.Errorf("declared %d flags, vocabulary has %d", n, len(ParamNames()))
	}
	if c != Default() {
		t.Errorf("defaults applied = %+v, want Default() %+v", c, Default())
	}
	for name, want := range map[string]string{"procs": "65536", "mttr-min": "10", "interval-min": "30",
		"mttq-sec": "10", "coordination": "fixed", "blocking-write": "false"} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s default %q, want %q", name, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown name declared without a panic")
		}
	}()
	DeclareFlags(fs, "bogus")
}
