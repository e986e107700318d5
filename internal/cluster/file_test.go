package cluster_test

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	. "repro/internal/cluster"
)

func TestEmptyJSONGivesDefaults(t *testing.T) {
	cfg, err := Load(strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	def := cluster.Default()
	if cfg.Processors != def.Processors || cfg.MTTFPerNode != def.MTTFPerNode ||
		cfg.Coordination != def.Coordination {
		t.Fatalf("empty JSON did not give defaults: %+v", cfg)
	}
}

func TestLoadOverrides(t *testing.T) {
	src := `{
		"processors": 131072,
		"mttfYears": 3,
		"intervalMinutes": 15,
		"timeoutSeconds": 100,
		"coordination": "max-of-n",
		"probCorrelated": 0.1,
		"correlatedFactor": 800,
		"noIOFailures": true,
		"computeFraction": 1.0
	}`
	cfg, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Processors != 131072 {
		t.Errorf("processors = %d", cfg.Processors)
	}
	if math.Abs(cfg.MTTFPerNode-cluster.Years(3)) > 1e-9 {
		t.Errorf("mttf = %v", cfg.MTTFPerNode)
	}
	if math.Abs(cfg.CheckpointInterval-cluster.Minutes(15)) > 1e-12 {
		t.Errorf("interval = %v", cfg.CheckpointInterval)
	}
	if math.Abs(cfg.Timeout-cluster.Seconds(100)) > 1e-12 {
		t.Errorf("timeout = %v", cfg.Timeout)
	}
	if cfg.Coordination != cluster.CoordMaxOfN {
		t.Errorf("coordination = %v", cfg.Coordination)
	}
	if cfg.ProbCorrelated != 0.1 || cfg.CorrelatedFactor != 800 {
		t.Errorf("correlated params wrong: %v %v", cfg.ProbCorrelated, cfg.CorrelatedFactor)
	}
	if !cfg.NoIOFailures || cfg.ComputeFraction != 1.0 {
		t.Errorf("switches wrong: %+v", cfg)
	}
}

func TestRoundTrip(t *testing.T) {
	orig := cluster.Default()
	orig.Processors = 262144
	orig.MTTFPerNode = cluster.Years(2)
	orig.Coordination = cluster.CoordMaxOfN
	orig.Timeout = cluster.Seconds(90)
	orig.StragglerFraction = 0.02
	orig.StragglerMTTQMultiplier = 5
	orig.ProbPermanentFailure = 0.25
	orig.ReconfigurationTime = cluster.Minutes(45)
	orig.IncrementalFraction = 0.2
	orig.FullCheckpointEvery = 4
	orig.BlockingCheckpointWrite = true

	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Processors != orig.Processors ||
		math.Abs(back.MTTFPerNode-orig.MTTFPerNode) > 1e-6 ||
		back.Coordination != orig.Coordination ||
		math.Abs(back.Timeout-orig.Timeout) > 1e-9 ||
		back.StragglerFraction != orig.StragglerFraction ||
		back.StragglerMTTQMultiplier != orig.StragglerMTTQMultiplier ||
		back.ProbPermanentFailure != orig.ProbPermanentFailure ||
		math.Abs(back.ReconfigurationTime-orig.ReconfigurationTime) > 1e-9 ||
		back.IncrementalFraction != orig.IncrementalFraction ||
		back.FullCheckpointEvery != orig.FullCheckpointEvery ||
		back.BlockingCheckpointWrite != orig.BlockingCheckpointWrite {
		t.Fatalf("round trip mismatch:\norig %+v\nback %+v", orig, back)
	}
	if math.Abs(back.BandwidthToIONode-orig.BandwidthToIONode)/orig.BandwidthToIONode > 1e-9 {
		t.Fatalf("bandwidth round trip: %v vs %v", back.BandwidthToIONode, orig.BandwidthToIONode)
	}
}

// fullFixture is a valid cluster.Config in which every field differs from
// its zero value, so the exhaustive round trip below exercises every JSON
// field of the schema at once.
func fullFixture() cluster.Config {
	c := cluster.Default()
	c.Processors = 262144
	c.ProcsPerNode = 4
	c.ComputePerIONode = 64
	c.MTTFPerNode = cluster.Years(3)
	c.MTTR = cluster.Minutes(12)
	c.MTTRIONodes = cluster.Minutes(7)
	c.RebootTime = 1.5
	c.SevereFailureThreshold = 5
	c.CheckpointInterval = cluster.Minutes(45)
	c.MTTQ = cluster.Seconds(12)
	c.Timeout = cluster.Seconds(90)
	c.BroadcastOverhead = cluster.Seconds(0.25)
	c.IOComputeCyclePeriod = cluster.Minutes(90)
	c.ComputeFraction = 0.95
	c.BandwidthToIONode = 150 * cluster.MB * cluster.SecondsPerHour
	c.BandwidthIOToFS = 30 * cluster.MB * cluster.SecondsPerHour
	c.CheckpointSizePerNode = 768 * cluster.MB
	c.IODataPerNode = 384 * cluster.MB
	c.ProbCorrelated = 0.1
	c.CorrelatedFactor = 800
	c.CorrelatedWindow = cluster.Minutes(20)
	c.GenericCorrelatedCoefficient = 0.0025
	c.Coordination = cluster.CoordMaxOfN
	c.FailureDist = cluster.FailureWeibull
	c.FailureShape = 0.7
	c.BlockingCheckpointWrite = true
	c.NoBufferedRecovery = true
	c.NoIOFailures = true
	c.StragglerFraction = 0.02
	c.StragglerMTTQMultiplier = 5
	c.ProbPermanentFailure = 0.25
	c.ReconfigurationTime = cluster.Minutes(45)
	c.IncrementalFraction = 0.2
	c.FullCheckpointEvery = 4
	c.FailurePredictionAccuracy = 0.7
	c.MigrationTime = cluster.Minutes(2)
	c.AdaptiveInterval = true
	c.AdaptiveIntervalMin = cluster.Minutes(5)
	c.AdaptiveIntervalMax = cluster.Minutes(240)
	return c
}

// TestExhaustiveRoundTrip serializes a configuration with every field set
// and checks — by reflection, so a Config field added without configio
// support fails here — that the Save→Load round trip preserves each one.
func TestExhaustiveRoundTrip(t *testing.T) {
	orig := fullFixture()
	if err := orig.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}

	// Guard: the fixture must move every field off its zero value, or the
	// comparison below would vacuously pass for a forgotten field.
	ov := reflect.ValueOf(orig)
	for i := 0; i < ov.NumField(); i++ {
		if ov.Field(i).IsZero() {
			t.Errorf("fixture leaves Config.%s at its zero value; set it so the round trip covers it",
				ov.Type().Field(i).Name)
		}
	}

	var buf bytes.Buffer
	if err := Save(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	bv := reflect.ValueOf(back)
	for i := 0; i < ov.NumField(); i++ {
		name := ov.Type().Field(i).Name
		of, bf := ov.Field(i), bv.Field(i)
		switch of.Kind() {
		case reflect.Float64:
			o, b := of.Float(), bf.Float()
			if math.Abs(b-o) > 1e-9*math.Max(1, math.Abs(o)) {
				t.Errorf("Config.%s: %v -> %v", name, o, b)
			}
		default:
			if !of.Equal(bf) {
				t.Errorf("Config.%s: %v -> %v", name, of, bf)
			}
		}
	}
}

// TestFailureModelBlock covers the nested failureModel block and its error
// paths.
func TestFailureModelBlock(t *testing.T) {
	cfg, err := Load(strings.NewReader(`{"failureModel": {"dist": "weibull", "shape": 0.7}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FailureDist != cluster.FailureWeibull || cfg.FailureShape != 0.7 {
		t.Fatalf("weibull block not applied: %v shape %v", cfg.FailureDist, cfg.FailureShape)
	}

	// An explicit exponential block is the default spelled out.
	cfg, err = Load(strings.NewReader(`{"failureModel": {"dist": "exponential"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FailureDist != cluster.FailureExponential {
		t.Fatalf("explicit exponential not applied: %v", cfg.FailureDist)
	}

	if _, err := Load(strings.NewReader(`{"failureModel": {"dist": "lognormal"}}`)); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	if _, err := Load(strings.NewReader(`{"failureModel": {"dist": "weibull"}}`)); err == nil {
		t.Fatal("weibull without shape accepted")
	}
	// Unknown keys inside the nested block must be rejected too.
	if _, err := Load(strings.NewReader(`{"failureModel": {"dist": "weibull", "shpae": 0.7}}`)); err == nil {
		t.Fatal("typo inside failureModel block accepted")
	}
}

func TestVariantFieldsValidated(t *testing.T) {
	cases := map[string]string{
		"accuracy without migration time": `{"failurePredictionAccuracy": 0.5}`,
		"migration time without accuracy": `{"migrationMinutes": 2}`,
		"adaptive without bounds":         `{"adaptiveInterval": true}`,
		"adaptive max below min":          `{"adaptiveInterval": true, "adaptiveIntervalMinMinutes": 60, "adaptiveIntervalMaxMinutes": 5}`,
		"bounds without adaptive":         `{"adaptiveIntervalMinMinutes": 5}`,
	}
	for name, src := range cases {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"processros": 5}`)); err == nil {
		t.Fatal("typo field accepted")
	}
}

func TestBadJSON(t *testing.T) {
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Fatal("broken JSON accepted")
	}
}

func TestUnknownCoordination(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"coordination": "psychic"}`)); err == nil {
		t.Fatal("unknown coordination accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	// probCorrelated without a factor fails cluster validation.
	if _, err := Load(strings.NewReader(`{"probCorrelated": 0.1}`)); err == nil {
		t.Fatal("invalid combination accepted")
	}
}

func TestSaveDefaultsLoadable(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, cluster.Default()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"processors\"") {
		t.Fatalf("serialized form unexpected:\n%s", buf.String())
	}
	if _, err := Load(&buf); err != nil {
		t.Fatal(err)
	}
}
