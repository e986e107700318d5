package cluster

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestUnitConversions(t *testing.T) {
	if Seconds(3600) != 1 {
		t.Error("Seconds(3600) != 1h")
	}
	if Minutes(30) != 0.5 {
		t.Error("Minutes(30) != 0.5h")
	}
	if Years(1) != 8766 {
		t.Error("Years(1) != 8766h")
	}
}

// TestTable3Defaults pins the default configuration to Table 3 of the
// paper (experiment index entry "Table 3").
func TestTable3Defaults(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"processors", float64(c.Processors), 65536},
		{"procs/node", float64(c.ProcsPerNode), 8},
		{"compute nodes per I/O node", float64(c.ComputePerIONode), 64},
		{"MTTF per node (h)", c.MTTFPerNode, 8766},
		{"MTTR (h)", c.MTTR, Minutes(10)},
		{"MTTR I/O (h)", c.MTTRIONodes, Minutes(1)},
		{"reboot (h)", c.RebootTime, 1},
		{"interval (h)", c.CheckpointInterval, 0.5},
		{"MTTQ (h)", c.MTTQ, Seconds(10)},
		{"cycle period (h)", c.IOComputeCyclePeriod, Minutes(3)},
		{"correlated window (h)", c.CorrelatedWindow, Minutes(3)},
		{"checkpoint size (B)", c.CheckpointSizePerNode, 256e6},
		{"I/O data per node (B)", c.IODataPerNode, 10e6},
	}
	for _, ck := range checks {
		if math.Abs(ck.got-ck.want) > 1e-9*math.Max(1, math.Abs(ck.want)) {
			t.Errorf("%s = %v, want %v", ck.name, ck.got, ck.want)
		}
	}
	if c.ComputeFraction < 0.88 || c.ComputeFraction > 1.0 {
		t.Errorf("compute fraction %v outside Table 3 range [0.88,1.0]", c.ComputeFraction)
	}
}

func TestDerivedCounts(t *testing.T) {
	c := Default()
	if c.Nodes() != 8192 {
		t.Errorf("nodes = %d, want 8192", c.Nodes())
	}
	if c.IONodes() != 128 {
		t.Errorf("ionodes = %d, want 128", c.IONodes())
	}
	// BG/L-like scaling: 64K nodes → 1024 I/O nodes (paper Section 3.1).
	c.Processors = 64 * 1024 * 8
	if c.Nodes() != 65536 || c.IONodes() != 1024 {
		t.Errorf("BG/L scale: nodes=%d ionodes=%d", c.Nodes(), c.IONodes())
	}
	// Small systems still get one I/O node.
	c.Processors = 8
	c.ProcsPerNode = 8
	if c.IONodes() != 1 {
		t.Errorf("1-node system ionodes = %d, want 1", c.IONodes())
	}
}

func TestFailureRates(t *testing.T) {
	c := Default()
	// 8192 nodes at MTTF 1 year → ~0.934 failures/hour.
	if got, want := c.ComputeFailureRate(), 8192.0/8766.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("compute failure rate = %v, want %v", got, want)
	}
	if got, want := c.IOFailureRate(), 128.0/8766.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("io failure rate = %v, want %v", got, want)
	}
	if got, want := c.NodeFailureRate(), 1/8766.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("node failure rate = %v, want %v", got, want)
	}
}

// TestGenericCorrelatedRates pins the Section 6 identity λs = nλ(1+αr):
// with r=400 and α=0.0025 the system failure rate doubles (experiment
// index entry "Table 2" / Figure 8 parameters), and with α=0 generic
// correlation adds nothing.
func TestGenericCorrelatedRates(t *testing.T) {
	for _, tc := range []struct {
		procs     int
		mttfYears float64
		alpha, r  float64
		factor    float64 // λs/(nλ) = 1 + αr
	}{
		{Default().Processors, Default().MTTFPerNode / Years(1), 0.0025, 400, 2},
		{32768 * 8, 3, 0.0025, 400, 2},
		{100 * 8, 100, 0, 400, 1},
	} {
		c := Default()
		c.Processors = tc.procs
		c.MTTFPerNode = Years(tc.mttfYears)
		c.CorrelatedFactor = tc.r
		c.GenericCorrelatedCoefficient = tc.alpha
		indep := c.ComputeFailureRate()
		total := indep + c.GenericCorrelatedRate()
		if want := tc.factor * indep; math.Abs(total-want)/want > 1e-12 {
			t.Errorf("%d procs, α=%v, r=%v: λs = %v, want %v×nλ = %v", tc.procs, tc.alpha, tc.r, total, tc.factor, want)
		}
	}
}

func TestTransferTimes(t *testing.T) {
	c := Default()
	// 64 × 256 MB over 350 MB/s ≈ 46.8 s.
	if got, want := c.CheckpointDumpTime()*SecondsPerHour, 64*256.0/350.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("dump time = %v s, want %v s", got, want)
	}
	// 64 × 256 MB over 125 MB/s ≈ 131 s.
	if got, want := c.CheckpointFSWriteTime()*SecondsPerHour, 64*256.0/125.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("FS write time = %v s, want %v s", got, want)
	}
	if c.CheckpointFSReadTime() != c.CheckpointFSWriteTime() {
		t.Error("FS read time should equal write time")
	}
	// 64 × 10 MB over 125 MB/s ≈ 5.12 s.
	if got, want := c.AppIOBackgroundWriteTime()*SecondsPerHour, 64*10.0/125.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("app background write = %v s, want %v s", got, want)
	}
}

func TestAppPhaseSplit(t *testing.T) {
	c := Default()
	c.ComputeFraction = 0.9
	sum := c.AppComputeTime() + c.AppIOForegroundTime()
	if math.Abs(sum-c.IOComputeCyclePeriod) > 1e-12 {
		t.Fatalf("phases sum to %v, want %v", sum, c.IOComputeCyclePeriod)
	}
	if math.Abs(c.AppComputeTime()-0.9*c.IOComputeCyclePeriod) > 1e-12 {
		t.Fatal("compute phase wrong")
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero processors", func(c *Config) { c.Processors = 0 }, "Processors"},
		{"zero procs/node", func(c *Config) { c.ProcsPerNode = 0 }, "ProcsPerNode"},
		{"indivisible", func(c *Config) { c.Processors = 100; c.ProcsPerNode = 8 }, "divisible"},
		{"zero group", func(c *Config) { c.ComputePerIONode = 0 }, "ComputePerIONode"},
		{"zero mttf", func(c *Config) { c.MTTFPerNode = 0 }, "MTTF"},
		{"zero mttr", func(c *Config) { c.MTTR = 0 }, "MTTR"},
		{"zero io mttr", func(c *Config) { c.MTTRIONodes = 0 }, "MTTRIONodes"},
		{"zero reboot", func(c *Config) { c.RebootTime = 0 }, "Reboot"},
		{"zero threshold", func(c *Config) { c.SevereFailureThreshold = 0 }, "SevereFailureThreshold"},
		{"zero interval", func(c *Config) { c.CheckpointInterval = 0 }, "CheckpointInterval"},
		{"negative mttq", func(c *Config) { c.MTTQ = -1 }, "MTTQ"},
		{"negative timeout", func(c *Config) { c.Timeout = -1 }, "Timeout"},
		{"zero cycle", func(c *Config) { c.IOComputeCyclePeriod = 0 }, "IOComputeCyclePeriod"},
		{"bad fraction", func(c *Config) { c.ComputeFraction = 1.5 }, "ComputeFraction"},
		{"zero bandwidth", func(c *Config) { c.BandwidthToIONode = 0 }, "bandwidth"},
		{"zero ckpt size", func(c *Config) { c.CheckpointSizePerNode = 0 }, "CheckpointSize"},
		{"negative io data", func(c *Config) { c.IODataPerNode = -1 }, "IOData"},
		{"bad pe", func(c *Config) { c.ProbCorrelated = 2 }, "ProbCorrelated"},
		{"pe without r", func(c *Config) { c.ProbCorrelated = 0.1; c.CorrelatedFactor = 0 }, "CorrelatedFactor"},
		{"bad alpha", func(c *Config) { c.GenericCorrelatedCoefficient = -0.1 }, "GenericCorrelatedCoefficient"},
		{"alpha without r", func(c *Config) { c.GenericCorrelatedCoefficient = 0.1; c.CorrelatedFactor = 0 }, "CorrelatedFactor"},
		{"bad coordination", func(c *Config) { c.Coordination = 0 }, "Coordination"},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := Default()
			m.mut(&c)
			err := c.Validate()
			if err == nil || !strings.Contains(err.Error(), m.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, m.want)
			}
		})
	}
}

func TestCoordinationModeString(t *testing.T) {
	if CoordFixed.String() != "fixed" || CoordNone.String() != "none" || CoordMaxOfN.String() != "max-of-n" {
		t.Fatal("mode strings wrong")
	}
	if !strings.Contains(CoordinationMode(9).String(), "9") {
		t.Fatal("unknown mode string should include the value")
	}
}

// TestScalingProperty: failure rate scales linearly in node count and
// inversely in MTTF for arbitrary valid configs.
func TestScalingProperty(t *testing.T) {
	f := func(nodesRaw uint16, mttfRaw uint16) bool {
		nodes := int(nodesRaw)%4096 + 1
		mttfYears := float64(mttfRaw%25) + 0.5
		c := Default()
		c.ProcsPerNode = 8
		c.Processors = nodes * 8
		c.MTTFPerNode = Years(mttfYears)
		want := float64(nodes) / Years(mttfYears)
		return math.Abs(c.ComputeFailureRate()-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPresets(t *testing.T) {
	bg := BlueGeneL()
	if err := bg.Validate(); err != nil {
		t.Fatalf("BlueGeneL invalid: %v", err)
	}
	if bg.Nodes() != 65536 || bg.IONodes() != 1024 || bg.Processors != 131072 {
		t.Fatalf("BlueGeneL shape wrong: %d nodes, %d ionodes, %d procs",
			bg.Nodes(), bg.IONodes(), bg.Processors)
	}
	q := ASCIQ()
	if err := q.Validate(); err != nil {
		t.Fatalf("ASCIQ invalid: %v", err)
	}
	if q.Nodes() != 2048 || q.Processors != 8192 {
		t.Fatalf("ASCIQ shape wrong: %d nodes, %d procs", q.Nodes(), q.Processors)
	}
	if q.MTTFPerNode != Years(1) {
		t.Fatalf("ASCIQ MTTF = %v", q.MTTFPerNode)
	}
}
