package cluster

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// param is one entry of the configuration vocabulary, the one
// description of a Config field: a user-facing name (with its unit), the
// config-file key that holds the same value in the same unit ("" for a
// derived name no file holds; "block.key" for a key of a nested block),
// its flag help text, how to read it off a Config (an int, float64,
// string or bool in the name's unit) and how a textual value sets it.
type param struct {
	name, key, help string
	get             func(c Config) any
	set             func(c *Config, value string) error
}

// params is the configuration vocabulary: the figure table of
// internal/experiments declares its bases, series and x axes in it,
// ccsweep sweeps any of its numeric names, the CLIs declare their
// configuration flags from it (DeclareFlags) and config files are read
// and written through it (Load, Save). Order is the order ParamNames
// lists.
var params = []param{
	intParam("procs", "processors", "total compute processors", func(c *Config) *int { return &c.Processors }),
	intParam("procs-per-node", "procsPerNode", "processors per node", func(c *Config) *int { return &c.ProcsPerNode }),
	// nodes sets the processor count from a node count at the current
	// processors per node, so set procs-per-node first.
	{"nodes", "", "compute nodes (sets procs at the current procs-per-node)",
		func(c Config) any { return c.Nodes() }, whole(func(c *Config, v int) { c.Processors = v * c.ProcsPerNode })},
	floatParam("mttf-years", "mttfYears", "per-node MTTF in years", years, func(c *Config) *float64 { return &c.MTTFPerNode }),
	floatParam("mttr-min", "mttrMinutes", "system MTTR in minutes", minutes, func(c *Config) *float64 { return &c.MTTR }),
	floatParam("interval-min", "intervalMinutes", "checkpoint interval in minutes", minutes, func(c *Config) *float64 { return &c.CheckpointInterval }),
	floatParam("mttq-sec", "mttqSeconds", "per-node mean time to quiesce in seconds", seconds, func(c *Config) *float64 { return &c.MTTQ }),
	floatParam("timeout-sec", "timeoutSeconds", "coordination timeout in seconds (0 = none)", seconds, func(c *Config) *float64 { return &c.Timeout }),
	{"coordination", "coordination", "coordination mode: fixed, none, max-of-n",
		func(c Config) any { return c.Coordination.String() }, func(c *Config, v string) error {
			mode, err := ParseCoordination(v)
			if err == nil {
				c.Coordination = mode
			}
			return err
		}},
	floatParam("pe", "probCorrelated", "probability of correlated failure (error propagation)", plain, func(c *Config) *float64 { return &c.ProbCorrelated }),
	floatParam("r", "correlatedFactor", "correlated failure rate factor", plain, func(c *Config) *float64 { return &c.CorrelatedFactor }),
	floatParam("alpha", "genericCorrelatedCoefficient", "generic correlated failure coefficient", plain, func(c *Config) *float64 { return &c.GenericCorrelatedCoefficient }),
	floatParam("straggler-fraction", "stragglerFraction", "share of processors whose quiesce is slow (0 = none)", plain, func(c *Config) *float64 { return &c.StragglerFraction }),
	floatParam("straggler-mttq-mult", "stragglerMttqMultiplier", "stragglers' mean quiesce time as a multiple of MTTQ", plain, func(c *Config) *float64 { return &c.StragglerMTTQMultiplier }),
	boolParam("blocking-write", "blockingCheckpointWrite", "block computation until the checkpoint reaches the file system", func(c *Config) *bool { return &c.BlockingCheckpointWrite }),
	boolParam("no-buffered-recovery", "noBufferedRecovery", "always recover from the file-system checkpoint, never the I/O-node buffer", func(c *Config) *bool { return &c.NoBufferedRecovery }),
	intParam("compute-per-io-node", "computePerIONode", "compute nodes sharing one I/O node", func(c *Config) *int { return &c.ComputePerIONode }),
	floatParam("io-mttr-min", "ioMttrMinutes", "I/O-node restart time in minutes", minutes, func(c *Config) *float64 { return &c.MTTRIONodes }),
	floatParam("reboot-hours", "rebootHours", "whole-system reboot time in hours", plain, func(c *Config) *float64 { return &c.RebootTime }),
	intParam("severe-threshold", "severeFailureThreshold", "consecutive failed recoveries that reboot the system", func(c *Config) *int { return &c.SevereFailureThreshold }),
	floatParam("broadcast-ms", "broadcastMillis", "master broadcast latency plus send overhead in milliseconds", millis, func(c *Config) *float64 { return &c.BroadcastOverhead }),
	floatParam("cycle-min", "cyclePeriodMinutes", "application compute/IO cycle period in minutes", minutes, func(c *Config) *float64 { return &c.IOComputeCyclePeriod }),
	floatParam("compute-fraction", "computeFraction", "share of the application cycle spent computing", plain, func(c *Config) *float64 { return &c.ComputeFraction }),
	floatParam("io-node-mbps", "bandwidthToIONodeMBps", "bandwidth from a node group to its I/O node in MB/s", mbPerSecond, func(c *Config) *float64 { return &c.BandwidthToIONode }),
	floatParam("fs-mbps", "bandwidthIOToFSMBps", "file-system bandwidth per I/O node in MB/s", mbPerSecond, func(c *Config) *float64 { return &c.BandwidthIOToFS }),
	floatParam("checkpoint-mb", "checkpointSizeMB", "checkpoint size per compute node in MB", megabytes, func(c *Config) *float64 { return &c.CheckpointSizePerNode }),
	floatParam("io-data-mb", "ioDataMB", "application data per node per I/O phase in MB", megabytes, func(c *Config) *float64 { return &c.IODataPerNode }),
	floatParam("window-min", "correlatedWindowMinutes", "correlated failure window in minutes", minutes, func(c *Config) *float64 { return &c.CorrelatedWindow }),
	{"failure-dist", "failureModel.dist", "failure inter-arrival distribution: exponential, weibull",
		func(c Config) any { return c.FailureDist.String() }, func(c *Config, v string) error {
			for _, d := range []FailureDistribution{FailureExponential, FailureWeibull} {
				if d.String() == v {
					c.FailureDist = d
					return nil
				}
			}
			return fmt.Errorf("unknown failure distribution %q", v)
		}},
	floatParam("failure-shape", "failureModel.shape", "Weibull shape parameter (weibull only)", plain, func(c *Config) *float64 { return &c.FailureShape }),
	boolParam("no-io-failures", "noIOFailures", "remove the I/O-node failure process", func(c *Config) *bool { return &c.NoIOFailures }),
	floatParam("p-permanent", "probPermanentFailure", "probability that a compute failure is permanent (0 = none)", plain, func(c *Config) *float64 { return &c.ProbPermanentFailure }),
	floatParam("reconfig-min", "reconfigurationMinutes", "reconfiguration time after a permanent failure in minutes", minutes, func(c *Config) *float64 { return &c.ReconfigurationTime }),
	floatParam("incremental-fraction", "incrementalFraction", "incremental checkpoint size relative to a full one (0 = none)", plain, func(c *Config) *float64 { return &c.IncrementalFraction }),
	intParam("full-every", "fullCheckpointEvery", "every k-th checkpoint is full (with incremental-fraction)", func(c *Config) *int { return &c.FullCheckpointEvery }),
	floatParam("prediction-accuracy", "failurePredictionAccuracy", "probability that a compute failure is predicted and migrated away (0 = none)", plain, func(c *Config) *float64 { return &c.FailurePredictionAccuracy }),
	floatParam("migration-min", "migrationMinutes", "proactive migration pause in minutes", minutes, func(c *Config) *float64 { return &c.MigrationTime }),
	boolParam("adaptive-interval", "adaptiveInterval", "retune the checkpoint interval from the observed failure rate", func(c *Config) *bool { return &c.AdaptiveInterval }),
	floatParam("adaptive-floor-min", "adaptiveIntervalMinMinutes", "adaptive interval lower bound in minutes", minutes, func(c *Config) *float64 { return &c.AdaptiveIntervalMin }),
	floatParam("adaptive-ceiling-min", "adaptiveIntervalMaxMinutes", "adaptive interval upper bound in minutes", minutes, func(c *Config) *float64 { return &c.AdaptiveIntervalMax }),
}

// unit converts a name's unit to the model's (hours, bytes, bytes/hour)
// and back.
type unit struct{ to, from func(float64) float64 }

var (
	plain       = unit{func(v float64) float64 { return v }, func(v float64) float64 { return v }}
	years       = unit{Years, func(h float64) float64 { return h / HoursPerYear }}
	minutes     = unit{Minutes, func(h float64) float64 { return h * SecondsPerHour / 60 }}
	seconds     = unit{Seconds, func(h float64) float64 { return h * SecondsPerHour }}
	millis      = unit{func(ms float64) float64 { return Seconds(ms / 1000) }, func(h float64) float64 { return h * SecondsPerHour * 1000 }}
	megabytes   = unit{func(mb float64) float64 { return mb * MB }, func(b float64) float64 { return b / MB }}
	mbPerSecond = unit{func(v float64) float64 { return v * MB * SecondsPerHour }, func(bh float64) float64 { return bh / MB / SecondsPerHour }}
)

func floatParam(name, key, help string, u unit, field func(*Config) *float64) param {
	return param{name, key, help, func(c Config) any { return u.from(*field(&c)) }, func(c *Config, s string) error {
		v, err := strconv.ParseFloat(s, 64)
		h := u.to(v)
		if err == nil && (math.IsInf(h, 0) || math.IsNaN(h)) {
			err = fmt.Errorf("%s is not a finite %s", s, name)
		}
		if err == nil {
			*field(c) = h
		}
		return err
	}}
}

func intParam(name, key, help string, field func(*Config) *int) param {
	return param{name, key, help, func(c Config) any { return *field(&c) }, whole(func(c *Config, v int) { *field(c) = v })}
}

// whole parses an integer-valued number ("8192", "1e+06"); a fraction is
// an error, not a truncation, and so is a magnitude beyond 2^53, where a
// float64 no longer holds every integer.
func whole(set func(*Config, int)) func(*Config, string) error {
	return func(c *Config, s string) error {
		v, err := strconv.ParseFloat(s, 64)
		if err == nil && (v != math.Trunc(v) || math.Abs(v) > 1<<53) {
			err = fmt.Errorf("%s is not an integer", s)
		}
		if err == nil {
			set(c, int(v))
		}
		return err
	}
}

func boolParam(name, key, help string, field func(*Config) *bool) param {
	return param{name, key, help, func(c Config) any { return *field(&c) }, func(c *Config, s string) error {
		v, err := strconv.ParseBool(s)
		if err == nil {
			*field(c) = v
		}
		return err
	}}
}

// ParamNames lists the named-parameter vocabulary SetParam accepts.
func ParamNames() []string {
	names := make([]string, len(params))
	for i, p := range params {
		names[i] = p.name
	}
	return names
}

// ParamSetter returns the setter of the named parameter of the
// vocabulary (see ParamNames): it sets the parameter from its textual
// value, numbers in the unit the name carries.
func ParamSetter(name string) (func(c *Config, value string) error, error) {
	p, err := lookup(name)
	return p.set, err
}

func lookup(name string) (param, error) {
	for _, p := range params {
		if p.name == name {
			return p, nil
		}
	}
	return param{}, fmt.Errorf("unknown parameter %q (want one of %s)", name, strings.Join(ParamNames(), ", "))
}

// DeclareFlags declares the named parameters of the vocabulary as flags
// of fs, typed by the parameter, with their help text and Default()'s
// value as the default. Apply the ones set explicitly with SetParam (see
// scenario.Registry.BaseConfig). An unknown name panics, as redeclaring a
// flag does.
func DeclareFlags(fs *flag.FlagSet, names ...string) {
	def := Default()
	for _, name := range names {
		p, err := lookup(name)
		if err != nil {
			panic(err)
		}
		switch v := p.get(def).(type) {
		case int:
			fs.Int(name, v, p.help)
		case float64:
			fs.Float64(name, v, p.help)
		case string:
			fs.String(name, v, p.help)
		case bool:
			fs.Bool(name, v, p.help)
		}
	}
}

// RejectZeroFlags refuses an explicit 0 for each flag of fs that runs
// names: the runner reads a zero option as unset, so such a run would
// silently use the default runs[name] (for example "5 replications").
func RejectZeroFlags(fs *flag.FlagSet, runs map[string]string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		v, perr := strconv.ParseFloat(f.Value.String(), 64)
		if def, ok := runs[f.Name]; ok && err == nil && perr == nil && v == 0 {
			err = fmt.Errorf("-%s 0 would run the default %s: give a nonzero value or omit the flag", f.Name, def)
		}
	})
	return err
}

// SetParam sets the named parameter from its textual value.
func SetParam(c *Config, name, value string) error {
	set, err := ParamSetter(name)
	if err != nil {
		return err
	}
	return set(c, value)
}

// ParseCoordination is the inverse of CoordinationMode.String.
func ParseCoordination(s string) (CoordinationMode, error) {
	for _, mode := range []CoordinationMode{CoordFixed, CoordNone, CoordMaxOfN} {
		if mode.String() == s {
			return mode, nil
		}
	}
	return 0, fmt.Errorf("unknown coordination mode %q", s)
}
