package cluster

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// param is one entry of the named-parameter vocabulary: a user-facing
// name (with its unit), its flag help text, how to read it off a Config
// (an int, float64, string or bool in the name's unit) and how a textual
// value sets it.
type param struct {
	name, help string
	get        func(c Config) any
	set        func(c *Config, value string) error
}

// params is the named-parameter vocabulary: the figure table of
// internal/experiments declares its bases, series and x axes in it,
// ccsweep sweeps any of its numeric names, and the CLIs declare their
// configuration flags from it (DeclareFlags). Order is the order
// ParamNames lists.
var params = []param{
	{"procs", "total compute processors",
		func(c Config) any { return c.Processors }, number(func(c *Config, v float64) { c.Processors = int(v) })},
	{"procs-per-node", "processors per node",
		func(c Config) any { return c.ProcsPerNode }, number(func(c *Config, v float64) { c.ProcsPerNode = int(v) })},
	// nodes sets the processor count from a node count at the current
	// processors per node, so set procs-per-node first.
	{"nodes", "compute nodes (sets procs at the current procs-per-node)",
		func(c Config) any { return c.Nodes() }, number(func(c *Config, v float64) { c.Processors = int(v) * c.ProcsPerNode })},
	{"mttf-years", "per-node MTTF in years",
		func(c Config) any { return c.MTTFPerNode / HoursPerYear }, number(func(c *Config, v float64) { c.MTTFPerNode = Years(v) })},
	{"mttr-min", "system MTTR in minutes",
		func(c Config) any { return c.MTTR * SecondsPerHour / 60 }, number(func(c *Config, v float64) { c.MTTR = Minutes(v) })},
	{"interval-min", "checkpoint interval in minutes",
		func(c Config) any { return c.CheckpointInterval * SecondsPerHour / 60 }, number(func(c *Config, v float64) { c.CheckpointInterval = Minutes(v) })},
	{"mttq-sec", "per-node mean time to quiesce in seconds",
		func(c Config) any { return c.MTTQ * SecondsPerHour }, number(func(c *Config, v float64) { c.MTTQ = Seconds(v) })},
	{"timeout-sec", "coordination timeout in seconds (0 = none)",
		func(c Config) any { return c.Timeout * SecondsPerHour }, number(func(c *Config, v float64) { c.Timeout = Seconds(v) })},
	{"coordination", "coordination mode: fixed, none, max-of-n",
		func(c Config) any { return c.Coordination.String() }, func(c *Config, v string) error {
			mode, err := ParseCoordination(v)
			if err == nil {
				c.Coordination = mode
			}
			return err
		}},
	{"pe", "probability of correlated failure (error propagation)",
		func(c Config) any { return c.ProbCorrelated }, number(func(c *Config, v float64) { c.ProbCorrelated = v })},
	{"r", "correlated failure rate factor",
		func(c Config) any { return c.CorrelatedFactor }, number(func(c *Config, v float64) { c.CorrelatedFactor = v })},
	{"alpha", "generic correlated failure coefficient",
		func(c Config) any { return c.GenericCorrelatedCoefficient }, number(func(c *Config, v float64) { c.GenericCorrelatedCoefficient = v })},
	{"straggler-fraction", "share of processors whose quiesce is slow (0 = none)",
		func(c Config) any { return c.StragglerFraction }, number(func(c *Config, v float64) { c.StragglerFraction = v })},
	{"straggler-mttq-mult", "stragglers' mean quiesce time as a multiple of MTTQ",
		func(c Config) any { return c.StragglerMTTQMultiplier }, number(func(c *Config, v float64) { c.StragglerMTTQMultiplier = v })},
	{"blocking-write", "block computation until the checkpoint reaches the file system",
		func(c Config) any { return c.BlockingCheckpointWrite }, boolean(func(c *Config, v bool) { c.BlockingCheckpointWrite = v })},
	{"no-buffered-recovery", "always recover from the file-system checkpoint, never the I/O-node buffer",
		func(c Config) any { return c.NoBufferedRecovery }, boolean(func(c *Config, v bool) { c.NoBufferedRecovery = v })},
}

func number(set func(*Config, float64)) func(*Config, string) error {
	return func(c *Config, s string) error {
		v, err := strconv.ParseFloat(s, 64)
		if err == nil {
			set(c, v)
		}
		return err
	}
}

func boolean(set func(*Config, bool)) func(*Config, string) error {
	return func(c *Config, s string) error {
		v, err := strconv.ParseBool(s)
		if err == nil {
			set(c, v)
		}
		return err
	}
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
