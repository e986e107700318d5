package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// param is one entry of the named-parameter vocabulary: a user-facing
// name (with its unit) and how a textual value sets the Config.
type param struct {
	name string
	set  func(c *Config, value string) error
}

// params is the named-parameter vocabulary: the figure table of
// internal/experiments declares its bases, series and x axes in it,
// ccsweep sweeps any of its numeric names, and the ccsim/ccsweep
// configuration flags of the same names are applied through it. Order is
// the order ParamNames lists.
var params = []param{
	{"procs", number(func(c *Config, v float64) { c.Processors = int(v) })},
	{"procs-per-node", number(func(c *Config, v float64) { c.ProcsPerNode = int(v) })},
	// nodes sets the processor count from a node count at the current
	// processors per node, so set procs-per-node first.
	{"nodes", number(func(c *Config, v float64) { c.Processors = int(v) * c.ProcsPerNode })},
	{"mttf-years", number(func(c *Config, v float64) { c.MTTFPerNode = Years(v) })},
	{"mttr-min", number(func(c *Config, v float64) { c.MTTR = Minutes(v) })},
	{"interval-min", number(func(c *Config, v float64) { c.CheckpointInterval = Minutes(v) })},
	{"mttq-sec", number(func(c *Config, v float64) { c.MTTQ = Seconds(v) })},
	{"timeout-sec", number(func(c *Config, v float64) { c.Timeout = Seconds(v) })},
	{"coordination", func(c *Config, v string) error {
		mode, err := ParseCoordination(v)
		if err == nil {
			c.Coordination = mode
		}
		return err
	}},
	{"pe", number(func(c *Config, v float64) { c.ProbCorrelated = v })},
	{"r", number(func(c *Config, v float64) { c.CorrelatedFactor = v })},
	{"alpha", number(func(c *Config, v float64) { c.GenericCorrelatedCoefficient = v })},
	{"straggler-fraction", number(func(c *Config, v float64) { c.StragglerFraction = v })},
	{"straggler-mttq-mult", number(func(c *Config, v float64) { c.StragglerMTTQMultiplier = v })},
	{"blocking-write", boolean(func(c *Config, v bool) { c.BlockingCheckpointWrite = v })},
	{"no-buffered-recovery", boolean(func(c *Config, v bool) { c.NoBufferedRecovery = v })},
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
	for _, p := range params {
		if p.name == name {
			return p.set, nil
		}
	}
	return nil, fmt.Errorf("unknown parameter %q (want one of %s)", name, strings.Join(ParamNames(), ", "))
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
