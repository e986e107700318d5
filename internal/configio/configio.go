// Package configio reads and writes model configurations as JSON with
// human-friendly units (years, minutes, seconds, MB), so experiment setups
// can be versioned and shared instead of encoded in command lines. Absent
// or zero-valued required fields fall back to the Table 3 defaults.
package configio

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/cluster"
)

// FileConfig is the JSON schema. Zero values mean "use the default" for
// the required physical parameters; switches and probabilities are taken
// literally.
type FileConfig struct {
	Processors       int `json:"processors,omitempty"`
	ProcsPerNode     int `json:"procsPerNode,omitempty"`
	ComputePerIONode int `json:"computePerIONode,omitempty"`

	MTTFYears              float64 `json:"mttfYears,omitempty"`
	MTTRMinutes            float64 `json:"mttrMinutes,omitempty"`
	IOMTTRMinutes          float64 `json:"ioMttrMinutes,omitempty"`
	RebootHours            float64 `json:"rebootHours,omitempty"`
	SevereFailureThreshold int     `json:"severeFailureThreshold,omitempty"`

	IntervalMinutes    float64 `json:"intervalMinutes,omitempty"`
	MTTQSeconds        float64 `json:"mttqSeconds,omitempty"`
	TimeoutSeconds     float64 `json:"timeoutSeconds,omitempty"`
	BroadcastMillis    float64 `json:"broadcastMillis,omitempty"`
	CyclePeriodMinutes float64 `json:"cyclePeriodMinutes,omitempty"`
	ComputeFraction    float64 `json:"computeFraction,omitempty"`

	BandwidthToIONodeMBps float64 `json:"bandwidthToIONodeMBps,omitempty"`
	BandwidthIOToFSMBps   float64 `json:"bandwidthIOToFSMBps,omitempty"`
	CheckpointSizeMB      float64 `json:"checkpointSizeMB,omitempty"`
	IODataMB              float64 `json:"ioDataMB,omitempty"`

	ProbCorrelated               float64 `json:"probCorrelated,omitempty"`
	CorrelatedFactor             float64 `json:"correlatedFactor,omitempty"`
	CorrelatedWindowMinutes      float64 `json:"correlatedWindowMinutes,omitempty"`
	GenericCorrelatedCoefficient float64 `json:"genericCorrelatedCoefficient,omitempty"`

	// Coordination is "fixed", "none" or "max-of-n" (default "fixed").
	Coordination string `json:"coordination,omitempty"`

	BlockingCheckpointWrite bool    `json:"blockingCheckpointWrite,omitempty"`
	NoBufferedRecovery      bool    `json:"noBufferedRecovery,omitempty"`
	NoIOFailures            bool    `json:"noIOFailures,omitempty"`
	StragglerFraction       float64 `json:"stragglerFraction,omitempty"`
	StragglerMTTQMultiplier float64 `json:"stragglerMttqMultiplier,omitempty"`

	ProbPermanentFailure   float64 `json:"probPermanentFailure,omitempty"`
	ReconfigurationMinutes float64 `json:"reconfigurationMinutes,omitempty"`
	IncrementalFraction    float64 `json:"incrementalFraction,omitempty"`
	FullCheckpointEvery    int     `json:"fullCheckpointEvery,omitempty"`

	// FailureModel selects the failure inter-arrival distribution; absent
	// means the paper's exponential model.
	FailureModel *FailureModel `json:"failureModel,omitempty"`

	// FailurePredictionAccuracy enables the proactive-migration extension:
	// each compute failure is predicted (and absorbed by a migration of
	// MigrationMinutes) with this probability.
	FailurePredictionAccuracy float64 `json:"failurePredictionAccuracy,omitempty"`
	MigrationMinutes          float64 `json:"migrationMinutes,omitempty"`

	// AdaptiveInterval enables the adaptive checkpoint-interval controller
	// retuning from the observed failure rate, clamped to [min, max].
	AdaptiveInterval           bool    `json:"adaptiveInterval,omitempty"`
	AdaptiveIntervalMinMinutes float64 `json:"adaptiveIntervalMinMinutes,omitempty"`
	AdaptiveIntervalMaxMinutes float64 `json:"adaptiveIntervalMaxMinutes,omitempty"`
}

// FailureModel is the failure-distribution block of the file schema.
type FailureModel struct {
	// Dist is "exponential" (the default) or "weibull".
	Dist string `json:"dist,omitempty"`
	// Shape is the Weibull shape parameter k (required for "weibull";
	// field data typically fits k < 1, i.e. burstier than exponential).
	Shape float64 `json:"shape,omitempty"`
}

// ToCluster converts the file schema to a validated model configuration,
// defaulting absent required fields to Table 3.
func (f FileConfig) ToCluster() (cluster.Config, error) {
	c := cluster.Default()
	setInt(&c.Processors, f.Processors)
	setInt(&c.ProcsPerNode, f.ProcsPerNode)
	setInt(&c.ComputePerIONode, f.ComputePerIONode)
	setDur(&c.MTTFPerNode, f.MTTFYears, cluster.Years)
	setDur(&c.MTTR, f.MTTRMinutes, cluster.Minutes)
	setDur(&c.MTTRIONodes, f.IOMTTRMinutes, cluster.Minutes)
	if f.RebootHours > 0 {
		c.RebootTime = f.RebootHours
	}
	setInt(&c.SevereFailureThreshold, f.SevereFailureThreshold)
	setDur(&c.CheckpointInterval, f.IntervalMinutes, cluster.Minutes)
	setDur(&c.MTTQ, f.MTTQSeconds, cluster.Seconds)
	c.Timeout = cluster.Seconds(f.TimeoutSeconds)
	if f.BroadcastMillis > 0 {
		c.BroadcastOverhead = cluster.Seconds(f.BroadcastMillis / 1000)
	}
	setDur(&c.IOComputeCyclePeriod, f.CyclePeriodMinutes, cluster.Minutes)
	if f.ComputeFraction > 0 {
		c.ComputeFraction = f.ComputeFraction
	}
	if f.BandwidthToIONodeMBps > 0 {
		c.BandwidthToIONode = f.BandwidthToIONodeMBps * cluster.MB * cluster.SecondsPerHour
	}
	if f.BandwidthIOToFSMBps > 0 {
		c.BandwidthIOToFS = f.BandwidthIOToFSMBps * cluster.MB * cluster.SecondsPerHour
	}
	if f.CheckpointSizeMB > 0 {
		c.CheckpointSizePerNode = f.CheckpointSizeMB * cluster.MB
	}
	if f.IODataMB > 0 {
		c.IODataPerNode = f.IODataMB * cluster.MB
	}
	c.ProbCorrelated = f.ProbCorrelated
	if f.CorrelatedFactor > 0 {
		c.CorrelatedFactor = f.CorrelatedFactor
	}
	setDur(&c.CorrelatedWindow, f.CorrelatedWindowMinutes, cluster.Minutes)
	c.GenericCorrelatedCoefficient = f.GenericCorrelatedCoefficient
	if f.Coordination != "" {
		mode, err := cluster.ParseCoordination(f.Coordination)
		if err != nil {
			return cluster.Config{}, fmt.Errorf("configio: %w", err)
		}
		c.Coordination = mode
	}
	c.BlockingCheckpointWrite = f.BlockingCheckpointWrite
	c.NoBufferedRecovery = f.NoBufferedRecovery
	c.NoIOFailures = f.NoIOFailures
	c.StragglerFraction = f.StragglerFraction
	c.StragglerMTTQMultiplier = f.StragglerMTTQMultiplier
	c.ProbPermanentFailure = f.ProbPermanentFailure
	c.ReconfigurationTime = cluster.Minutes(f.ReconfigurationMinutes)
	c.IncrementalFraction = f.IncrementalFraction
	c.FullCheckpointEvery = f.FullCheckpointEvery
	if fm := f.FailureModel; fm != nil {
		switch fm.Dist {
		case "", "exponential":
			c.FailureDist = cluster.FailureExponential
		case "weibull":
			c.FailureDist = cluster.FailureWeibull
		default:
			return cluster.Config{}, fmt.Errorf("configio: unknown failure distribution %q", fm.Dist)
		}
		c.FailureShape = fm.Shape
	}
	c.FailurePredictionAccuracy = f.FailurePredictionAccuracy
	c.MigrationTime = cluster.Minutes(f.MigrationMinutes)
	c.AdaptiveInterval = f.AdaptiveInterval
	c.AdaptiveIntervalMin = cluster.Minutes(f.AdaptiveIntervalMinMinutes)
	c.AdaptiveIntervalMax = cluster.Minutes(f.AdaptiveIntervalMaxMinutes)
	if err := c.Validate(); err != nil {
		return cluster.Config{}, fmt.Errorf("configio: %w", err)
	}
	return c, nil
}

// FromCluster converts a model configuration to the file schema.
func FromCluster(c cluster.Config) FileConfig {
	f := FileConfig{
		Processors:                   c.Processors,
		ProcsPerNode:                 c.ProcsPerNode,
		ComputePerIONode:             c.ComputePerIONode,
		MTTFYears:                    c.MTTFPerNode / cluster.HoursPerYear,
		MTTRMinutes:                  c.MTTR * 60,
		IOMTTRMinutes:                c.MTTRIONodes * 60,
		RebootHours:                  c.RebootTime,
		SevereFailureThreshold:       c.SevereFailureThreshold,
		IntervalMinutes:              c.CheckpointInterval * 60,
		MTTQSeconds:                  c.MTTQ * cluster.SecondsPerHour,
		TimeoutSeconds:               c.Timeout * cluster.SecondsPerHour,
		BroadcastMillis:              c.BroadcastOverhead * cluster.SecondsPerHour * 1000,
		CyclePeriodMinutes:           c.IOComputeCyclePeriod * 60,
		ComputeFraction:              c.ComputeFraction,
		BandwidthToIONodeMBps:        c.BandwidthToIONode / cluster.MB / cluster.SecondsPerHour,
		BandwidthIOToFSMBps:          c.BandwidthIOToFS / cluster.MB / cluster.SecondsPerHour,
		CheckpointSizeMB:             c.CheckpointSizePerNode / cluster.MB,
		IODataMB:                     c.IODataPerNode / cluster.MB,
		ProbCorrelated:               c.ProbCorrelated,
		CorrelatedFactor:             c.CorrelatedFactor,
		CorrelatedWindowMinutes:      c.CorrelatedWindow * 60,
		GenericCorrelatedCoefficient: c.GenericCorrelatedCoefficient,
		Coordination:                 c.Coordination.String(),
		BlockingCheckpointWrite:      c.BlockingCheckpointWrite,
		NoBufferedRecovery:           c.NoBufferedRecovery,
		NoIOFailures:                 c.NoIOFailures,
		StragglerFraction:            c.StragglerFraction,
		StragglerMTTQMultiplier:      c.StragglerMTTQMultiplier,
		ProbPermanentFailure:         c.ProbPermanentFailure,
		ReconfigurationMinutes:       c.ReconfigurationTime * 60,
		IncrementalFraction:          c.IncrementalFraction,
		FullCheckpointEvery:          c.FullCheckpointEvery,
		FailurePredictionAccuracy:    c.FailurePredictionAccuracy,
		MigrationMinutes:             c.MigrationTime * 60,
		AdaptiveInterval:             c.AdaptiveInterval,
		AdaptiveIntervalMinMinutes:   c.AdaptiveIntervalMin * 60,
		AdaptiveIntervalMaxMinutes:   c.AdaptiveIntervalMax * 60,
	}
	if c.FailureDist != cluster.FailureExponential {
		f.FailureModel = &FailureModel{Dist: c.FailureDist.String(), Shape: c.FailureShape}
	}
	return f
}

// Load parses a JSON configuration, applying defaults for absent fields.
// Unknown fields are rejected to catch typos.
func Load(r io.Reader) (cluster.Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f FileConfig
	if err := dec.Decode(&f); err != nil {
		return cluster.Config{}, fmt.Errorf("configio: %w", err)
	}
	return f.ToCluster()
}

// Save writes the configuration as indented JSON.
func Save(w io.Writer, c cluster.Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(FromCluster(c)); err != nil {
		return fmt.Errorf("configio: %w", err)
	}
	return nil
}

// setInt overrides dst with v when v is positive.
func setInt(dst *int, v int) {
	if v > 0 {
		*dst = v
	}
}

// setDur overrides dst with conv(v) when v is positive.
func setDur(dst *float64, v float64, conv func(float64) float64) {
	if v > 0 {
		*dst = conv(v)
	}
}
