// Package repro is the public API of this reproduction of "Modeling
// Coordinated Checkpointing for Large-Scale Supercomputers" (Wang et al.,
// DSN 2005): a stochastic-activity-network model of a supercomputer with
// system-initiated coordinated checkpointing, simulated to estimate the
// useful-work fraction and total useful work under failures (including
// failures during checkpointing and recovery, coordination overhead, and
// correlated failures).
//
// # Quick start
//
//	cfg := repro.DefaultConfig()          // Table 3 parameters, 64K processors
//	cfg.Processors = 128 * 1024
//	res, err := repro.Simulate(cfg, repro.Options{})
//	if err != nil { ... }
//	fmt.Println(res.UsefulWorkFraction)   // e.g. 0.43 ± 0.01 (95%, n=5)
//
// Every table and figure of the paper's evaluation can be regenerated with
// RunExperiment (or the cmd/ccfigures binary); analytic baselines from
// Young [7] and Daly [8] are available for comparison.
package repro

import (
	"fmt"
	"io"

	"repro/internal/analytic"
	"repro/internal/cluster"
	"repro/internal/cyclesim"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/protocol"
	"repro/internal/provenance"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sensitivity"
	"repro/internal/stats"
)

// Config parameterises the modeled system; see the field documentation for
// the Table 3 provenance of every default. Durations are in hours — use the
// Seconds/Minutes/Years helpers.
type Config = cluster.Config

// CoordinationMode selects how checkpoint coordination (quiesce) time is
// modeled: a fixed time (the base model), a single system-wide exponential
// ("no coordination"), or the max of n per-processor exponentials.
type CoordinationMode = cluster.CoordinationMode

// Coordination modes (Section 7 of the paper studies all three).
const (
	CoordFixed  = cluster.CoordFixed
	CoordNone   = cluster.CoordNone
	CoordMaxOfN = cluster.CoordMaxOfN
)

// Time-unit helpers: model time is hours.
var (
	// Seconds converts seconds to model hours.
	Seconds = cluster.Seconds
	// Minutes converts minutes to model hours.
	Minutes = cluster.Minutes
	// Years converts years to model hours.
	Years = cluster.Years
)

// DefaultConfig returns the paper's base configuration: 64K processors,
// 8 per node, MTTF 1 year/node, MTTR 10 minutes, 30-minute checkpoint
// interval and the Table 3 bandwidth/size parameters.
func DefaultConfig() Config { return cluster.Default() }

// BlueGeneLConfig returns a configuration shaped like the IBM BlueGene/L
// machine of the paper's Section 3.1 (64K dual-processor nodes, 1024 I/O
// nodes).
func BlueGeneLConfig() Config { return cluster.BlueGeneL() }

// ASCIQConfig returns a configuration shaped like the ASCI Q machine whose
// per-node MTTF of 1 year anchors the paper's failure parameters.
func ASCIQConfig() Config { return cluster.ASCIQ() }

// Options controls the steady-state estimation: replication count, the
// discarded transient (the paper uses 1000 h), the measurement window, the
// confidence level (default 95%), and the execution engine's worker count
// (Workers; 0 or 1 = sequential, n > 1 = that many workers, negative = one
// per CPU — results are bit-identical for every value). The zero value
// picks the defaults.
type Options = runner.Options

// Progress is a snapshot of an in-flight estimation, delivered to
// Options.Progress after every replication state change: replications
// done/total, cumulative simulation events fired, and wall time.
type Progress = runner.Progress

// Result aggregates the replications of one simulated configuration, with
// Student-t confidence intervals on the paper's two metrics.
type Result = runner.Result

// SpanCheck is the self-verification verdict populated in Result.SpanCheck
// when Options.VerifySpans is set: the reward-based useful-work estimate
// cross-checked against the independent phase-span accounting.
type SpanCheck = runner.SpanCheck

// Interval is a symmetric confidence interval.
type Interval = stats.Interval

// Metrics are the raw per-trajectory measures.
type Metrics = model.Metrics

// TimeBreakdown is the per-state occupancy of a measurement window:
// execution, quiesce, checkpoint dump, blocking-write wait, recovery and
// reboot shares that sum to 1.
type TimeBreakdown = model.Breakdown

// Comparison is a paired A/B estimate produced by CompareConfigs.
type Comparison = runner.Comparison

// MetricsRegistry is the observability registry: attach one via
// Options.Metrics to collect live counters, gauges, histograms and timers
// from the simulator, the worker pool and the runner. A single registry
// may be shared across estimates; see internal/obs for the metric catalog.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RunJournal is a structured JSONL run journal: attach one via
// Options.Journal to receive a "replication" record per trajectory and a
// closing "estimate" record. Journal content is byte-identical across
// worker counts apart from the wall-clock fields listed in
// JournalTimestampFields.
type RunJournal = obs.Journal

// NewRunJournal returns a journal writing JSONL records to w.
func NewRunJournal(w io.Writer) *RunJournal { return obs.NewJournal(w) }

// JournalTimestampFields names the journal fields that carry wall-clock
// values and are therefore excluded from the determinism contract.
var JournalTimestampFields = obs.TimestampFields

// ProvenanceStamp identifies the binary, platform and configuration that
// produced a result: git commit and dirty flag (from the build info the Go
// toolchain embeds), go version, GOOS/GOARCH, CPU model, host, and a
// content hash of the active configuration. Attach one via
// Options.Provenance to lead a run journal with a "provenance" record;
// the CLIs stamp their reports, run manifests and worker heartbeats with
// it automatically.
type ProvenanceStamp = provenance.Stamp

// CollectProvenance gathers the current process's provenance stamp.
func CollectProvenance() ProvenanceStamp { return provenance.Collect() }

// ServeDebug starts an HTTP debug endpoint on addr exposing net/http/pprof
// under /debug/pprof/, expvar under /debug/vars and a JSON snapshot of reg
// under /metricz. Close the returned server when done.
func ServeDebug(addr string, reg *MetricsRegistry) (*obs.DebugServer, error) {
	return obs.ServeDebug(addr, reg)
}

// Simulate estimates the useful-work metrics of cfg by independent
// replications of the SAN model.
func Simulate(cfg Config, opts Options) (Result, error) {
	return runner.Estimate(cfg, opts)
}

// CompareConfigs estimates two configurations with common random numbers
// and returns paired confidence intervals of their differences (B − A) —
// the right tool for quantifying a single design change (ablations,
// parameter nudges) with few replications.
func CompareConfigs(a, b Config, opts Options) (Comparison, error) {
	return runner.Compare(a, b, opts)
}

// OptimumSearch is the outcome of a simulation-driven candidate sweep.
type OptimumSearch = opt.Search

// OptimalProcessors finds the machine size maximising total useful work
// among the candidates — the paper's §7.1 capacity-planning question.
func OptimalProcessors(base Config, candidates []int, opts Options) (OptimumSearch, error) {
	return opt.OptimalProcessors(base, candidates, opts)
}

// OptimalInterval finds the checkpoint interval (hours) maximising total
// useful work among the candidates (Figure 4b's question).
func OptimalInterval(base Config, candidates []float64, opts Options) (OptimumSearch, error) {
	return opt.OptimalInterval(base, candidates, opts)
}

// OptimalTimeout finds the master timeout (hours; 0 = none) maximising the
// useful-work fraction among the candidates (Figure 6's question).
func OptimalTimeout(base Config, candidates []float64, opts Options) (OptimumSearch, error) {
	return opt.OptimalTimeout(base, candidates, opts)
}

// Trajectory runs a single trajectory with an explicit seed and returns its
// raw metrics — useful for deterministic regression tests and for studying
// individual runs; use Simulate for estimates with confidence intervals.
func Trajectory(cfg Config, seed uint64, warmup, measure float64) (Metrics, error) {
	in, err := model.New(cfg, seed)
	if err != nil {
		return Metrics{}, err
	}
	return in.RunSteadyState(warmup, measure)
}

// CycleResult is the outcome of the independent cycle-simulator engine.
type CycleResult = cyclesim.Result

// TrajectoryCycle runs one trajectory on the independent renewal-cycle
// engine (internal/cyclesim) — a from-scratch second implementation of the
// same model used to cross-validate the SAN executor. It accepts only
// configurations inside the cycle engine's envelope (pure-compute
// application, NoIOFailures, no correlated windows, no blocking writes, no
// incremental checkpointing).
func TrajectoryCycle(cfg Config, seed uint64, warmup, measure float64) (CycleResult, error) {
	s, err := cyclesim.New(cfg, seed)
	if err != nil {
		return CycleResult{}, err
	}
	return s.RunSteadyState(warmup, measure)
}

// LoadConfig reads a JSON configuration with human-friendly units
// (years/minutes/seconds/MB); absent fields default to Table 3.
func LoadConfig(r io.Reader) (Config, error) { return cluster.Load(r) }

// SaveConfig writes cfg as indented JSON in the same schema.
func SaveConfig(w io.Writer, cfg Config) error { return cluster.Save(w, cfg) }

// Scenario is one named, documented model configuration from the scenario
// catalog: a title, description, citation, tags and optional expected-metric
// band alongside the configuration itself.
type Scenario = scenario.Scenario

// ScenarioRegistry is a catalog of scenarios keyed by name.
type ScenarioRegistry = scenario.Registry

// BuiltinScenarios returns the embedded scenario catalog: the paper's six
// model variants plus the extended failure/recovery regimes, each runnable
// by name through Simulate (via Scenario.ClusterConfig) or the CLIs'
// -scenario flag.
func BuiltinScenarios() *ScenarioRegistry { return scenario.Builtin() }

// ResolveScenarios returns the built-in catalog extended (and overridden,
// name by name) by the scenario files in dir; an empty dir returns just the
// built-ins.
func ResolveScenarios(dir string) (*ScenarioRegistry, error) { return scenario.Resolve(dir) }

// Figure is one reproduced paper figure: named series of measured points.
type Figure = experiments.Figure

// Experiment describes one runnable reproduction (a paper figure) and the
// qualitative shape claim it must preserve.
type Experiment = experiments.Def

// Experiments lists every figure reproduction (fig4a–fig4h, fig5–fig8).
func Experiments() []Experiment { return experiments.All() }

// RunExperiment reproduces one figure by ID (see Experiments).
func RunExperiment(id string, opts Options) (*Figure, error) {
	def, err := experiments.Lookup(id)
	if err != nil {
		return nil, err
	}
	return def.Run(opts)
}

// YoungInterval returns Young's first-order optimum checkpoint interval
// √(2δM) for checkpoint overhead δ and system MTBF M [7].
func YoungInterval(overhead, systemMTBF float64) (float64, error) {
	return analytic.YoungOptimalInterval(overhead, systemMTBF)
}

// DalyInterval returns Daly's higher-order optimum checkpoint interval [8].
func DalyInterval(overhead, systemMTBF float64) (float64, error) {
	return analytic.DalyOptimalInterval(overhead, systemMTBF)
}

// AnalyticEfficiency returns the classic exponential-failure expected
// efficiency of checkpoint/restart (no coordination, no correlated
// failures) — the kind of model the paper argues is insufficient at scale.
func AnalyticEfficiency(cfg Config, interval float64) (float64, error) {
	mtbf, err := analytic.SystemMTBF(cfg.Nodes(), cfg.MTTFPerNode)
	if err != nil {
		return 0, err
	}
	overhead := cfg.MTTQ + cfg.CheckpointDumpTime()
	return analytic.Efficiency(interval, overhead, cfg.MTTR, mtbf)
}

// ExpectedCoordinationTime returns the lumped model's expected quiesce
// coordination time MTTQ·H_n for n processors (Section 5).
func ExpectedCoordinationTime(processors int, mttq float64) float64 {
	return analytic.ExpectedCoordinationTime(processors, mttq)
}

// CoordinationAbortProbability returns the probability that max-of-n
// coordination exceeds the master's timeout — the probabilistic
// checkpoint-abort rate of Section 7.2.
func CoordinationAbortProbability(processors int, mttq, timeout float64) float64 {
	return analytic.CoordinationAbortProbability(processors, mttq, timeout)
}

// CoordinationEfficiencyFor evaluates the renewal-process analytic model
// (analytic.CoordinationEfficiency) for cfg at the given system MTBF,
// returning the predicted useful-work fraction and the checkpoint-abort
// probability. Under CoordFixed/CoordNone the coordination population is a
// single unit (n = 1); under CoordMaxOfN it is the processor count.
func CoordinationEfficiencyFor(cfg Config, systemMTBF float64) (float64, float64, error) {
	n := 1
	if cfg.Coordination == CoordMaxOfN {
		n = cfg.Processors
	}
	return analytic.CoordinationEfficiency(n, cfg.MTTQ, cfg.Timeout,
		cfg.CheckpointInterval, cfg.CheckpointDumpTime(), cfg.MTTR, systemMTBF)
}

// Completion summarises a job's wall-clock completion-time distribution.
type Completion = cyclesim.Completion

// JobCompletionTime estimates how long a job needing `work` hours of
// useful work takes on the configured machine, by independent replications
// on the cycle engine — the completion-time view of Kulkarni, Nicola &
// Trivedi [17] that the paper's useful-work reward abstracts. The
// configuration must be inside the cycle engine's envelope (see
// TrajectoryCycle).
func JobCompletionTime(cfg Config, work float64, replications int, seed uint64) (Completion, error) {
	return cyclesim.JobCompletion(cfg, work, replications, seed)
}

// SensitivityAnalysis ranks model parameters by their effect on the
// useful-work fraction.
type SensitivityAnalysis = sensitivity.Analysis

// SensitivityParameter identifies a perturbable parameter.
type SensitivityParameter = sensitivity.Parameter

// Sensitivity perturbs each model parameter by the relative factor (e.g.
// 1.5 for +50 %) and measures the useful-work response with paired
// replications, returning elasticities sorted by magnitude — which knob
// matters most on this machine.
func Sensitivity(cfg Config, factor float64, opts Options) (SensitivityAnalysis, error) {
	return sensitivity.Analyze(cfg, nil, factor, opts)
}

// ProtocolSummary aggregates message-level protocol rounds.
type ProtocolSummary = protocol.Summary

// SimulateProtocol runs the message-level simulation of the Section 3.2
// protocol (quiesce broadcast over a fanout-ary interconnect tree with the
// given per-hop latency, per-node exponential quiesce times, 'ready'
// reduction, timeout) for the given number of checkpoint rounds. It exists
// to validate the lumped max-of-n coordination abstraction.
func SimulateProtocol(cfg Config, fanout int, hopLatency float64, rounds int, seed uint64) (ProtocolSummary, error) {
	sim, err := protocol.New(cfg, fanout, hopLatency, seed)
	if err != nil {
		return ProtocolSummary{}, err
	}
	return sim.Run(rounds)
}

// Validate reports the first problem with cfg, wrapping the detailed
// message with the public package name for clearer call sites.
func Validate(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	return nil
}
