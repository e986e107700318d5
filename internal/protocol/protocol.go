// Package protocol is a message-level simulation of the six-step
// coordinated checkpointing protocol of Section 3.2: the master broadcasts
// 'quiesce' over the interconnect tree, every compute node finishes any
// non-preemptive foreground I/O, quiesces after its own exponential
// quiesce time, and replies 'ready' up the reduction tree; the master then
// broadcasts 'checkpoint', the nodes dump state to their shared I/O nodes,
// and 'done'/'proceed' complete the round.
//
// The paper's composed SAN abstracts all of this into a single max-of-n
// coordination activity (Section 5); this simulator exists to validate that
// abstraction: for tree latencies in the Table 3 range, the measured
// coordination time converges to MTTQ·H_n plus the (tiny) tree latency.
package protocol

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RoundResult describes one simulated checkpoint round.
type RoundResult struct {
	// CoordinationTime is the time from the master's 'quiesce' broadcast
	// until the last 'ready' reaches the master.
	CoordinationTime float64
	// Aborted reports whether the master's timeout expired first.
	Aborted bool
	// DumpTime is the checkpoint dump duration (0 when aborted).
	DumpTime float64
	// TotalTime is the full protocol duration: coordination (or timeout)
	// plus broadcast legs and dump.
	TotalTime float64
	// SlowestNode is the index of the last node to report ready.
	SlowestNode int
}

// Simulator drives checkpoint rounds at per-node message granularity.
type Simulator struct {
	cfg  cluster.Config
	tree netsim.Tree
	cyc  workload.Cycle
	src  rng.Source
}

// New validates inputs and returns a protocol simulator. The tree spans the
// compute nodes; the master is node 0.
func New(cfg cluster.Config, fanout int, hopLatency float64, seed uint64) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	tree, err := netsim.NewTree(cfg.Nodes(), fanout, hopLatency)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	cyc, err := workload.NewCycle(cfg.IOComputeCyclePeriod, cfg.ComputeFraction)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	return &Simulator{cfg: cfg, tree: tree, cyc: cyc, src: rng.New(seed)}, nil
}

// Round simulates one checkpoint round starting at a random point of every
// node's application cycle.
func (s *Simulator) Round() RoundResult {
	n := s.cfg.Nodes()
	quiesce := rng.Exponential{MeanValue: s.cfg.MTTQ}

	// Each node sits at an independent uniform point of its compute/IO
	// cycle; a node in foreground I/O must finish it before quiescing
	// (Section 3.3), so it starts quiescing once the broadcast has reached
	// it and its I/O is done.
	start := make([]float64, n)
	order := make([]int, n)
	for i := range n {
		ioWait := 0.0
		if phase, rem := s.cyc.PhaseAt(s.src.Float64() * s.cyc.Period); phase == workload.IO {
			ioWait = rem
		}
		start[i] = s.tree.BroadcastLatency(i) + ioWait
		order[i] = i
	}
	// Nodes quiesce, and draw their quiesce times, in start order with
	// ties by index, which is an event queue's (time, sequence) firing
	// order. The last 'ready' to reach the master ends coordination; of
	// equal arrivals the one sent first wins.
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(start[a], start[b]) })
	readyAt, slowest := 0.0, 0
	for _, i := range order {
		if t := start[i] + (quiesce.Sample(s.src) + s.tree.ReduceLatency(i)); t > readyAt {
			readyAt, slowest = t, i
		}
	}

	res := RoundResult{CoordinationTime: readyAt, SlowestNode: slowest}
	if s.cfg.Timeout > 0 && readyAt > s.cfg.Timeout {
		res.Aborted = true
		res.TotalTime = s.cfg.Timeout + s.tree.FullBroadcastLatency()
		return res
	}
	res.DumpTime = s.cfg.CheckpointDumpTime()
	res.TotalTime = readyAt + s.tree.FullBroadcastLatency() + res.DumpTime
	return res
}

// Summary aggregates many rounds.
type Summary struct {
	// Coordination is the distribution of coordination times.
	Coordination stats.Accumulator
	// AbortFraction is the fraction of rounds aborted by the timeout.
	AbortFraction float64
	// Rounds is the number of simulated rounds.
	Rounds int
}

// Run simulates rounds checkpoint rounds and aggregates them.
func (s *Simulator) Run(rounds int) (Summary, error) {
	if rounds <= 0 {
		return Summary{}, fmt.Errorf("protocol: rounds %d must be positive", rounds)
	}
	var sum Summary
	aborts := 0
	for i := 0; i < rounds; i++ {
		r := s.Round()
		sum.Coordination.Add(r.CoordinationTime)
		if r.Aborted {
			aborts++
		}
	}
	sum.Rounds = rounds
	sum.AbortFraction = float64(aborts) / float64(rounds)
	return sum, nil
}
