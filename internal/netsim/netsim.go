// Package netsim models the interconnect needed by the checkpointing
// protocol: a hardware broadcast/reduction tree like BlueGene/L's (the
// source of Table 3's 1 ms broadcast overhead) with per-hop latencies, used
// by the message-level protocol simulator in internal/protocol.
package netsim

import "fmt"

// Tree is a complete k-ary broadcast/reduction tree over Nodes leaves-and-
// internal nodes (node 0 is the root/master).
type Tree struct {
	// Nodes is the number of tree participants (≥ 1).
	Nodes int
	// Fanout is the tree arity (≥ 2).
	Fanout int
	// HopLatency is the one-hop message latency in hours (hardware link
	// plus software overhead, Table 3: ~1 ms + 1 ms).
	HopLatency float64
}

// NewTree validates and returns a Tree.
func NewTree(nodes, fanout int, hopLatency float64) (Tree, error) {
	t := Tree{Nodes: nodes, Fanout: fanout, HopLatency: hopLatency}
	if err := t.Validate(); err != nil {
		return Tree{}, err
	}
	return t, nil
}

// Validate reports structural problems.
func (t Tree) Validate() error {
	if t.Nodes < 1 {
		return fmt.Errorf("netsim: Nodes %d < 1", t.Nodes)
	}
	if t.Fanout < 2 {
		return fmt.Errorf("netsim: Fanout %d < 2", t.Fanout)
	}
	if t.HopLatency < 0 {
		return fmt.Errorf("netsim: negative HopLatency %v", t.HopLatency)
	}
	return nil
}

// Parent returns the parent index of node i (node 0 has no parent and
// returns -1).
func (t Tree) Parent(i int) int {
	if i <= 0 {
		return -1
	}
	return (i - 1) / t.Fanout
}

// Depth returns the number of hops from the root to node i.
func (t Tree) Depth(i int) int {
	d := 0
	for i > 0 {
		i = t.Parent(i)
		d++
	}
	return d
}

// MaxDepth returns the depth of the deepest node, ⌈log_k((k-1)n+1)⌉-ish;
// computed directly from the last index.
func (t Tree) MaxDepth() int {
	return t.Depth(t.Nodes - 1)
}

// BroadcastLatency returns the time for a root broadcast to reach node i.
func (t Tree) BroadcastLatency(i int) float64 {
	return float64(t.Depth(i)) * t.HopLatency
}

// ReduceLatency returns the time for node i's acknowledgement to reach the
// root along the reduction tree (symmetric to broadcast in this model).
func (t Tree) ReduceLatency(i int) float64 { return t.BroadcastLatency(i) }

// FullBroadcastLatency is the time for a broadcast to reach every node —
// the paper's "broadcast overhead" for the whole machine.
func (t Tree) FullBroadcastLatency() float64 {
	return float64(t.MaxDepth()) * t.HopLatency
}
