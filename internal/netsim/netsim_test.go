package netsim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree(0, 2, 1); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewTree(10, 1, 1); err == nil {
		t.Error("fanout 1 accepted")
	}
	if _, err := NewTree(10, 2, -1); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := NewTree(10, 2, 0.001); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
}

func TestParentAndDepthBinary(t *testing.T) {
	tr, err := NewTree(15, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Parent(0) != -1 {
		t.Error("root parent should be -1")
	}
	// Complete binary tree: node 1,2 at depth 1; 3..6 at depth 2; 7..14 at 3.
	cases := map[int]int{0: 0, 1: 1, 2: 1, 3: 2, 6: 2, 7: 3, 14: 3}
	for node, depth := range cases {
		if d := tr.Depth(node); d != depth {
			t.Errorf("depth(%d) = %d, want %d", node, d, depth)
		}
	}
	if tr.MaxDepth() != 3 {
		t.Errorf("max depth = %d, want 3", tr.MaxDepth())
	}
}

func TestBroadcastLatencyScalesWithDepth(t *testing.T) {
	tr, _ := NewTree(1000, 4, 0.5)
	if tr.BroadcastLatency(0) != 0 {
		t.Error("root latency should be 0")
	}
	if got := tr.BroadcastLatency(5); got != 1.0 {
		t.Errorf("depth-2 node latency = %v, want 1.0", got)
	}
	if tr.FullBroadcastLatency() != float64(tr.MaxDepth())*0.5 {
		t.Error("full broadcast latency wrong")
	}
	if tr.ReduceLatency(5) != tr.BroadcastLatency(5) {
		t.Error("reduction should be symmetric to broadcast")
	}
}

// depthHistogram counts the tree's nodes at each depth (index = depth).
func depthHistogram(tr Tree) []int {
	h := make([]int, tr.MaxDepth()+1)
	for i := range tr.Nodes {
		h[tr.Depth(i)]++
	}
	return h
}

func TestDepthHistogram(t *testing.T) {
	// Full levels hold k^d nodes; the last one is truncated at Nodes.
	for _, tc := range []struct {
		nodes int
		want  []int
	}{{15, []int{1, 2, 4, 8}}, {10, []int{1, 2, 4, 3}}} {
		tr, _ := NewTree(tc.nodes, 2, 1)
		if h := depthHistogram(tr); !slices.Equal(h, tc.want) {
			t.Fatalf("%d nodes: histogram = %v, want %v", tc.nodes, h, tc.want)
		}
	}
}

// TestTreeProperties: parent is always shallower, every level but the
// deepest is full, and the deepest is MaxDepth, for arbitrary trees.
func TestTreeProperties(t *testing.T) {
	f := func(nRaw uint16, kRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		k := int(kRaw)%7 + 2
		tr, err := NewTree(n, k, 0.001)
		if err != nil {
			return false
		}
		for i := 1; i < n; i += 97 {
			p := tr.Parent(i)
			if p < 0 || p >= i || tr.Depth(p) != tr.Depth(i)-1 {
				return false
			}
		}
		h := depthHistogram(tr)
		for d, width := 0, 1; d < len(h)-1; d, width = d+1, width*k {
			if h[d] != width {
				return false
			}
		}
		return h[len(h)-1] > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
