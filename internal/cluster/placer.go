package cluster

import (
	"fmt"
	"sort"
)

// Placement policies for the cluster level of load balancing (the paper's
// §VI future work): "assigning the correct group of tasks to each node
// (gang scheduling) considering that the local scheduler is able to
// dynamically assign more or less hardware resource to each task". A
// Placer turns per-rank load weights into the rank→node assignment a
// workload builder hands to NewWorld; within each node the local
// HPCSched instance balances what placement leaves over.

// Placer assigns ranks to nodes from their expected per-iteration load
// weights.
type Placer interface {
	// Name identifies the strategy.
	Name() string
	// Assign returns, for each rank, the node it should run on. Every
	// node must receive at most capacity ranks.
	Assign(weights []float64, nodes, capacity int) []int
}

// BlockPlacer is the naive contiguous assignment most MPI launchers
// default to: the first capacity ranks on node 0, the next on node 1, ...
type BlockPlacer struct{}

// Name implements Placer.
func (BlockPlacer) Name() string { return "block" }

// Assign implements Placer.
func (BlockPlacer) Assign(weights []float64, nodes, capacity int) []int {
	checkCapacity(len(weights), nodes, capacity)
	out := make([]int, len(weights))
	for i := range weights {
		out[i] = i / capacity
	}
	return out
}

// RoundRobinPlacer deals ranks across nodes in order.
type RoundRobinPlacer struct{}

// Name implements Placer.
func (RoundRobinPlacer) Name() string { return "round-robin" }

// Assign implements Placer.
func (RoundRobinPlacer) Assign(weights []float64, nodes, capacity int) []int {
	checkCapacity(len(weights), nodes, capacity)
	out := make([]int, len(weights))
	for i := range weights {
		out[i] = i % nodes
	}
	return out
}

// LPTPlacer is the gang scheduler: greedy longest-processing-time-first
// assignment, placing each rank (heaviest first) on the node with the
// least accumulated load that still has room. This is the "assign the
// correct group of tasks to each node" level; HPCSched then absorbs the
// residual imbalance inside each node.
type LPTPlacer struct{}

// Name implements Placer.
func (LPTPlacer) Name() string { return "gang-lpt" }

// Assign implements Placer.
func (LPTPlacer) Assign(weights []float64, nodes, capacity int) []int {
	checkCapacity(len(weights), nodes, capacity)
	idx := make([]int, len(weights))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return weights[idx[a]] > weights[idx[b]] })
	load := make([]float64, nodes)
	count := make([]int, nodes)
	out := make([]int, len(weights))
	for _, i := range idx {
		best := -1
		for n := 0; n < nodes; n++ {
			if count[n] >= capacity {
				continue
			}
			if best < 0 || load[n] < load[best] {
				best = n
			}
		}
		if best < 0 {
			panic("cluster: cluster capacity exceeded")
		}
		out[i] = best
		load[best] += weights[i]
		count[best]++
	}
	return out
}

func checkCapacity(ranks, nodes, capacity int) {
	if ranks > nodes*capacity {
		panic(fmt.Sprintf("cluster: %d ranks exceed cluster capacity %d×%d",
			ranks, nodes, capacity))
	}
}

// MaxNodeLoad returns the largest per-node weight sum of an assignment —
// the lower bound on the job's pace set by placement alone.
func MaxNodeLoad(weights []float64, assign []int, nodes int) float64 {
	load := make([]float64, nodes)
	for i, n := range assign {
		load[n] += weights[i]
	}
	max := 0.0
	for _, v := range load {
		if v > max {
			max = v
		}
	}
	return max
}
