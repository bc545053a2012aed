package cluster

import (
	"runtime"
	"testing"

	"hpcsched/internal/mpi"
)

// setupBytesPerNode bounds what New, NewWorld and Finalize allocate per
// simulated node: the node's engine and kernel plus its share of the
// N×N reach closure. The bound is linear in N on purpose — a per-node-pair
// buffer (a channel or queue per directed pair, sized for the worst-case
// traffic) would make a 64-node run allocate hundreds of megabytes before
// its first event.
const setupBytesPerNode = 64 << 10

// TestSetupMemoryPerNode pins the set-up cost of a 64-node cluster, two
// ranks per node, at setupBytesPerNode per node.
func TestSetupMemoryPerNode(t *testing.T) {
	const nodes = 64
	ranks := make([]int, 2*nodes)
	for i := range ranks {
		ranks[i] = i / 2
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := New(Config{Nodes: nodes, Seed: 1, MPI: mpi.DefaultOptions(), NewNode: newTestNode})
	if err != nil {
		t.Fatal(err)
	}
	c.NewWorld(ranks)
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	c.Shutdown()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("set-up allocated %d bytes for %d nodes (%d per node)", got, nodes, got/nodes)
	if limit := uint64(nodes * setupBytesPerNode); got > limit {
		t.Errorf("set-up allocated %d bytes for %d nodes, over the %d-byte bound (%d per node)",
			got, nodes, limit, setupBytesPerNode)
	}
}
