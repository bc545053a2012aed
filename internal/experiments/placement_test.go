package experiments

import (
	"context"
	"reflect"
	"testing"

	"hpcsched/internal/cluster"
	"hpcsched/internal/workloads"
)

// gangJob is the default gang job shrunk to test size.
func gangJob(iterations int) workloads.GangConfig {
	job := workloads.DefaultGang()
	job.Iterations = iterations
	return job
}

// comparePlacers is ComparePlacers on a 2-node cluster, failing the test on
// a run error.
func comparePlacers(t *testing.T, mode Mode, seed uint64, shards int, job workloads.GangConfig,
	placers ...cluster.Placer) []PlacerResult {
	t.Helper()
	results, err := ComparePlacers(Config{Mode: mode, Seed: seed, Nodes: 2, Shards: shards}, job, placers...)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestGangBeatsNaivePlacement is the headline cluster experiment: the LPT
// gang placement beats block placement decisively, and within each node
// HPCSched squeezes out the residual imbalance.
func TestGangBeatsNaivePlacement(t *testing.T) {
	results := comparePlacers(t, ModeUniform, 42, 0, gangJob(4))
	if len(results) != 3 {
		t.Fatal("missing placers")
	}
	block, lpt := results[0], results[2]
	if lpt.ExecTime >= block.ExecTime {
		t.Fatalf("gang placement (%v) must beat block placement (%v)",
			lpt.ExecTime, block.ExecTime)
	}
	imp := 1 - lpt.ExecTime.Seconds()/block.ExecTime.Seconds()
	if imp < 0.2 {
		t.Fatalf("gang improvement = %.1f%%, want ≥20%% for the adversarial job", imp*100)
	}
	if lpt.MaxLoad >= block.MaxLoad {
		t.Fatal("LPT did not reduce the placement bound")
	}
	out := FormatComparison(results)
	if len(out) == 0 {
		t.Fatal("empty comparison")
	}
}

// TestHPCHelpsWithinNodes: with gang placement fixed, enabling the
// per-node HPC class still improves the run (the residual imbalance
// inside each node).
func TestHPCHelpsWithinNodes(t *testing.T) {
	withHPC := comparePlacers(t, ModeUniform, 42, 0, gangJob(4), cluster.LPTPlacer{})[0]
	without := comparePlacers(t, ModeBaseline, 42, 0, gangJob(4), cluster.LPTPlacer{})[0]
	if withHPC.ExecTime >= without.ExecTime {
		t.Fatalf("HPCSched inside nodes should help: %v vs %v",
			withHPC.ExecTime, without.ExecTime)
	}
}

// TestClusterDeterminism: a placer comparison is a pure function of its
// inputs, byte-identical at one and two shards.
func TestClusterDeterminism(t *testing.T) {
	want := comparePlacers(t, ModeUniform, 9, 1, gangJob(3))
	for _, shards := range []int{1, 2} {
		got := comparePlacers(t, ModeUniform, 9, shards, gangJob(3))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: comparison differs from the 1-shard run:\n%s\n---\n%s",
				shards, FormatComparison(got), FormatComparison(want))
		}
	}
}

// TestClusterHPCInstalled: a cluster run in an HPC mode installs the class
// on every node, a baseline run on none.
func TestClusterHPCInstalled(t *testing.T) {
	for _, mode := range []Mode{ModeUniform, ModeBaseline} {
		cfg := clusterCfg("metbench", 2, 1, "flat", 1)
		cfg.Mode = mode
		res, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for node, k := range res.Cluster.Kernels {
			hasHPC := false
			for _, c := range k.Classes() {
				hasHPC = hasHPC || c.Name() == "hpc"
			}
			if hasHPC != mode.UsesHPCClass() {
				t.Errorf("%v: node %d has the HPC class = %v", mode, node, hasHPC)
			}
		}
	}
}
