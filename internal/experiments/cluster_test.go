package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcsched/internal/faults"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
	"hpcsched/internal/workloads"
)

// update regenerates the cluster golden: UPDATE_GOLDEN=1 go test ./internal/experiments/ -run ClusterGolden
var update = os.Getenv("UPDATE_GOLDEN") != ""

// clusterCfg builds a small multi-node run: the paper workloads with their
// iteration counts shrunk so a full cluster simulation stays test-sized.
func clusterCfg(workload string, nodes int, topology string, seed uint64) Config {
	return Config{
		Workload: workload,
		Mode:     ModeAdaptive,
		Seed:     seed,
		Nodes:    nodes,
		Topology: topology,
		Trace:    true,
		TweakMetBench: func(c *workloads.MetBenchConfig) {
			c.Iterations = 3
			c.SmallWork = 40 * sim.Millisecond
			c.LargeWork = 230 * sim.Millisecond
		},
		TweakMetBenchVar: func(c *workloads.MetBenchVarConfig) {
			c.Iterations = 4
			c.K = 2
			c.SmallWork = 60 * sim.Millisecond
			c.LargeWork = 340 * sim.Millisecond
		},
		TweakBTMZ: func(c *workloads.BTMZConfig) { c.Iterations = 3 },
		TweakSiesta: func(c *workloads.SiestaConfig) {
			c.SCFIterations = 2
			c.SubSteps = 3
		},
		TweakMatMulDAG: func(c *workloads.MatMulDAGConfig) {
			c.Panels = 8
			c.PanelWork = 30 * sim.Millisecond
		},
	}
}

// clusterRunFingerprint runs the config and renders everything the window
// cut must not change: the cluster timeline, the fault timeline and every
// node's rendered .prv trace.
func clusterRunFingerprint(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	var b strings.Builder
	b.WriteString(ClusterTimeline(res))
	for node, rec := range res.Cluster.Recorders {
		if rec == nil {
			continue
		}
		fmt.Fprintf(&b, "--- node %d trace ---\n%s", node, rec.ExportPRV())
	}
	return b.String()
}

// TestClusterGoldenTimeline pins the headline determinism claim for every
// workload: each 4-node cluster timeline (plus every node's .prv) is
// byte-identical whether the calendar cuts its windows at the lookahead
// bound or at every latency floor, and matches its committed golden
// byte-for-byte. Regenerate with UPDATE_GOLDEN=1.
//
// In the metbench, metbenchvar and siesta runs the last rank to exit on
// one node ends with a cross-node send; their goldens pin that the send
// still leaves (no node "capped"). Their 10 s horizon bounds the cost of a
// regression: a lost send would otherwise cap its receiver's node only
// after an hour of simulated OS noise, which takes minutes under -race.
func TestClusterGoldenTimeline(t *testing.T) {
	for _, tc := range []struct {
		workload string
		faults   string
		horizon  sim.Time
	}{
		{"btmz", "slow:n=2,factor=0.5,dur=500ms,by=2s;mpidelay:n=1,extra=200us,dur=1s,by=3s", 0},
		{"metbench", "", 10 * sim.Second},
		{"metbenchvar", "", 10 * sim.Second},
		{"siesta", "", 10 * sim.Second},
		{"matmul", "", 0},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			base := clusterCfg(tc.workload, 4, "flat", 42)
			base.Horizon = tc.horizon
			if tc.faults != "" {
				base.Faults = faults.MustParse(tc.faults)
			}
			got := clusterRunFingerprint(t, base)
			floor := base
			floor.FloorPacing = true
			if cut := clusterRunFingerprint(t, floor); cut != got {
				t.Fatalf("floor-cut run differs from the calendar's windows:\n%s", firstDiff(got, cut))
			}
			path := filepath.Join("testdata", "golden_cluster_"+tc.workload+".txt")
			if update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("cluster timeline differs from golden:\n%s", firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff renders the first line where two multi-line strings diverge.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n want: %s\n  got: %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(wl), len(gl))
}

// TestClusterShardEquivalenceRandomized sweeps seeds, topologies and
// workloads with faults injected, requiring the run cut at every latency
// floor (FloorPacing) to reproduce the calendar's run byte-for-byte —
// timelines, fault logs and traces. The name predates the sequential
// calendar (it once compared shard counts); it is kept so the test's ID
// stays stable.
func TestClusterShardEquivalenceRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	seeds := []uint64{1, 1043}
	topologies := []string{"flat", "ring", "star"}
	for _, workload := range []string{"metbench", "matmul", "siesta", "metbenchvar"} {
		for _, seed := range seeds {
			for _, topo := range topologies {
				name := fmt.Sprintf("%s/%s/seed%d", workload, topo, seed)
				t.Run(name, func(t *testing.T) {
					cfg := clusterCfg(workload, 3, topo, seed)
					cfg.Faults = faults.MustParse("stall:n=1,dur=100ms,by=1s")
					want := clusterRunFingerprint(t, cfg)
					cfg.FloorPacing = true
					if got := clusterRunFingerprint(t, cfg); got != want {
						t.Errorf("floor-cut run diverges:\n%s", firstDiff(want, got))
					}
				})
			}
		}
	}
}

// TestClusterFaultTimelinePerNode: every node compiles and applies its own
// timeline, and the merged log prefixes each line with its node.
func TestClusterFaultTimelinePerNode(t *testing.T) {
	cfg := clusterCfg("metbench", 2, "flat", 7)
	cfg.Faults = faults.MustParse("slow:n=1,factor=0.5,dur=200ms,by=1s")
	res, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 2; node++ {
		if !strings.Contains(res.FaultTimeline, fmt.Sprintf("n%d ", node)) {
			t.Errorf("fault timeline missing node %d entries:\n%s", node, res.FaultTimeline)
		}
	}
}

// TestClusterCancelAborts: context cancellation reaches every node engine
// and surfaces as a single *AbortError; with HPCSCHED_DIAG_DIR set the
// diagnostic dump lands on disk for CI to upload.
func TestClusterCancelAborts(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("HPCSCHED_DIAG_DIR", dir)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := clusterCfg("metbench", 2, "flat", 3)
	// Cancellation is polled every interruptStride fired events; keep the
	// full-size workload so every node comfortably outlives the first poll.
	cfg.TweakMetBench = nil
	_, err := RunCtx(ctx, cfg)
	var aerr *AbortError
	if !errors.As(err, &aerr) {
		t.Fatalf("RunCtx = %v, want *AbortError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("abort does not unwrap to context.Canceled: %v", err)
	}
	if aerr.Dump == "" {
		t.Error("abort carries no diagnostic dump")
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("no diagnostic dump written to HPCSCHED_DIAG_DIR (files=%v, err=%v)", files, err)
	}
	body, err := os.ReadFile(filepath.Join(dir, files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "reason:") {
		t.Errorf("dump file lacks the abort reason:\n%s", body)
	}
}

// TestScenarioSpecClusterFields: the spec plumbs the cluster knobs into
// every expanded replica config.
func TestScenarioSpecClusterFields(t *testing.T) {
	spec := ScenarioSpec{
		Workload: "btmz", Mode: ModeUniform, Seed: 5,
		Nodes: 4, Topology: "ring", Replicas: 2,
	}
	cfgs := spec.Configs()
	if len(cfgs) != 2 {
		t.Fatalf("expanded %d configs, want 2", len(cfgs))
	}
	for i, c := range cfgs {
		if c.Nodes != 4 || c.Topology != "ring" {
			t.Errorf("config %d lost cluster fields: nodes=%d topology=%q",
				i, c.Nodes, c.Topology)
		}
	}
}

// TestClusterPlacementSpansNodes: the scaled workloads really distribute
// ranks across nodes (block for the benchmarks, round-robin for the DAG)
// and traffic crosses the interconnect.
func TestClusterPlacementSpansNodes(t *testing.T) {
	for _, workload := range []string{"metbench", "btmz", "matmul"} {
		cfg := clusterCfg(workload, 2, "flat", 9)
		res, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		onNode := map[int]int{}
		for _, n := range res.Cluster.RankNodes {
			onNode[n]++
		}
		if onNode[0] == 0 || onNode[1] == 0 {
			t.Errorf("%s: ranks not spread over nodes: %v", workload, onNode)
		}
		if res.World.RemoteMsgCount() == 0 {
			t.Errorf("%s: no inter-node messages at all", workload)
		}
	}
}

// TestLookaheadFloorEquivalence is the BT-MZ half of the window-cut sweep
// (TestClusterShardEquivalenceRandomized covers the other workloads): the
// lookahead bound only moves window boundaries, so every run — across node
// counts, topologies and seeds — must be byte-identical to the same run
// forced onto the clock+floor cadence (Config.FloorPacing), timelines,
// fault logs and traces included. 16 nodes exercises the multi-hop reach
// closure the 4-node golden cannot.
func TestLookaheadFloorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	seeds := []uint64{1, 1043}
	topologies := []string{"flat", "ring", "star"}
	for _, nodes := range []int{2, 4, 16} {
		for _, seed := range seeds {
			for _, topo := range topologies {
				name := fmt.Sprintf("n%d/%s/seed%d", nodes, topo, seed)
				t.Run(name, func(t *testing.T) {
					cfg := clusterCfg("btmz", nodes, topo, seed)
					cfg.TweakBTMZ = func(c *workloads.BTMZConfig) { c.Iterations = 2 }
					cfg.Faults = faults.MustParse("stall:n=1,dur=100ms,by=1s")
					cfg.FloorPacing = true
					floor := clusterRunFingerprint(t, cfg)
					cfg.FloorPacing = false
					if got := clusterRunFingerprint(t, cfg); got != floor {
						t.Errorf("lookahead run diverges from floor pacing:\n%s", firstDiff(floor, got))
					}
				})
			}
		}
	}
}

// TestClusterRejectsTraceSink: a trace sink cannot take the interleaved
// windows of several node engines, so a multi-node run with one set fails
// up front with a *TraceSinkError instead of silently dropping it.
func TestClusterRejectsTraceSink(t *testing.T) {
	cfg := clusterCfg("metbench", 2, "flat", 1)
	cfg.TraceSink = trace.NullSink{}
	_, err := RunCtx(context.Background(), cfg)
	var se *TraceSinkError
	if !errors.As(err, &se) {
		t.Fatalf("RunCtx = %v, want *TraceSinkError", err)
	}
	if se.Nodes != 2 {
		t.Errorf("TraceSinkError.Nodes = %d, want 2", se.Nodes)
	}
	// A 1-node run still streams through the sink.
	cfg.Nodes = 1
	if _, err := RunCtx(context.Background(), cfg); err != nil {
		t.Fatalf("single-node run with a sink: %v", err)
	}
}

// TestSingleNodeRunIsOneWindow: a single-node run is the 1-node cluster, at
// Nodes 0 and 1 alike, and it pays no pacing cost — one window to the
// horizon, with no lookahead floor because there is no
// cross-node traffic. Its fault lines carry the node prefix like any
// cluster run's.
func TestSingleNodeRunIsOneWindow(t *testing.T) {
	for _, workload := range []string{"metbench", "metbenchvar", "btmz", "siesta", "matmul"} {
		t.Run(workload, func(t *testing.T) {
			var timelines []string
			for _, nodes := range []int{0, 1} {
				cfg := clusterCfg(workload, nodes, "", 42)
				cfg.Faults = faults.MustParse("slow:n=1,factor=0.5,dur=100ms,by=300ms")
				res, err := RunCtx(context.Background(), cfg)
				if err != nil {
					t.Fatalf("Nodes=%d: %v", nodes, err)
				}
				ci := res.Cluster
				if ci == nil {
					t.Fatalf("Nodes=%d: Result.Cluster is nil", nodes)
				}
				if ci.Windows != 1 || ci.Floor != sim.MaxTime {
					t.Errorf("Nodes=%d: windows=%d floor=%v, want 1 and MaxTime",
						nodes, ci.Windows, ci.Floor)
				}
				for _, line := range strings.Split(res.FaultTimeline, "\n") {
					if !strings.HasPrefix(line, "n0 ") {
						t.Errorf("Nodes=%d: fault line %q lacks the n0 prefix", nodes, line)
					}
				}
				timelines = append(timelines, ClusterTimeline(res))
			}
			if timelines[0] != timelines[1] {
				t.Errorf("Nodes=0 and Nodes=1 differ:\n%s", firstDiff(timelines[0], timelines[1]))
			}
		})
	}
}
