package workloads

import (
	"testing"

	"hpcsched/internal/cluster"
	"hpcsched/internal/core"
	"hpcsched/internal/mpi"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// newCluster returns an unsharded cluster of the given size on POWER5 chips
// of the given core count, each node's kernel passed through install.
func newCluster(t *testing.T, nodes int, seed uint64, cores int, install func(*sched.Kernel)) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Nodes: nodes, Shards: 1, Seed: seed, MPI: mpi.DefaultOptions(),
		NewNode: func(_ int, e *sim.Engine) *sched.Kernel {
			k := sched.NewKernel(e, power5.NewChip(cores, power5.NewCalibratedPerfModel()), sched.DefaultOptions())
			if install != nil {
				install(k)
			}
			return k
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newMachine is the paper's machine: a 1-node cluster on a 2-core chip,
// the placement every single-node run builds on.
func newMachine(t *testing.T, seed uint64) *cluster.Cluster {
	return newCluster(t, 1, seed, 2, nil)
}

// runToExit runs c until every rank has exited or horizon passes and
// returns the end instant.
func runToExit(t *testing.T, c *cluster.Cluster, horizon sim.Time) sim.Time {
	t.Helper()
	end, err := c.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle()
	return end
}

func TestMetBenchStructure(t *testing.T) {
	c := newMachine(t, 1)
	cfg := DefaultMetBench()
	cfg.Iterations = 3
	cfg.SmallWork = 10 * sim.Millisecond
	cfg.LargeWork = 40 * sim.Millisecond
	job := BuildMetBench(c, cfg)
	if len(job.Tasks) != 5 {
		t.Fatalf("tasks = %d, want 4 workers + master", len(job.Tasks))
	}
	end := runToExit(t, c, 10*sim.Second)
	if end >= 10*sim.Second {
		t.Fatal("MetBench deadlocked")
	}
	// Worker roles: odd ranks carry the large load → higher utilization.
	u := func(i int) float64 { return job.Tasks[i].Utilization() }
	if u(1) <= u(0) || u(3) <= u(2) {
		t.Fatalf("load roles wrong: %v %v %v %v", u(0), u(1), u(2), u(3))
	}
	// Every worker sleeps each iteration (the master handshake).
	for i := 0; i < 4; i++ {
		if job.Tasks[i].WakeupCount < int64(cfg.Iterations) {
			t.Errorf("worker %d woke only %d times", i, job.Tasks[i].WakeupCount)
		}
	}
	// The master stays near zero utilization.
	if u(4) > 0.02 {
		t.Errorf("master utilization = %v, want ≈0", u(4))
	}
	c.Shutdown()
}

func TestMetBenchPlacementInterleaved(t *testing.T) {
	c := newMachine(t, 1)
	cfg := DefaultMetBench()
	cfg.Iterations = 2
	cfg.SmallWork = 5 * sim.Millisecond
	cfg.LargeWork = 20 * sim.Millisecond
	job := BuildMetBench(c, cfg)
	runToExit(t, c, 10*sim.Second)
	// Small+large per core: P1/P2 on core 0, P3/P4 on core 1.
	if job.Tasks[0].CPU/2 != job.Tasks[1].CPU/2 {
		t.Errorf("P1 (cpu %d) and P2 (cpu %d) not on the same core",
			job.Tasks[0].CPU, job.Tasks[1].CPU)
	}
	if job.Tasks[2].CPU/2 != job.Tasks[3].CPU/2 {
		t.Errorf("P3 (cpu %d) and P4 (cpu %d) not on the same core",
			job.Tasks[2].CPU, job.Tasks[3].CPU)
	}
	c.Shutdown()
}

func TestMetBenchStaticPriosApplied(t *testing.T) {
	c := newMachine(t, 1)
	cfg := DefaultMetBench()
	cfg.Iterations = 2
	cfg.SmallWork = 5 * sim.Millisecond
	cfg.LargeWork = 20 * sim.Millisecond
	cfg.StaticPrios = MetBenchStaticPrios()
	job := BuildMetBench(c, cfg)
	runToExit(t, c, 10*sim.Second)
	for i, want := range []power5.Priority{4, 6, 4, 6} {
		if job.Tasks[i].HWPrio != want {
			t.Errorf("P%d priority = %v, want %v", i+1, job.Tasks[i].HWPrio, want)
		}
	}
	c.Shutdown()
}

func TestMetBenchVarReversesRoles(t *testing.T) {
	c := newMachine(t, 1)
	cfg := DefaultMetBenchVar()
	cfg.Iterations = 4
	cfg.K = 2
	cfg.SmallWork = 5 * sim.Millisecond
	cfg.LargeWork = 20 * sim.Millisecond
	job := BuildMetBenchVar(c, cfg)
	end := runToExit(t, c, 10*sim.Second)
	if end >= 10*sim.Second {
		t.Fatal("MetBenchVar deadlocked")
	}
	// With one reversal in the middle, every worker carries the large
	// load for half the run: utilizations converge.
	u := make([]float64, 4)
	for i := range u {
		u[i] = job.Tasks[i].Utilization()
	}
	for i := 1; i < 4; i++ {
		d := u[i] - u[0]
		if d < -0.25 || d > 0.25 {
			t.Errorf("utils should be near-symmetric after reversal: %v", u)
		}
	}
	c.Shutdown()
}

func TestBTMZStructure(t *testing.T) {
	c := newMachine(t, 1)
	cfg := DefaultBTMZ()
	cfg.Iterations = 3
	for i := range cfg.ZoneWork {
		cfg.ZoneWork[i] /= 10
	}
	job := BuildBTMZ(c, cfg)
	if len(job.Tasks) != 4 {
		t.Fatalf("tasks = %d", len(job.Tasks))
	}
	end := runToExit(t, c, 10*sim.Second)
	if end >= 10*sim.Second {
		t.Fatal("BT-MZ deadlocked")
	}
	// Utilization ordering follows zone sizes.
	for i := 1; i < 4; i++ {
		if job.Tasks[i].Utilization() <= job.Tasks[i-1].Utilization() {
			t.Errorf("zone utilization ordering broken at %d: %v vs %v",
				i, job.Tasks[i].Utilization(), job.Tasks[i-1].Utilization())
		}
	}
	// Messages flow: 2 boundary exchanges per inner rank per phase plus
	// the reduction.
	if job.World.MsgCount() == 0 {
		t.Fatal("no messages exchanged")
	}
	// Pairing: P1 with P4, P2 with P3 (identified from the paper's
	// static-run utilizations).
	if job.Tasks[0].CPU/2 != job.Tasks[3].CPU/2 {
		t.Errorf("P1 (cpu %d) and P4 (cpu %d) must share a core",
			job.Tasks[0].CPU, job.Tasks[3].CPU)
	}
	c.Shutdown()
}

func TestBTMZHeaviestRankSleepsEachIteration(t *testing.T) {
	c := newMachine(t, 1)
	cfg := DefaultBTMZ()
	cfg.Iterations = 5
	for i := range cfg.ZoneWork {
		cfg.ZoneWork[i] /= 10
	}
	job := BuildBTMZ(c, cfg)
	runToExit(t, c, 10*sim.Second)
	// The residual reduction gives even P4 a wait phase per iteration —
	// the detector's trigger.
	if job.Tasks[3].WakeupCount < int64(cfg.Iterations) {
		t.Errorf("P4 woke %d times, want ≥%d", job.Tasks[3].WakeupCount, cfg.Iterations)
	}
	c.Shutdown()
}

func TestSiestaStructure(t *testing.T) {
	c := newMachine(t, 1)
	cfg := DefaultSiesta()
	cfg.SCFIterations = 2
	cfg.SubSteps = 5
	job := BuildSiesta(c, cfg)
	if len(job.Tasks) != 4 {
		t.Fatalf("tasks = %d", len(job.Tasks))
	}
	end := runToExit(t, c, 20*sim.Second)
	if end >= 20*sim.Second {
		t.Fatal("SIESTA deadlocked")
	}
	// The master dominates; workers idle between requests.
	if u := job.Tasks[0].Utilization(); u < 0.9 {
		t.Errorf("master utilization = %v, want ≥0.9", u)
	}
	for i := 1; i < 4; i++ {
		if u := job.Tasks[i].Utilization(); u > 0.8 {
			t.Errorf("worker %d utilization = %v, want <0.8", i, u)
		}
	}
	// Deep pipelining: the master must sleep far less often than the
	// workers.
	if job.Tasks[0].WakeupCount > job.Tasks[1].WakeupCount/2 {
		t.Errorf("master wakes (%d) not rare vs worker (%d)",
			job.Tasks[0].WakeupCount, job.Tasks[1].WakeupCount)
	}
	c.Shutdown()
}

// placements returns fresh 1-node and 2-node cluster placements, so every
// config check runs through both.
func placements(t *testing.T) map[string]func() Placement {
	return map[string]func() Placement{
		"1-node": func() Placement { return newMachine(t, 1) },
		"2-node": func() Placement { return newCluster(t, 2, 1, 2, nil) },
	}
}

// expectPanics runs every invalid build on every placement.
func expectPanics(t *testing.T, builds map[string]func(Placement)) {
	t.Helper()
	for pname, newPlacement := range placements(t) {
		for name, build := range builds {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s/%s: invalid config did not panic", pname, name)
					}
				}()
				build(newPlacement())
			}()
		}
	}
}

func TestConfigValidation(t *testing.T) {
	expectPanics(t, map[string]func(Placement){
		"metbench-iters":    func(p Placement) { BuildMetBench(p, MetBenchConfig{}) },
		"metbench-workers":  func(p Placement) { BuildMetBench(p, MetBenchConfig{Iterations: 1, Workers: 1}) },
		"metbenchvar-iters": func(p Placement) { BuildMetBenchVar(p, MetBenchVarConfig{Iterations: 3}) },
		"btmz-ranks":        func(p Placement) { BuildBTMZ(p, BTMZConfig{Iterations: 1, ZoneWork: []sim.Time{1}}) },
		"siesta-workers": func(p Placement) {
			BuildSiesta(p, SiestaConfig{SCFIterations: 1, SubSteps: 1,
				WorkerWork: []sim.Time{1, 2}})
		},
		// A static-priority pattern must cover exactly one node's ranks.
		"metbench-prios": func(p Placement) {
			BuildMetBench(p, MetBenchConfig{Iterations: 1, Workers: 8,
				StaticPrios: MetBenchStaticPrios()})
		},
		"metbenchvar-prios": func(p Placement) {
			BuildMetBenchVar(p, MetBenchVarConfig{Iterations: 3, K: 1,
				StaticPrios: MetBenchStaticPrios()[:3]})
		},
		"btmz-prios": func(p Placement) {
			BuildBTMZ(p, BTMZConfig{Iterations: 1, ZoneWork: []sim.Time{1, 2},
				StaticPrios: BTMZStaticPrios()})
		},
		"siesta-prios": func(p Placement) {
			BuildSiesta(p, SiestaConfig{SCFIterations: 1, SubSteps: 1,
				WorkerWork: []sim.Time{1, 2, 3}, StaticPrios: BTMZStaticPrios()[:3]})
		},
		// The gang job's assignment must place every rank on a real node.
		"gang-assign-length": func(p Placement) {
			BuildGang(p, GangConfig{Weights: []sim.Time{1, 2}, Assign: []int{0}, Iterations: 1})
		},
		"gang-node-range": func(p Placement) {
			BuildGang(p, GangConfig{Weights: []sim.Time{1, 2}, Assign: []int{0, 2}, Iterations: 1})
		},
	})
}

func TestNamesAndDescribe(t *testing.T) {
	names := Names()
	if len(names) != 5 {
		t.Fatalf("Names = %v", names)
	}
	for _, n := range names {
		if Describe(n) == "" || Describe(n) == Describe("nope") {
			t.Errorf("Describe(%q) broken", n)
		}
	}
}

// TestMetBenchScalesToEightWorkers runs the microbenchmark on a 4-core
// (8-CPU) chip with 8 workers under the HPC class: the balancing story
// generalises beyond the paper's machine.
func TestMetBenchScalesToEightWorkers(t *testing.T) {
	c := newCluster(t, 1, 11, 4, func(k *sched.Kernel) {
		if _, err := core.Install(k, core.Config{Heuristic: core.UniformHeuristic{}}); err != nil {
			t.Fatal(err)
		}
	})
	cfg := DefaultMetBench()
	cfg.Workers = 8
	cfg.Iterations = 6
	cfg.SmallWork = 40 * sim.Millisecond
	cfg.LargeWork = 230 * sim.Millisecond
	cfg.Policy = sched.PolicyHPC
	job := BuildMetBench(c, cfg)
	end := runToExit(t, c, 60*sim.Second)
	if end >= 60*sim.Second {
		t.Fatal("8-worker MetBench deadlocked")
	}
	boosted := 0
	for i := 0; i < 8; i++ {
		if i%2 == 1 && job.Tasks[i].HWPrio == power5.PrioHigh {
			boosted++
		}
	}
	if boosted < 3 {
		t.Fatalf("only %d of 4 large workers boosted to 6", boosted)
	}
	c.Shutdown()
}

func TestJitterChangesTimingNotStructure(t *testing.T) {
	run := func(j float64) sim.Time {
		c := newMachine(t, 5)
		cfg := DefaultMetBench()
		cfg.Iterations = 3
		cfg.SmallWork = 5 * sim.Millisecond
		cfg.LargeWork = 20 * sim.Millisecond
		cfg.JitterFrac = j
		BuildMetBench(c, cfg)
		end := runToExit(t, c, 10*sim.Second)
		c.Shutdown()
		return end
	}
	plain, jittered := run(0), run(0.3)
	if plain == jittered {
		t.Error("jitter had no effect on timing")
	}
	if jittered >= 10*sim.Second {
		t.Error("jittered run deadlocked")
	}
}

func TestMatMulDAGStructure(t *testing.T) {
	c := newMachine(t, 1)
	cfg := DefaultMatMulDAG()
	cfg.Panels = 12
	job := BuildMatMulDAG(c, cfg)
	if len(job.Tasks) != 4 {
		t.Fatalf("tasks = %d, want one per UpdateWork entry", len(job.Tasks))
	}
	end := runToExit(t, c, 60*sim.Second)
	if end >= 60*sim.Second {
		t.Fatal("MatMulDAG deadlocked")
	}
	// Panels are broadcast: n-1 sends per step plus the init barrier.
	if job.World.MsgCount() == 0 {
		t.Fatal("no messages exchanged")
	}
	// Built-in imbalance: utilization follows the uneven update costs.
	if job.Tasks[3].Utilization() <= job.Tasks[0].Utilization() {
		t.Errorf("heavy rank not busier: %v vs %v",
			job.Tasks[3].Utilization(), job.Tasks[0].Utilization())
	}
	// Ownership rotates: every rank owns some panels, so every rank both
	// waits on panels (wakeups) and computes.
	for i, task := range job.Tasks {
		if task.WakeupCount == 0 {
			t.Errorf("rank %d never blocked on a panel", i)
		}
	}
	c.Shutdown()
}

func TestMatMulDAGValidation(t *testing.T) {
	expectPanics(t, map[string]func(Placement){
		"ranks":  func(p Placement) { BuildMatMulDAG(p, MatMulDAGConfig{Panels: 2, UpdateWork: []sim.Time{1}}) },
		"panels": func(p Placement) { BuildMatMulDAG(p, MatMulDAGConfig{UpdateWork: []sim.Time{1, 2}}) },
		"prios": func(p Placement) {
			BuildMatMulDAG(p, MatMulDAGConfig{Panels: 2, UpdateWork: []sim.Time{1, 2},
				StaticPrios: MatMulDAGStaticPrios()})
		},
	})
}

func TestMatMulDAGStaticPriosApplied(t *testing.T) {
	c := newMachine(t, 1)
	cfg := DefaultMatMulDAG()
	cfg.Panels = 4
	cfg.StaticPrios = MatMulDAGStaticPrios()
	job := BuildMatMulDAG(c, cfg)
	runToExit(t, c, 60*sim.Second)
	for i, want := range MatMulDAGStaticPrios() {
		if job.Tasks[i].HWPrio != want {
			t.Errorf("rank %d priority = %v, want %v", i, job.Tasks[i].HWPrio, want)
		}
	}
	c.Shutdown()
}
