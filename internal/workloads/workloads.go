// Package workloads builds the paper's four benchmark applications as
// simulated MPI jobs: MetBench, MetBenchVar, a BT-MZ analogue and a SIESTA
// analogue. The work parameters are calibrated so that the baseline runs
// reproduce the per-process utilization signatures and execution times of
// Tables III-VI (see EXPERIMENTS.md for the derivation).
//
// Every builder writes its rank bodies once and runs them on a Placement:
// the nodes of a cluster (*cluster.Cluster), one node being the
// paper's machine. A config describes one node's worth of ranks; on N
// nodes the builder tiles that pattern N times — rank i takes the per-node
// zone, worker cost and static priority of its position in the pattern,
// and runs on node i / perNode (round-robin, i % N, for the
// matrix-multiply DAG). On one node this is exactly the single-node job.
package workloads

import (
	"fmt"

	"hpcsched/internal/mpi"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// Placement says where a job's ranks run.
type Placement interface {
	// Nodes returns the number of nodes the job spans.
	Nodes() int
	// NewWorld creates the job's MPI world with one rank per entry of
	// rankNodes, rank i bound to node rankNodes[i] before any rank runs.
	// The builder launches rank i with World.Spawn, which watches it on
	// its node's kernel.
	NewWorld(rankNodes []int) *mpi.World
	// RankRNGs returns the workload's jitter streams for ranks 0..n-1. It
	// must be called after NewWorld and before the first Spawn. Each
	// rank's stream is split, in rank order, from its node's engine RNG;
	// shared says the ranks of one node share that node's first split
	// (MetBench and BT-MZ draw from one shared stream per node, SIESTA and
	// the DAG from per-rank ones — the rule the single-node goldens were
	// recorded with).
	RankRNGs(n int, shared bool) []*sim.RNG
}

// Job is a constructed workload: the MPI world plus its rank tasks, rank i
// as Tasks[i].
type Job struct {
	Name  string
	World *mpi.World
	Tasks []*sched.Task
}

// rankSpec is rank i's task spec: policy plus an optional fixed hardware
// priority (the hand-tuned static configuration of the paper's [5]), the
// per-node pattern prios tiled across the ranks.
func rankSpec(policy sched.Policy, prios []power5.Priority, i int) sched.TaskSpec {
	spec := sched.TaskSpec{Policy: policy}
	if prios != nil {
		spec.HWPrio = prios[i%len(prios)]
	}
	return spec
}

// checkPrios panics unless prios is nil or holds exactly one priority per
// rank of the single-node pattern: a shorter slice would silently reuse
// priorities, a longer one would silently drop some.
func checkPrios(workload string, prios []power5.Priority, perNode int) {
	if prios != nil && len(prios) != perNode {
		panic(fmt.Sprintf("workloads: %s needs %d static priorities, got %d",
			workload, perNode, len(prios)))
	}
}

// blockNodes places n ranks perNode to a node in rank order.
func blockNodes(n, perNode int) []int {
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i / perNode
	}
	return nodes
}

// ---------------------------------------------------------------------------
// MetBench
// ---------------------------------------------------------------------------

// MetBenchConfig parameterises the BSC microbenchmark: workers alternating
// small and large loads (one of each per SMT core), kept in strict
// synchronisation by a master each iteration. The defaults reproduce
// Table III's baseline (P1/P3 ≈ 25% comp, 81.78 s total on the simulated
// machine).
type MetBenchConfig struct {
	Iterations int
	// Workers is the worker count (default 4 — the paper's machine; use
	// more on larger chips).
	Workers     int
	SmallWork   sim.Time
	LargeWork   sim.Time
	Policy      sched.Policy
	StaticPrios []power5.Priority // one per worker of a node, nil for default
	JitterFrac  float64           // per-iteration work jitter (default 0)
}

// DefaultMetBench returns the Table III calibration.
func DefaultMetBench() MetBenchConfig {
	return MetBenchConfig{
		Iterations: 30,
		SmallWork:  400 * sim.Millisecond,
		LargeWork:  2294 * sim.Millisecond,
		Policy:     sched.PolicyNormal,
	}
}

// MetBenchStaticPrios is the paper's hand-tuned assignment for MetBench:
// the large-load workers (P2, P4) run at priority 6.
func MetBenchStaticPrios() []power5.Priority {
	return []power5.Priority{power5.PrioMedium, power5.PrioHigh,
		power5.PrioMedium, power5.PrioHigh}
}

// BuildMetBench constructs the job. As in the real framework, a master
// process (the last rank, shown as "M") keeps the workers in strict
// synchronisation: each iteration every worker reports completion and
// waits for the master's go-ahead. The master is what gives even the
// slowest worker a wait phase each iteration — the iteration boundary the
// Load Imbalance Detector feeds on. On a cluster every node runs
// cfg.Workers workers and the master sits on node 0, so the iteration
// barrier spans the interconnect.
func BuildMetBench(pl Placement, cfg MetBenchConfig) *Job {
	if cfg.Iterations <= 0 {
		panic("workloads: MetBench needs iterations")
	}
	perNode := cfg.Workers
	if perNode == 0 {
		perNode = 4
	}
	if perNode < 2 {
		panic("workloads: MetBench needs at least 2 workers")
	}
	checkPrios("MetBench", cfg.StaticPrios, perNode)
	workers := perNode * pl.Nodes()
	master := workers
	w := pl.NewWorld(append(blockNodes(workers, perNode), 0))
	job := &Job{Name: "metbench", World: w}
	rngs := pl.RankRNGs(workers, true)
	for i := 0; i < workers; i++ {
		i := i
		work := cfg.SmallWork
		if i%2 == 1 {
			work = cfg.LargeWork
		}
		t := w.Spawn(i, rankSpec(cfg.Policy, cfg.StaticPrios, i), func(r *mpi.Rank) {
			// Initialization: configuration exchange with the master.
			r.Recv(master, 0)
			for it := 0; it < cfg.Iterations; it++ {
				d := work
				if cfg.JitterFrac > 0 {
					d = rngs[i].Jitter(work, cfg.JitterFrac)
				}
				r.Compute(d)
				r.Send(master, 1+it, 64) // report completion
				r.Recv(master, 1+it)     // wait for the go-ahead
			}
		})
		job.Tasks = append(job.Tasks, t)
	}
	job.Tasks = append(job.Tasks, spawnMaster(w, master, cfg.Policy, cfg.Iterations))
	return job
}

// spawnMaster launches the MetBench master: it releases every worker,
// then each iteration collects every completion report and answers with
// the go-ahead.
func spawnMaster(w *mpi.World, master int, policy sched.Policy, iterations int) *sched.Task {
	return w.Spawn(master, sched.TaskSpec{Name: "M", Policy: policy},
		func(r *mpi.Rank) {
			for p := 0; p < master; p++ {
				r.Send(p, 0, 1024)
			}
			for it := 0; it < iterations; it++ {
				for p := 0; p < master; p++ {
					r.Recv(p, 1+it)
				}
				for p := 0; p < master; p++ {
					r.Send(p, 1+it, 64)
				}
			}
		})
}

// ---------------------------------------------------------------------------
// MetBenchVar
// ---------------------------------------------------------------------------

// MetBenchVarConfig is MetBench with the load assignment reversed every K
// iterations: P1/P3 start small and become large in the second period,
// making the application's behaviour dynamic (§V-B).
type MetBenchVarConfig struct {
	Iterations  int // total (the paper: 45 = 3 periods of k=15)
	K           int // period length
	SmallWork   sim.Time
	LargeWork   sim.Time
	Policy      sched.Policy
	StaticPrios []power5.Priority
}

// DefaultMetBenchVar returns the Table IV calibration (k=15, 45
// iterations, baseline ≈ 368 s).
func DefaultMetBenchVar() MetBenchVarConfig {
	return MetBenchVarConfig{
		Iterations: 45,
		K:          15,
		SmallWork:  1200 * sim.Millisecond,
		LargeWork:  6886 * sim.Millisecond,
		Policy:     sched.PolicyNormal,
	}
}

// BuildMetBenchVar constructs the job (same master/worker structure as
// MetBench, four workers per node, with the load roles reversing every K
// iterations).
func BuildMetBenchVar(pl Placement, cfg MetBenchVarConfig) *Job {
	if cfg.Iterations <= 0 || cfg.K <= 0 {
		panic("workloads: MetBenchVar needs iterations and K")
	}
	const perNode = 4
	checkPrios("MetBenchVar", cfg.StaticPrios, perNode)
	workers := perNode * pl.Nodes()
	master := workers
	w := pl.NewWorld(append(blockNodes(workers, perNode), 0))
	job := &Job{Name: "metbenchvar", World: w}
	for i := 0; i < workers; i++ {
		i := i
		t := w.Spawn(i, rankSpec(cfg.Policy, cfg.StaticPrios, i), func(r *mpi.Rank) {
			r.Recv(master, 0)
			for it := 0; it < cfg.Iterations; it++ {
				period := it / cfg.K
				smallRole := i%2 == 0
				if period%2 == 1 {
					smallRole = !smallRole // reversed period
				}
				if smallRole {
					r.Compute(cfg.SmallWork)
				} else {
					r.Compute(cfg.LargeWork)
				}
				r.Send(master, 1+it, 64)
				r.Recv(master, 1+it)
			}
		})
		job.Tasks = append(job.Tasks, t)
	}
	job.Tasks = append(job.Tasks, spawnMaster(w, master, cfg.Policy, cfg.Iterations))
	return job
}

// ---------------------------------------------------------------------------
// BT-MZ analogue
// ---------------------------------------------------------------------------

// BTMZConfig parameterises the NAS BT Multi-Zone analogue: zones of uneven
// size are distributed over the ranks, giving each rank a different
// per-iteration load. Each iteration runs the three directional sweeps
// (x, y, z); after each sweep the rank exchanges boundary data with its
// chain neighbours via isend/irecv/waitall — no global barrier, exactly
// the §V-C communication structure.
type BTMZConfig struct {
	Iterations int
	ZoneWork   []sim.Time // per-rank compute per iteration
	// PhaseWeights[i] splits rank i's iteration across the three sweeps.
	// The per-rank skew is what occasionally makes even the heaviest rank
	// wait for a neighbour's boundary data, giving the detector its
	// iteration boundaries.
	PhaseWeights [][3]float64
	BoundaryMsg  int64 // bytes exchanged with each neighbour per sweep
	Policy       sched.Policy
	StaticPrios  []power5.Priority
	JitterFrac   float64
}

// DefaultBTMZ returns the Table V calibration (class A, 200 iterations;
// baseline utils ≈ 17.6 / 29.9 / 66.1 / 99.9, exec ≈ 95 s). The paper's
// per-process utilization shifts under the static priorities (P1's
// utilization quadruples when P4 runs at 6) pin the rank placement of
// that run: P1 and P4 shared one core, P2 and P3 the other; BuildBTMZ
// spawns in that order.
func DefaultBTMZ() BTMZConfig {
	return BTMZConfig{
		Iterations: 200,
		ZoneWork: []sim.Time{
			49 * sim.Millisecond,
			85 * sim.Millisecond,
			235 * sim.Millisecond,
			411 * sim.Millisecond,
		},
		PhaseWeights: [][3]float64{
			{0.33, 0.34, 0.33},
			{0.34, 0.33, 0.33},
			{0.42, 0.33, 0.25},
			{0.35, 0.33, 0.32},
		},
		BoundaryMsg: 200 << 10,
		JitterFrac:  0.05,
		Policy:      sched.PolicyNormal,
	}
}

// BTMZStaticPrios is the paper's hand-tuned Table V assignment:
// P1=4, P2=4, P3=5, P4=6.
func BTMZStaticPrios() []power5.Priority {
	return []power5.Priority{power5.PrioMedium, power5.PrioMedium,
		power5.PrioMediumHigh, power5.PrioHigh}
}

// BuildBTMZ constructs the job. On a cluster the zones of every node join
// one global neighbour-exchange chain (block placement, so exactly one
// boundary pair per node border crosses the interconnect), and the
// per-iteration residual reduction stays rooted at rank 0.
func BuildBTMZ(pl Placement, cfg BTMZConfig) *Job {
	perNode := len(cfg.ZoneWork)
	if perNode < 2 {
		panic("workloads: BT-MZ needs at least 2 ranks")
	}
	checkPrios("BT-MZ", cfg.StaticPrios, perNode)
	nodes := pl.Nodes()
	n := perNode * nodes
	w := pl.NewWorld(blockNodes(n, perNode))
	job := &Job{Name: "btmz", World: w}
	rngs := pl.RankRNGs(n, true)
	// Spawn (and therefore place) each node's ranks so P1/P4 share core 0
	// and P2/P3 share core 1, the layout the paper's static-priority
	// utilizations identify. For other rank counts, fall back to rank
	// order.
	order := make([]int, 0, n)
	for g := 0; g < nodes; g++ {
		if perNode == 4 {
			order = append(order, g*4+0, g*4+3, g*4+1, g*4+2)
		} else {
			for o := 0; o < perNode; o++ {
				order = append(order, g*perNode+o)
			}
		}
	}
	tasks := make([]*sched.Task, n)
	for _, i := range order {
		i := i
		zone := cfg.ZoneWork[i%perNode]
		weights := [3]float64{0.33, 0.34, 0.33}
		if cfg.PhaseWeights != nil {
			weights = cfg.PhaseWeights[i%len(cfg.PhaseWeights)]
		}
		rng := rngs[i]
		t := w.Spawn(i, rankSpec(cfg.Policy, cfg.StaticPrios, i), func(r *mpi.Rank) {
			r.Barrier() // initialization sync only
			// Boundary exchange is pipelined one sweep deep, as in the
			// real code: the data sent after sweep k is consumed by the
			// neighbour's sweep k+1, so a slow rank's messages have one
			// sweep of slack before they gate anyone. The two request
			// buffers alternate roles (in-flight vs being-filled), as the
			// real application reuses its request arrays.
			pending := make([]mpi.Request, 0, 2)
			recvs := make([]mpi.Request, 0, 2)
			for it := 0; it < cfg.Iterations; it++ {
				for phase := 0; phase < 3; phase++ {
					d := sim.Time(float64(zone) * weights[phase])
					if cfg.JitterFrac > 0 {
						d = rng.Jitter(d, cfg.JitterFrac)
					}
					r.Compute(d)
					tag := it*3 + phase
					recvs = recvs[:0]
					if i > 0 {
						recvs = append(recvs, r.Irecv(i-1, tag))
						r.Isend(i-1, tag, cfg.BoundaryMsg)
					}
					if i < n-1 {
						recvs = append(recvs, r.Irecv(i+1, tag))
						r.Isend(i+1, tag, cfg.BoundaryMsg)
					}
					r.Waitall(pending)
					pending, recvs = recvs, pending
				}
				// Per-iteration residual reduction rooted at rank 0: the
				// heaviest rank's partial arrives last, so even the
				// straggler sleeps for the (brief) result broadcast —
				// the iteration boundary the detector feeds on.
				rtag := 1 << 20
				if i == 0 {
					for p := 1; p < n; p++ {
						r.Recv(p, rtag+it)
					}
					r.Compute(10 * sim.Microsecond)
					for p := 1; p < n; p++ {
						r.Send(p, rtag+it, 64)
					}
				} else {
					r.Send(0, rtag+it, 64)
					r.Recv(0, rtag+it)
				}
			}
			r.Waitall(pending)
		})
		tasks[i] = t
	}
	job.Tasks = tasks
	return job
}

// ---------------------------------------------------------------------------
// SIESTA analogue
// ---------------------------------------------------------------------------

// SiestaConfig parameterises the SIESTA analogue: an irregular ab-initio
// style run where P1 drives self-consistency iterations almost without
// blocking (util ≈ 99%), farming many small sub-steps to the three workers
// over a deeply pipelined request/response pattern; the workers idle
// between sub-steps (utils ≈ 53 / 28 / 20). Iterations are jittered so no
// iteration is representative of the next, as the paper observes.
type SiestaConfig struct {
	SCFIterations int
	SubSteps      int
	MasterWork    sim.Time   // per sub-step
	WorkerWork    []sim.Time // per sub-step for ranks 1..3
	JitterFrac    float64
	RequestBytes  int64
	ResponseBytes int64
	Policy        sched.Policy
	StaticPrios   []power5.Priority // the master, then ranks 1..3; nil for default
}

// DefaultSiesta returns the Table VI calibration (benzene-like: utils
// ≈ 98.9 / 52.8 / 28.4 / 20.0, baseline ≈ 81.5 s).
func DefaultSiesta() SiestaConfig {
	return SiestaConfig{
		SCFIterations: 45,
		SubSteps:      35,
		MasterWork:    41300 * sim.Microsecond,
		WorkerWork: []sim.Time{
			18200 * sim.Microsecond,
			9100 * sim.Microsecond,
			6000 * sim.Microsecond,
		},
		JitterFrac:    0.35,
		RequestBytes:  8 << 10,
		ResponseBytes: 32 << 10,
		Policy:        sched.PolicyNormal,
	}
}

// BuildSiesta constructs the job. On a cluster the master stays on node 0
// and farms sub-steps to three workers per node (workers 1..3 beside the
// master, the next three on node 1, and so on), the per-worker costs and
// static priorities cycling through the single-node calibration.
func BuildSiesta(pl Placement, cfg SiestaConfig) *Job {
	perNode := len(cfg.WorkerWork)
	if perNode != 3 {
		panic("workloads: SIESTA analogue uses exactly 4 ranks per node")
	}
	checkPrios("SIESTA", cfg.StaticPrios, perNode+1) // the master, then 3 workers
	nw := perNode * pl.Nodes()
	nodes := make([]int, nw+1) // the master is rank 0, on node 0
	for q := 1; q <= nw; q++ {
		nodes[q] = (q - 1) / perNode
	}
	w := pl.NewWorld(nodes)
	job := &Job{Name: "siesta", World: w}
	total := cfg.SCFIterations * cfg.SubSteps
	// Per-rank RNGs so jitter streams are independent of scheduling.
	rngs := pl.RankRNGs(nw+1, false)
	// Master (P1): computes sub-steps back to back, sending one request
	// per worker per sub-step and collecting the responses of sub-step
	// j-2 — deep enough pipelining that the master almost never blocks.
	t := w.Spawn(0, rankSpec(cfg.Policy, cfg.StaticPrios, 0), func(r *mpi.Rank) {
		r.Barrier()
		const depth = 2
		for j := 0; j < total; j++ {
			r.Compute(rngs[0].Jitter(cfg.MasterWork, cfg.JitterFrac))
			for p := 1; p <= nw; p++ {
				r.Send(p, j, cfg.RequestBytes)
			}
			if j >= depth {
				var reqs []mpi.Request
				for p := 1; p <= nw; p++ {
					reqs = append(reqs, r.Irecv(p, j-depth))
				}
				r.Waitall(reqs)
			}
		}
		// Drain the tail of the pipeline.
		for j := total - 2; j < total; j++ {
			if j < 0 {
				continue
			}
			var reqs []mpi.Request
			for p := 1; p <= nw; p++ {
				reqs = append(reqs, r.Irecv(p, j))
			}
			r.Waitall(reqs)
		}
	})
	job.Tasks = append(job.Tasks, t)
	for p := 1; p <= nw; p++ {
		p := p
		work := cfg.WorkerWork[(p-1)%perNode]
		t := w.Spawn(p, rankSpec(cfg.Policy, cfg.StaticPrios, p), func(r *mpi.Rank) {
			r.Barrier()
			for j := 0; j < total; j++ {
				r.Recv(0, j)
				r.Compute(rngs[p].Jitter(work, cfg.JitterFrac))
				r.Send(0, j, cfg.ResponseBytes)
			}
		})
		job.Tasks = append(job.Tasks, t)
	}
	return job
}

// Names lists the available workloads.
func Names() []string {
	return []string{"metbench", "metbenchvar", "btmz", "siesta", "matmul"}
}

// Describe returns a one-line description of a workload.
func Describe(name string) string {
	switch name {
	case "metbench":
		return "BSC microbenchmark: 2 small + 2 large loads, global barrier (Table III)"
	case "metbenchvar":
		return "MetBench with the load assignment reversed every k iterations (Table IV)"
	case "btmz":
		return "NAS BT Multi-Zone analogue: uneven zones, neighbour exchange (Table V)"
	case "siesta":
		return "SIESTA analogue: irregular master/worker ab-initio run (Table VI)"
	case "matmul":
		return "heterogeneous matrix-multiply task DAG: rotating panel owner, dependency-gated updates"
	default:
		return fmt.Sprintf("unknown workload %q", name)
	}
}
