package workloads

import (
	"fmt"

	"hpcsched/internal/mpi"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// GangConfig parameterises the cluster-level job of the paper's future
// work (§VI, "assigning the correct group of tasks to each node"): an
// iterative SPMD job with heterogeneous per-rank loads, globally
// synchronised every iteration — the hardest case for placement. Unlike
// the other builders it does not tile a per-node pattern: Assign is the
// rank→node placement a placement policy (cluster.Placer) chose.
type GangConfig struct {
	// Weights are the per-rank loads in single-thread work per iteration;
	// their count is the rank count.
	Weights []sim.Time
	// Assign[i] is the node rank i runs on.
	Assign     []int
	Iterations int
	Policy     sched.Policy
}

// DefaultGang returns an 8-rank job whose weights defeat contiguous
// placement: the heavy ranks are all in the first half. Assign is left
// for the placement policy.
func DefaultGang() GangConfig {
	return GangConfig{
		Weights: []sim.Time{
			800 * sim.Millisecond,
			700 * sim.Millisecond,
			600 * sim.Millisecond,
			500 * sim.Millisecond,
			200 * sim.Millisecond,
			200 * sim.Millisecond,
			100 * sim.Millisecond,
			100 * sim.Millisecond,
		},
		Iterations: 10,
		Policy:     sched.PolicyNormal,
	}
}

// BuildGang constructs the job on cfg.Assign's nodes. The lightest rank —
// the last one — doubles as the iteration coordinator (as MetBench's
// master does): every other rank reports to it and waits for its
// go-ahead, so even the heaviest rank has a wait phase per iteration, the
// detector's trigger.
func BuildGang(pl Placement, cfg GangConfig) *Job {
	if len(cfg.Assign) != len(cfg.Weights) {
		panic(fmt.Sprintf("workloads: gang job has %d ranks but %d node assignments",
			len(cfg.Weights), len(cfg.Assign)))
	}
	for i, node := range cfg.Assign {
		if node < 0 || node >= pl.Nodes() {
			panic(fmt.Sprintf("workloads: gang rank %d assigned to node %d of %d", i, node, pl.Nodes()))
		}
	}
	w := pl.NewWorld(cfg.Assign)
	job := &Job{Name: "gang", World: w}
	coord := len(cfg.Weights) - 1
	for i, work := range cfg.Weights {
		i, work := i, work
		t := w.Spawn(i, sched.TaskSpec{Policy: cfg.Policy}, func(r *mpi.Rank) {
			for it := 0; it < cfg.Iterations; it++ {
				r.Compute(work)
				if i == coord {
					for p := 0; p < coord; p++ {
						r.Recv(p, it)
					}
					for p := 0; p < coord; p++ {
						r.Send(p, it, 64)
					}
				} else {
					r.Send(coord, it, 64)
					r.Recv(coord, it)
				}
			}
		})
		job.Tasks = append(job.Tasks, t)
	}
	return job
}
