package workloads

import (
	"hpcsched/internal/mpi"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// MatMulDAGConfig parameterises the heterogeneous-platform matrix-multiply
// task DAG (after Beaumont & Marchal): a blocked C = A·B where panel k of A
// is owned by rank k mod n. Each step the owner factors its panel and
// broadcasts it; every other rank consumes the panel it pre-posted a
// receive for, then applies its (uneven) trailing update. Progress is
// gated purely by the panel dependency chain — there is no master and no
// global barrier phase structure, so the blocking signature is genuinely
// different from the four MPI benchmarks: whoever owns the next panel is
// on the critical path, and ownership rotates every step.
type MatMulDAGConfig struct {
	// Panels is the number of panel steps (the DAG depth).
	Panels int
	// PanelWork is the owner's per-step panel factorisation cost.
	PanelWork sim.Time
	// UpdateWork is each rank's per-step trailing-update cost; its length
	// sets the rank count. Uneven entries are the workload's built-in
	// imbalance (block-cyclic distributions give border ranks less work).
	UpdateWork []sim.Time
	// PanelBytes is the broadcast panel size.
	PanelBytes int64
	// JitterFrac perturbs every compute burst (per-rank RNG streams).
	JitterFrac  float64
	Policy      sched.Policy
	StaticPrios []power5.Priority
}

// DefaultMatMulDAG returns the default calibration: 4 ranks, 60 panels,
// update costs spread ~4x across ranks (baseline ≈ 31 s).
func DefaultMatMulDAG() MatMulDAGConfig {
	return MatMulDAGConfig{
		Panels:    60,
		PanelWork: 120 * sim.Millisecond,
		UpdateWork: []sim.Time{
			90 * sim.Millisecond,
			150 * sim.Millisecond,
			260 * sim.Millisecond,
			380 * sim.Millisecond,
		},
		PanelBytes: 256 << 10,
		JitterFrac: 0.08,
		Policy:     sched.PolicyNormal,
	}
}

// MatMulDAGStaticPrios is the hand-tuned assignment for the default
// calibration: the heavy-update ranks get the hardware boost.
func MatMulDAGStaticPrios() []power5.Priority {
	return []power5.Priority{power5.PrioMedium, power5.PrioMedium,
		power5.PrioMediumHigh, power5.PrioHigh}
}

// BuildMatMulDAG constructs the job. Each rank pre-posts the receive for
// the next panel it does not own before applying the current trailing
// update, so communication for step k+1 overlaps computation of step k —
// one panel of lookahead, exactly the dependency slack of the DAG. On a
// cluster the ranks are placed ROUND-ROBIN: panel ownership rotates rank
// by rank, so consecutive owners — the migrating critical path — sit on
// different nodes and every panel broadcast crosses the interconnect.
func BuildMatMulDAG(pl Placement, cfg MatMulDAGConfig) *Job {
	perNode := len(cfg.UpdateWork)
	if perNode < 2 {
		panic("workloads: MatMulDAG needs at least 2 ranks")
	}
	if cfg.Panels <= 0 {
		panic("workloads: MatMulDAG needs panels")
	}
	checkPrios("MatMulDAG", cfg.StaticPrios, perNode)
	nodes := pl.Nodes()
	n := perNode * nodes
	rankNodes := make([]int, n)
	for i := range rankNodes {
		rankNodes[i] = i % nodes
	}
	w := pl.NewWorld(rankNodes)
	job := &Job{Name: "matmul", World: w}
	owner := func(step int) int { return step % n }
	// Per-rank RNGs so jitter streams are independent of scheduling.
	rngs := pl.RankRNGs(n, false)
	jitter := func(rng *sim.RNG, d sim.Time) sim.Time {
		if cfg.JitterFrac > 0 {
			return rng.Jitter(d, cfg.JitterFrac)
		}
		return d
	}
	for i := 0; i < n; i++ {
		i := i
		update := cfg.UpdateWork[i%perNode]
		t := w.Spawn(i, rankSpec(cfg.Policy, cfg.StaticPrios, i), func(r *mpi.Rank) {
			r.Barrier() // initialization sync only
			next := make([]mpi.Request, 0, 1)
			post := func(step int) {
				next = next[:0]
				if step < cfg.Panels && owner(step) != i {
					next = append(next, r.Irecv(owner(step), step))
				}
			}
			post(0)
			for step := 0; step < cfg.Panels; step++ {
				if owner(step) == i {
					r.Compute(jitter(rngs[i], cfg.PanelWork))
					for p := 0; p < n; p++ {
						if p != i {
							r.Isend(p, step, cfg.PanelBytes)
						}
					}
				} else {
					r.Waitall(next) // the panel dependency gate
				}
				post(step + 1)
				r.Compute(jitter(rngs[i], update))
			}
		})
		job.Tasks = append(job.Tasks, t)
	}
	return job
}
