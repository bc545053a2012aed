package experiments

import (
	"context"
	"fmt"

	"hpcsched/internal/cluster"
	"hpcsched/internal/metrics"
	"hpcsched/internal/sim"
	"hpcsched/internal/workloads"
)

// PlacerResult reports the gang job under one placement policy.
type PlacerResult struct {
	Placer    string
	Assign    []int
	ExecTime  sim.Time
	MaxLoad   float64 // placement-induced lower bound (weight units)
	Summaries []metrics.TaskSummary
}

// ComparePlacers runs the gang job (workloads.BuildGang) once per placer on
// identical cfg.Nodes-node clusters and returns the results in placer
// order (block, round-robin and LPT when none is given). Each placer
// assigns the job's ranks from their weights, at most MachineCPUs per
// node; the run itself is an ordinary cluster run of cfg, so cfg.Mode
// picks the ranks' policy and every node's HPC class, and the results are
// byte-identical at any cfg.Shards. A run error (a Config.TraceSink, or a
// StallTimeout abort) ends the comparison with the results so far.
func ComparePlacers(cfg Config, job workloads.GangConfig, placers ...cluster.Placer) ([]PlacerResult, error) {
	if len(placers) == 0 {
		placers = []cluster.Placer{cluster.BlockPlacer{}, cluster.RoundRobinPlacer{}, cluster.LPTPlacer{}}
	}
	cfg.Workload = "gang"
	job.Policy = cfg.Mode.policy()
	weights := make([]float64, len(job.Weights))
	for i, w := range job.Weights {
		weights[i] = w.Seconds()
	}
	out := make([]PlacerResult, 0, len(placers))
	for _, p := range placers {
		job.Assign = p.Assign(weights, cfg.Nodes, MachineCPUs)
		res, err := runJob(context.Background(), cfg, func(pl workloads.Placement) *workloads.Job {
			return workloads.BuildGang(pl, job)
		})
		if err != nil {
			return out, err
		}
		out = append(out, PlacerResult{
			Placer:    p.Name(),
			Assign:    job.Assign,
			ExecTime:  res.ExecTime,
			MaxLoad:   cluster.MaxNodeLoad(weights, job.Assign, cfg.Nodes),
			Summaries: res.Summaries,
		})
	}
	return out, nil
}

// FormatComparison renders a placer comparison table.
func FormatComparison(results []PlacerResult) string {
	header := []string{"Placer", "Assignment", "MaxNodeLoad", "Exec", "vs first"}
	rows := make([][]string, 0, len(results))
	base := results[0].ExecTime
	for _, r := range results {
		rows = append(rows, []string{
			r.Placer,
			fmt.Sprintf("%v", r.Assign),
			fmt.Sprintf("%.2f", r.MaxLoad),
			fmt.Sprintf("%.2fs", r.ExecTime.Seconds()),
			fmt.Sprintf("%+.1f%%", 100*metrics.Improvement(base, r.ExecTime)),
		})
	}
	return metrics.Table(header, rows)
}
