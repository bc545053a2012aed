// Cluster example: the paper's future-work gang-scheduling level (§VI).
// An 8-rank job with adversarial load weights runs on a 2-node simulated
// cluster under three placement strategies; within each node the local
// HPCSched instance balances the residual imbalance with the hardware
// priority mechanism.
package main

import (
	"fmt"
	"log"

	"hpcsched/internal/cluster"
	"hpcsched/internal/experiments"
	"hpcsched/internal/workloads"
)

func main() {
	fmt.Println("Gang scheduling on a 2-node POWER5 cluster (paper §VI)")
	fmt.Println()

	job := workloads.DefaultGang()
	cfg := experiments.Config{Mode: experiments.ModeUniform, Seed: 42, Nodes: 2}

	results, err := experiments.ComparePlacers(cfg, job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatComparison(results))
	fmt.Println()

	fmt.Println("Per-rank report under the gang (LPT) placement:")
	lpt := results[len(results)-1]
	for i, s := range lpt.Summaries {
		fmt.Printf("  %-4s node %d  %5.1f%% comp  hw prio %d\n",
			s.Name, lpt.Assign[i], s.CompPct, s.HWPrio)
	}
	fmt.Println()

	// Isolate the two levels: placement (gang) vs in-node balancing
	// (HPCSched).
	baseline := cfg
	baseline.Mode = experiments.ModeBaseline
	without, err := experiments.ComparePlacers(baseline, job, cluster.LPTPlacer{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gang placement alone:        %.2fs\n", without[0].ExecTime.Seconds())
	fmt.Printf("gang placement + HPCSched:   %.2fs (%+.1f%%)\n",
		lpt.ExecTime.Seconds(),
		100*(1-lpt.ExecTime.Seconds()/without[0].ExecTime.Seconds()))
	fmt.Println()
	fmt.Println("The gang level fixes what placement can fix (whole-rank moves);")
	fmt.Println("the node level fixes what only the hardware can fix (decode-slot")
	fmt.Println("shares between the two ranks of each core).")
}
