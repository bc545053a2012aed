package experiments

import (
	"testing"

	"hpcsched/internal/sched"
)

// TestTicklessWorkloadEquivalence pins, at the full-workload level, that
// parking CPUs' ticks — over idle stretches, busy (NO_HZ_FULL) stretches,
// or both — changes nothing observable: for every workload (the paper's
// four MPI benchmarks, noise daemons included), under the HPC class
// (Uniform) and under plain CFS (Baseline, whose busy stretches run CFS's
// closed-form tick bookkeeping), and a spread of seeds, each
// tickless configuration must produce byte-identical per-task
// utilization/exec/latency numbers against a fully ticking run — and the
// fired+elided event sum must account for exactly the ticks the
// always-ticking run fires, up to the run-end boundary (ticks still
// pending when the engine stops).
func TestTicklessWorkloadEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep skipped in -short mode")
	}
	for _, workload := range []string{"metbench", "metbenchvar", "btmz", "siesta"} {
		for _, mode := range []Mode{ModeUniform, ModeBaseline} {
			for _, seed := range []uint64{42, 7, 1234} {
				run := func(idle, busy bool) Result {
					return Run(Config{
						Workload: workload, Mode: mode, Seed: seed,
						KernelOpts: sched.Options{
							NoTicklessIdle: !idle,
							NoTicklessBusy: !busy,
						},
					})
				}
				ticking := run(false, false)
				if ticking.Kernel.TicksElided() != 0 {
					t.Fatalf("%s/%v/%d: fully ticking run elided ticks", workload, mode, seed)
				}
				all := ticking.Kernel.Engine.Stats().Fired
				b := ticking.Kernel.Tasks()

				for _, c := range []struct {
					name       string
					idle, busy bool
				}{
					{"idle", true, false},
					{"busy", false, true},
					{"idle+busy", true, true},
				} {
					tickless := run(c.idle, c.busy)
					a := tickless.Kernel.Tasks()
					if len(a) != len(b) {
						t.Fatalf("%s/%v/%d/%s: task count differs", workload, mode, seed, c.name)
					}
					for i := range a {
						if a[i].ExitedAt != b[i].ExitedAt || a[i].SumExec != b[i].SumExec ||
							a[i].SumWait != b[i].SumWait || a[i].SumSleep != b[i].SumSleep ||
							a[i].Migrations != b[i].Migrations ||
							a[i].WakeupLatSum != b[i].WakeupLatSum {
							t.Fatalf("%s/%v/%d: task %s diverges under tickless %s",
								workload, mode, seed, a[i].Name, c.name)
						}
					}
					sum := tickless.Kernel.Engine.Stats().Fired +
						uint64(tickless.Kernel.TicksElided())
					// The elision count may miss ticks that were still pending
					// when the engine stopped (a wake at the final instant
					// unparks without re-firing): allow that boundary, bounded
					// by a tiny fraction of the run.
					if sum > all || all-sum > all/1000 {
						t.Fatalf("%s/%v/%d/%s: fired+elided = %d, always-ticking fired = %d",
							workload, mode, seed, c.name, sum, all)
					}
				}
			}
		}
	}
}
