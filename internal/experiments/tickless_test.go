package experiments

import (
	"testing"

	"hpcsched/internal/sched"
	"hpcsched/internal/workloads"
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

// TestKernelStatsMetbenchUniform pins the scheduler's work counters of one
// fixed run exactly, as TestBTMZWindowCount pins the cluster's windows: a
// change to how ticks park, wake and get reviewed, or to when a balance
// pass scans, shows up here as a different count even when the timeline
// (which the goldens pin) is intact. Under Uniform every queued task is a
// pinned noise daemon, so no steal scan runs at all, and every tick woken
// off its grid keeps or moves its park at the end of the instant: none is
// re-armed to fire.
func TestKernelStatsMetbenchUniform(t *testing.T) {
	r := Run(Config{Workload: "metbench", Mode: ModeUniform, Seed: 42})
	want := sched.Stats{
		TicksElided:      283672,
		TickWakes:        1471,
		ReviewsKept:      1350,
		ReviewsMoved:     119,
		ReviewsRearmed:   0,
		StealScans:       0,
		StealCacheSkips:  0,
		StealPinnedSkips: 310,
	}
	if got := r.Kernel.Stats(); got != want {
		t.Errorf("Stats() = %+v,\n          want %+v", got, want)
	}
	if got := r.Kernel.Engine.Stats().Fired; got != 2886 {
		t.Errorf("fired %d events, want 2886", got)
	}
}

// TestEventCountsPinned pins fired events plus elided ticks — the
// denominator of the benchmark's ns_per_event — for every Table III–VI row
// at seed 42 and for the 16-node BT-MZ run the cluster benchmark times.
// Tick machinery may change how many ticks fire and how many are elided,
// but never their sum: a change here means the simulated work changed, and
// every ns/event comparison across it would compare different work.
func TestEventCountsPinned(t *testing.T) {
	events := func(r Result) uint64 {
		var n uint64
		for _, k := range r.Cluster.Kernels {
			n += k.Engine.Stats().Fired + uint64(k.TicksElided())
		}
		return n
	}
	want := map[string][]uint64{
		"metbench":    {375259, 323224, 286558, 298454},
		"metbenchvar": {1685570, 1545027, 1384101, 1344117},
		"btmz":        {453658, 408091, 377799, 377182},
		"siesta":      {428903, 389890, 389889},
	}
	for w, rows := range want {
		tr := RunTable(w, 42)
		if len(tr.Rows) != len(rows) {
			t.Fatalf("%s: %d rows, want %d", w, len(tr.Rows), len(rows))
		}
		for i, r := range tr.Rows {
			if got := events(r); got != rows[i] {
				t.Errorf("%s/%v: fired+elided = %d, want %d", w, r.Config.Mode, got, rows[i])
			}
		}
	}
	r := Run(Config{
		Workload: "btmz", Mode: ModeUniform, Seed: 42, Nodes: 16, Topology: "flat",
		TweakBTMZ: func(c *workloads.BTMZConfig) { c.Iterations = 60 },
	})
	if got := events(r); got != 1924115 {
		t.Errorf("16-node BT-MZ: fired+elided = %d, want 1924115", got)
	}
}
