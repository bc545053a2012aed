package perf

import (
	"path/filepath"
	"testing"
)

// committedPairs lists every paired (baseline, after) BENCH report in the
// repository's performance trajectory, with the headline speedup of the
// after-report's PR on its flagship scenario. Each new perf PR appends its
// pair here.
var committedPairs = []struct {
	base, after string
	scenario    string
	minSpeedup  float64
}{
	// PR 3: zero-allocation trace/MPI/run-queue hot paths.
	{"BENCH_pre-hotpath.json", "BENCH_zero-alloc-hotpaths.json", "btmz-trace", 1.3},
	// PR 4: hierarchical timer-wheel engine + batched rank rendezvous.
	{"BENCH_pre-wheel.json", "BENCH_timer-wheel.json", "btmz-trace", 1.25},
	// PR 5: two-party parker, fused block/wake handoffs, tickless idle.
	{"BENCH_pre-parker.json", "BENCH_parker-tickless.json", "btmz-trace", 1.25},
	// PR 6: NO_HZ_FULL busy-tick elision, fused ring re-arm, plan swaps.
	{"BENCH_pre-nohz.json", "BENCH_nohz-busy.json", "btmz-trace", 1.2},
	// PR 9: multi-node sharded cluster PDES. Not an optimisation PR — the
	// pair documents that the routed transport (per-node counters, pair-
	// delay nil check, router branch) leaves the single-node hot path at
	// parity, and adds the cluster-btmz-4node scenario to the trajectory.
	// Parity, not a speedup: the floor is 0.95 because best-of round
	// pairing on a shared container still carries a few percent of noise
	// (interleaved single-scenario bests come out even), and the Gate's
	// 15% tolerance above already bounds a real regression.
	{"BENCH_pre-cluster.json", "BENCH_cluster.json", "btmz-trace", 0.95},
	// PR 10: EOT/EIT next-event lookahead pacing for the cluster runner.
	// The flagship is the cluster scenario itself: event-driven windows
	// collapse the sync cadence ~28x and the measured whole-cluster
	// throughput gain is 4.09x (floor 3.5 leaves pair-mismatch headroom
	// only — both reports are committed, so the ratio is fixed).
	{"BENCH_pre-eot.json", "BENCH_eot-lookahead.json", "cluster-btmz-4node", 3.5},
	// PR 12: demand-driven EOT/EIT windows — a node runs a window only
	// when its own next event or arrival is inside its EIT. Flagship is
	// the 16-node cluster, where most windows used to fire nothing:
	// 1.84x whole-cluster throughput, windows 776k → 94k. Both reports
	// are best-of-36 over 12 interleaved rounds on a 2-CPU machine; the
	// single-node scenarios run unchanged code and land at 1.02–1.11x
	// (noise), so the floor of 1.6 leaves pair-mismatch headroom only.
	{"BENCH_pre-demand.json", "BENCH_demand-windows.json", "cluster-btmz-16node", 1.6},
	// Sequential node calendar: it replaces the sharded EOT/EIT
	// executor — one goroutine, cached keys, no custody protocol or
	// per-pair channels. Flagship is the 16-node cluster: 1.99x
	// whole-cluster throughput (169.0 → 84.8 ns/event), cluster-idle-16node
	// 1.50x, cluster-btmz-4node 1.45x. Both reports are best-of-36 over 12
	// interleaved rounds on a 2-CPU machine; the single-node scenarios run
	// unchanged code and land at 0.98–1.12x (noise), so the floor of 1.6
	// leaves pair-mismatch headroom only.
	{"BENCH_pre-calendar.json", "BENCH_calendar.json", "cluster-btmz-16node", 1.6},
	// Process bodies as runtime coroutines (iter.Pull): the spin-then-park
	// parker is gone and every Invoke/Resume is a coroswitch on one
	// thread. Flagship is the 16-node cluster: 1.70x whole-cluster
	// throughput (90.9 → 53.4 ns/event); every scenario gains, 1.13x
	// (batch-metbench-8seeds) to 1.80x (btmz-trace-null). Best-of-36 over
	// 12 interleaved rounds on a 2-CPU machine; the floor of 1.5 leaves
	// pair-mismatch headroom only.
	{"BENCH_pre-coro.json", "BENCH_coro.json", "cluster-btmz-16node", 1.5},
	// Elided ticks in closed form: a tickless stretch settles its load
	// average and its class tick bookkeeping in O(1) instead of replaying
	// every elided instant. Flagship is Table III, the paper-table hot
	// path: 1.28x (24.93 → 19.49 ns/event); table4 1.42x, the others
	// 1.08x–1.33x except cluster-btmz-16node at 0.99x (1.23x in an
	// earlier round: this scenario's best-of-36 moves ±15% between rounds
	// on this machine); allocs/event are unchanged. Best-of-36 over 12
	// interleaved rounds on a 2-CPU machine; the floor of 1.1 leaves
	// pair-mismatch headroom only.
	{"BENCH_pre-closed-form.json", "BENCH_closed-form.json", "table3-metbench", 1.1},
}

// TestCommittedReportsPassGate pins the repository's perf trajectory: every
// committed after-report must pass the CI gate (throughput and allocs)
// against its own committed baseline — it should in fact be faster on every
// scenario — and deliver its PR's headline speedup. This is the
// machine-independent half of the CI perf-gate job; the live half
// re-measures the quick suite on the runner.
func TestCommittedReportsPassGate(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, pair := range committedPairs {
		t.Run(pair.after, func(t *testing.T) {
			base, err := ReadFile(filepath.Join(root, pair.base))
			if err != nil {
				t.Fatalf("committed baseline missing: %v", err)
			}
			after, err := ReadFile(filepath.Join(root, pair.after))
			if err != nil {
				t.Fatalf("committed after-report missing: %v", err)
			}
			tol := DefaultTolerance()
			if regs := Gate(base, after, tol); len(regs) > 0 {
				t.Fatalf("committed reports fail the gate:\n%s", FormatGate(base, after, tol))
			}
			// Guards against committing a mismatched report pair.
			sp, ok := Speedup(base, after, pair.scenario)
			if !ok || sp < pair.minSpeedup {
				t.Fatalf("%s speedup = %.2f (ok=%v), want ≥%.2f",
					pair.scenario, sp, ok, pair.minSpeedup)
			}
		})
	}
}
