package perf

import (
	"context"

	"hpcsched/internal/experiments"
	"hpcsched/internal/noise"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
	"hpcsched/internal/workloads"
)

// quietNodeNoise models a noise-quieted HPC compute node: one background
// daemon per CPU waking rarely (same ~0.25% duty as the default, spent in
// long sparse bursts), as on clusters that strip OS activity off the
// compute cores. Used by the idle-heavy cluster scenario, where the sync
// window cadence of an idle node is set by its peers' local event rate.
var quietNodeNoise = noise.Config{
	DaemonsPerCPU: 1,
	Duty:          0.0025,
	BurstMean:     2 * sim.Millisecond,
	Jitter:        0.5,
}

// Suite returns the fixed scenario suite cmd/bench runs. The scenarios
// cover the hot paths every table and figure of the reproduction exercises:
// the serial per-mode runs behind Tables III/IV, the trace-recording run
// behind Figure 5, and the parallel multi-seed replication added in PR 1.
func Suite() []Scenario {
	return []Scenario{
		{
			Name:  "table3-metbench",
			Desc:  "Table III: MetBench under all scheduler modes, seed 42, serial",
			Quick: true,
			Run:   runTableSerial("metbench"),
		},
		{
			Name: "table4-metbenchvar",
			Desc: "Table IV: MetBenchVar under all scheduler modes, seed 42, serial",
			Run:  runTableSerial("metbenchvar"),
		},
		{
			Name:  "btmz-trace",
			Desc:  "Table V workload (BT-MZ) under Uniform with trace recording",
			Quick: true,
			Run:   runBTMZTrace,
		},
		{
			Name: "btmz-trace-null",
			Desc: "BT-MZ traced through the null sink (recording overhead, no retention)",
			Run:  runBTMZTraceNull,
		},
		{
			Name: "batch-metbench-8seeds",
			Desc: "Table III stats over 8 derived seeds on the parallel batch layer",
			Run:  runBatchMetBench,
		},
		{
			Name:  "idle-imbalance",
			Desc:  "strongly imbalanced BT-MZ ranks with long MPI wait phases (tickless idle)",
			Quick: true,
			Run:   runIdleImbalance,
		},
		clusterScenario(Scenario{
			Name:  "cluster-btmz-4node",
			Desc:  "4-node BT-MZ on the cluster node calendar under Uniform",
			Quick: true,
		}, experiments.Config{
			Workload: "btmz", Mode: experiments.ModeUniform, Seed: 42,
			Nodes:     4,
			TweakBTMZ: func(c *workloads.BTMZConfig) { c.Iterations = 60 },
		}),
		clusterScenario(Scenario{
			Name: "cluster-btmz-16node",
			Desc: "16-node BT-MZ (64 ranks) on the cluster PDES under Uniform — lookahead at scale",
		}, experiments.Config{
			Workload: "btmz", Mode: experiments.ModeUniform, Seed: 42,
			Nodes:     16,
			TweakBTMZ: func(c *workloads.BTMZConfig) { c.Iterations = 30 },
		}),
		clusterScenario(Scenario{
			Name:  "cluster-idle-16node",
			Desc:  "16-node star, imbalanced BT-MZ on noise-quieted nodes — lookahead window-collapse showcase",
			Quick: true,
		}, experiments.Config{
			Workload: "btmz", Mode: experiments.ModeUniform, Seed: 42,
			Nodes:    16,
			Topology: "star",
			// Noise-quieted compute nodes (the NO_HZ_FULL story at cluster
			// scale): one sparse daemon per CPU instead of desktop-grade
			// background churn. Under the lookahead calendar a node runs a
			// window per burst of its own events, so the idle-node window
			// count tracks the noise cadence directly.
			Noise: &quietNodeNoise,
			TweakBTMZ: func(c *workloads.BTMZConfig) {
				// One heavy rank per node: the three light ranks park in MPI
				// wait phases most of each iteration, so nearly all windows
				// under floor pacing cover no events at all — exactly the
				// cadence the lookahead horizon is meant to collapse.
				c.Iterations = 8
				c.ZoneWork = []sim.Time{
					14 * sim.Millisecond,
					22 * sim.Millisecond,
					30 * sim.Millisecond,
					900 * sim.Millisecond,
				}
			},
		}),
	}
}

// clusterScenario wires a cluster experiment into a Scenario: the run sums
// fired events over every node kernel (whole-cluster throughput) and the
// last run's sync-window diagnostics are attached as counters — windows
// executed and the floor-cadence windows the lookahead elided.
func clusterScenario(s Scenario, cfg experiments.Config) Scenario {
	var last *experiments.ClusterInfo
	s.Run = func() uint64 {
		r, err := experiments.RunCtx(context.Background(), cfg)
		if err != nil {
			panic(err)
		}
		last = r.Cluster
		return runEvents(r)
	}
	s.Counters = func() map[string]int64 {
		if last == nil {
			return nil
		}
		return map[string]int64{
			"windows":        last.Windows,
			"windows_elided": last.WindowsElided,
		}
	}
	return s
}

// QuickSuite returns only the scenarios marked Quick (the CI smoke run).
func QuickSuite() []Scenario {
	var out []Scenario
	for _, s := range Suite() {
		if s.Quick {
			out = append(out, s)
		}
	}
	return out
}

// runEvents is the scenario event count, summed over every node of the
// run: fired engine events plus the tick instants the tickless-idle
// machinery elided (their effects are computed in closed form instead of
// firing — see sched.Kernel.TicksElided). The sum is invariant under the
// tickless optimisation for a fixed workload, which keeps events/sec
// comparable across the whole BENCH trajectory.
func runEvents(r experiments.Result) uint64 {
	var events uint64
	for _, k := range r.Cluster.Kernels {
		events += kernelEvents(k)
	}
	return events
}

// kernelEvents is runEvents for one kernel.
func kernelEvents(k *sched.Kernel) uint64 {
	return k.Engine.Stats().Fired + uint64(k.TicksElided())
}

// runTableSerial runs every mode row of a table scenario back to back on
// one goroutine — the cleanest view of simulation-core throughput.
func runTableSerial(workload string) func() uint64 {
	return func() uint64 {
		var events uint64
		for _, mode := range experiments.TableModes(workload) {
			r := experiments.Run(experiments.Config{
				Workload: workload, Mode: mode, Seed: 42,
			})
			events += runEvents(r)
		}
		return events
	}
}

func runBTMZTrace() uint64 {
	r := experiments.Run(experiments.Config{
		Workload: "btmz", Mode: experiments.ModeUniform, Seed: 42, Trace: true,
	})
	if r.Recorder == nil || len(r.Recorder.Render(trace.RenderOptions{Width: 80})) == 0 {
		panic("perf: btmz trace scenario produced no trace")
	}
	return runEvents(r)
}

func runBTMZTraceNull() uint64 {
	r := experiments.Run(experiments.Config{
		Workload: "btmz", Mode: experiments.ModeUniform, Seed: 42, Trace: true,
		TraceSink: trace.NullSink{},
	})
	if r.Recorder == nil || len(r.Recorder.Traces()) == 0 {
		panic("perf: null-sink btmz scenario admitted no tasks")
	}
	return runEvents(r)
}

// runIdleImbalance is the tickless-idle showcase: a BT-MZ-shaped job whose
// last rank carries ~30x the zone work of the others, so three of the four
// CPUs spend most of the run parked in MPI wait phases with only the
// background daemons stirring. Before tickless idle, the per-CPU tick
// events of those parked phases dominated the event stream; the scenario
// exists so that regression — re-firing provably no-op ticks — is caught
// by the quick-suite perf gate.
func runIdleImbalance() uint64 {
	r := experiments.Run(experiments.Config{
		Workload: "btmz", Mode: experiments.ModeBaseline, Seed: 42,
		TweakBTMZ: func(c *workloads.BTMZConfig) {
			*c = workloads.BTMZConfig{
				Iterations: 24,
				ZoneWork: []sim.Time{
					14 * sim.Millisecond,
					22 * sim.Millisecond,
					30 * sim.Millisecond,
					420 * sim.Millisecond,
				},
				BoundaryMsg: 200 << 10,
				JitterFrac:  0.05,
				Policy:      sched.PolicyNormal,
			}
		},
	})
	if len(r.Tasks) != 4 {
		panic("perf: idle-imbalance scenario lost its ranks")
	}
	return runEvents(r)
}

func runBatchMetBench() uint64 {
	cfgs := experiments.ReplicaConfigs("metbench", experiments.SeedsFrom(42, 8))
	results, _, _, err := experiments.RunConfigs(context.Background(), cfgs, experiments.ExecOptions{})
	if err != nil {
		panic(err)
	}
	var events uint64
	for _, r := range results {
		events += runEvents(r)
	}
	return events
}
