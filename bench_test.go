// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§V), plus the ablations docs/ARCHITECTURE.md calls out.
//
// Each benchmark iteration executes one complete simulated run; custom
// metrics report the simulated execution time (sim_s) and, where a
// baseline exists, the improvement over it (improve_%), so the benchmark
// output reads like the paper's tables:
//
//	go test -bench=TableIII -benchmem
//
// Absolute wall-clock ns/op figures measure the simulator itself, not the
// paper's machine.
package hpcsched_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"hpcsched/internal/cluster"
	"hpcsched/internal/core"
	"hpcsched/internal/experiments"
	"hpcsched/internal/noise"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
	"hpcsched/internal/workloads"
)

// baselines caches baseline execution times per workload (benchmarks run
// serially, so a plain map suffices).
var baselines = map[string]float64{}

func baselineSeconds(workload string) float64 {
	if v, ok := baselines[workload]; ok {
		return v
	}
	r := experiments.Run(experiments.Config{
		Workload: workload, Mode: experiments.ModeBaseline, Seed: 42,
	})
	baselines[workload] = r.ExecTime.Seconds()
	return baselines[workload]
}

// benchRun executes cfg b.N times and reports simulated seconds and the
// improvement over the workload baseline.
func benchRun(b *testing.B, cfg experiments.Config) {
	b.Helper()
	base := baselineSeconds(cfg.Workload)
	var last experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = experiments.Run(cfg)
	}
	b.StopTimer()
	sims := last.ExecTime.Seconds()
	b.ReportMetric(sims, "sim_s")
	if cfg.Mode != experiments.ModeBaseline {
		b.ReportMetric(100*(1-sims/base), "improve_%")
	}
	b.ReportMetric(last.Imbalance, "imbalance")
}

// ---------------------------------------------------------------------------
// Table I — the hardware decode model itself
// ---------------------------------------------------------------------------

func BenchmarkTableI_DecodeCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for d := 0; d <= 4; d++ {
			a := power5.PrioLow + power5.Priority(d)
			r, ca, cb := power5.DecodeWindow(a, power5.PrioLow)
			if r != ca+cb {
				b.Fatal("decode table inconsistent")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Table III / Figure 3 — MetBench
// ---------------------------------------------------------------------------

func BenchmarkTableIII_MetBench_Baseline(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "metbench", Mode: experiments.ModeBaseline, Seed: 42})
}

func BenchmarkTableIII_MetBench_Static(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "metbench", Mode: experiments.ModeStatic, Seed: 42})
}

func BenchmarkTableIII_MetBench_Uniform(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "metbench", Mode: experiments.ModeUniform, Seed: 42})
}

func BenchmarkTableIII_MetBench_Adaptive(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "metbench", Mode: experiments.ModeAdaptive, Seed: 42})
}

func BenchmarkFigure3_MetBenchTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Run(experiments.Config{
			Workload: "metbench", Mode: experiments.ModeUniform, Seed: 42, Trace: true,
		})
		out := r.Recorder.Render(trace.RenderOptions{Width: 100})
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// ---------------------------------------------------------------------------
// Table IV / Figure 4 — MetBenchVar
// ---------------------------------------------------------------------------

func BenchmarkTableIV_MetBenchVar_Baseline(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "metbenchvar", Mode: experiments.ModeBaseline, Seed: 42})
}

func BenchmarkTableIV_MetBenchVar_Static(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "metbenchvar", Mode: experiments.ModeStatic, Seed: 42})
}

func BenchmarkTableIV_MetBenchVar_Uniform(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "metbenchvar", Mode: experiments.ModeUniform, Seed: 42})
}

func BenchmarkTableIV_MetBenchVar_Adaptive(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "metbenchvar", Mode: experiments.ModeAdaptive, Seed: 42})
}

func BenchmarkFigure4_MetBenchVarTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Run(experiments.Config{
			Workload: "metbenchvar", Mode: experiments.ModeAdaptive, Seed: 42, Trace: true,
		})
		out := r.Recorder.Render(trace.RenderOptions{Width: 100, Prios: true})
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// ---------------------------------------------------------------------------
// Table V / Figure 5 — BT-MZ
// ---------------------------------------------------------------------------

func BenchmarkTableV_BTMZ_Baseline(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "btmz", Mode: experiments.ModeBaseline, Seed: 42})
}

func BenchmarkTableV_BTMZ_Static(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "btmz", Mode: experiments.ModeStatic, Seed: 42})
}

func BenchmarkTableV_BTMZ_Uniform(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "btmz", Mode: experiments.ModeUniform, Seed: 42})
}

func BenchmarkTableV_BTMZ_Adaptive(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "btmz", Mode: experiments.ModeAdaptive, Seed: 42})
}

func BenchmarkFigure5_BTMZTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Run(experiments.Config{
			Workload: "btmz", Mode: experiments.ModeUniform, Seed: 42, Trace: true,
		})
		out := r.Recorder.Render(trace.RenderOptions{Width: 100})
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// ---------------------------------------------------------------------------
// Table VI / Figure 6 — SIESTA
// ---------------------------------------------------------------------------

func BenchmarkTableVI_SIESTA_Baseline(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "siesta", Mode: experiments.ModeBaseline, Seed: 42})
}

func BenchmarkTableVI_SIESTA_Uniform(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "siesta", Mode: experiments.ModeUniform, Seed: 42})
}

func BenchmarkTableVI_SIESTA_Adaptive(b *testing.B) {
	benchRun(b, experiments.Config{Workload: "siesta", Mode: experiments.ModeAdaptive, Seed: 42})
}

func BenchmarkFigure6_SIESTATraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Run(experiments.Config{
			Workload: "siesta", Mode: experiments.ModeUniform, Seed: 42, Trace: true,
		})
		out := r.Recorder.Render(trace.RenderOptions{Width: 100})
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (§IV design choices)
// ---------------------------------------------------------------------------

// BenchmarkAblationPriorityRange varies the explored priority range: the
// paper limits it to [4,6] because differences beyond ±2 starve the
// unfavoured task.
func BenchmarkAblationPriorityRange(b *testing.B) {
	for _, rng := range [][2]power5.Priority{{4, 5}, {4, 6}, {3, 6}, {2, 6}, {1, 6}} {
		rng := rng
		b.Run(fmt.Sprintf("range_%d_%d", rng[0], rng[1]), func(b *testing.B) {
			p := core.DefaultParams()
			p.MinPrio, p.MaxPrio = rng[0], rng[1]
			benchRun(b, experiments.Config{Workload: "metbench",
				Mode: experiments.ModeUniform, Seed: 42, Params: p})
		})
	}
}

// BenchmarkAblationAdaptiveGL sweeps the Adaptive history weights.
func BenchmarkAblationAdaptiveGL(b *testing.B) {
	for _, l := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
		l := l
		b.Run(fmt.Sprintf("L_%02.0f", l*100), func(b *testing.B) {
			p := core.DefaultParams()
			p.L, p.G = l, 1-l
			benchRun(b, experiments.Config{Workload: "metbenchvar",
				Mode: experiments.ModeAdaptive, Seed: 42, Params: p})
		})
	}
}

// BenchmarkAblationThresholds sweeps the utilization band.
func BenchmarkAblationThresholds(b *testing.B) {
	for _, th := range [][2]float64{{50, 70}, {65, 85}, {75, 95}} {
		th := th
		b.Run(fmt.Sprintf("low%g_high%g", th[0], th[1]), func(b *testing.B) {
			p := core.DefaultParams()
			p.LowUtil, p.HighUtil = th[0], th[1]
			benchRun(b, experiments.Config{Workload: "metbench",
				Mode: experiments.ModeUniform, Seed: 42, Params: p})
		})
	}
}

// BenchmarkAblationPolicy compares the FIFO and RR queue disciplines of
// the HPC class (the paper observes no difference with one task per CPU).
func BenchmarkAblationPolicy(b *testing.B) {
	for _, d := range []core.Discipline{core.DisciplineRR, core.DisciplineFIFO} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			benchRun(b, experiments.Config{Workload: "metbench",
				Mode: experiments.ModeUniform, Seed: 42, Discipline: d})
		})
	}
}

// BenchmarkAblationLatencyOnly runs the HPC class with the priority
// mechanism disabled: the scheduling-policy contribution in isolation.
func BenchmarkAblationLatencyOnly(b *testing.B) {
	for _, wl := range []string{"metbench", "siesta"} {
		wl := wl
		b.Run(wl, func(b *testing.B) {
			benchRun(b, experiments.Config{Workload: wl,
				Mode: experiments.ModeHPCOnly, Seed: 42})
		})
	}
}

// BenchmarkAblationNoise sweeps the OS noise level; the HPC class's
// advantage grows with the noise (class-order protection).
func BenchmarkAblationNoise(b *testing.B) {
	for _, duty := range []float64{0.0025, 0.01, 0.02} {
		duty := duty
		b.Run(fmt.Sprintf("duty_%.2f%%", duty*100), func(b *testing.B) {
			nz := noise.DefaultConfig()
			nz.Duty = duty
			base := experiments.Run(experiments.Config{Workload: "metbench",
				Mode: experiments.ModeBaseline, Seed: 42, Noise: &nz})
			var last experiments.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last = experiments.Run(experiments.Config{Workload: "metbench",
					Mode: experiments.ModeUniform, Seed: 42, Noise: &nz})
			}
			b.StopTimer()
			b.ReportMetric(last.ExecTime.Seconds(), "sim_s")
			b.ReportMetric(100*(1-last.ExecTime.Seconds()/base.ExecTime.Seconds()), "improve_%")
		})
	}
}

// BenchmarkAblationPerfModel swaps the calibrated chip model for the
// naive decode-proportional one and for the cache-QoS extension (the
// §I "control the cache too" argument): the QoS chip should extract a
// larger balancing gain.
func BenchmarkAblationPerfModel(b *testing.B) {
	models := []struct {
		name string
		pm   power5.PerfModel
	}{
		{"calibrated", power5.NewCalibratedPerfModel()},
		{"decode-proportional", power5.NewDecodeProportionalPerfModel()},
		{"cache-qos", power5.NewQoSPerfModel()},
	}
	for _, m := range models {
		m := m
		b.Run(m.name, func(b *testing.B) {
			base := experiments.Run(experiments.Config{Workload: "metbench",
				Mode: experiments.ModeBaseline, Seed: 42, PerfModel: m.pm})
			var last experiments.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last = experiments.Run(experiments.Config{Workload: "metbench",
					Mode: experiments.ModeUniform, Seed: 42, PerfModel: m.pm})
			}
			b.StopTimer()
			b.ReportMetric(last.ExecTime.Seconds(), "sim_s")
			b.ReportMetric(100*(1-last.ExecTime.Seconds()/base.ExecTime.Seconds()), "improve_%")
		})
	}
}

// BenchmarkAblationSnooze enables the POWER5 smt_snooze_delay (idle
// contexts drop to priority 1): the baseline speeds up a little because
// the big workers run beside snoozing — instead of idle-spinning —
// contexts while the small workers wait, shrinking the balancing
// headroom.
func BenchmarkAblationSnooze(b *testing.B) {
	for _, snooze := range []sim.Time{0, 100 * sim.Microsecond} {
		snooze := snooze
		name := "off"
		if snooze > 0 {
			name = "100us"
		}
		b.Run(name, func(b *testing.B) {
			opts := sched.DefaultOptions()
			opts.SMTSnoozeDelay = snooze
			base := experiments.Run(experiments.Config{Workload: "metbench",
				Mode: experiments.ModeBaseline, Seed: 42, KernelOpts: opts})
			var last experiments.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last = experiments.Run(experiments.Config{Workload: "metbench",
					Mode: experiments.ModeUniform, Seed: 42, KernelOpts: opts})
			}
			b.StopTimer()
			b.ReportMetric(base.ExecTime.Seconds(), "base_sim_s")
			b.ReportMetric(last.ExecTime.Seconds(), "sim_s")
			b.ReportMetric(100*(1-last.ExecTime.Seconds()/base.ExecTime.Seconds()), "improve_%")
		})
	}
}

// BenchmarkAblationHybrid runs the future-work hybrid heuristic on both a
// constant and a dynamic application.
func BenchmarkAblationHybrid(b *testing.B) {
	for _, wl := range []string{"metbench", "metbenchvar"} {
		wl := wl
		b.Run(wl, func(b *testing.B) {
			benchRun(b, experiments.Config{Workload: wl,
				Mode: experiments.ModeHybrid, Seed: 42})
		})
	}
}

// ---------------------------------------------------------------------------
// Batch layer — parallel table reproduction
// ---------------------------------------------------------------------------

// BenchmarkBatchReproduceTable reproduces Table III over 8 replication
// seeds at increasing worker counts. Simulations are embarrassingly
// parallel, so ns/op should fall near-linearly from the workers_1
// sub-benchmark up to the core count; the aggregates are byte-identical
// at every width (the batch determinism contract).
func BenchmarkBatchReproduceTable(b *testing.B) {
	seeds := experiments.SeedsFrom(42, 8)
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		w := w
		b.Run(fmt.Sprintf("workers_%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sr, err := experiments.RunScenario(context.Background(), experiments.ScenarioSpec{
					Workload: "metbench", Seeds: seeds,
					Modes: experiments.TableModes("metbench"),
					Exec:  experiments.ExecOptions{Workers: w},
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = experiments.TableStatsOf(sr)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Gang scheduling (the paper's §VI future work, implemented)
// ---------------------------------------------------------------------------

// BenchmarkGangScheduling compares the placement strategies on the 2-node
// cluster: block (naive), round-robin and the LPT gang scheduler, each
// with per-node HPCSched balancing.
func BenchmarkGangScheduling(b *testing.B) {
	job := workloads.DefaultGang()
	cfg := experiments.Config{Mode: experiments.ModeUniform, Seed: 42, Nodes: 2}
	for _, p := range []cluster.Placer{cluster.BlockPlacer{}, cluster.RoundRobinPlacer{}, cluster.LPTPlacer{}} {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			var last experiments.PlacerResult
			for i := 0; i < b.N; i++ {
				results, err := experiments.ComparePlacers(cfg, job, p)
				if err != nil {
					b.Fatal(err)
				}
				last = results[0]
			}
			b.ReportMetric(last.ExecTime.Seconds(), "sim_s")
			b.ReportMetric(last.MaxLoad, "max_node_load")
		})
	}
}
