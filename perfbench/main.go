// Command perfbench is the repository's benchmark: it measures host cost
// and output correctness of the simulator on three workloads, end to end
// (--trace 0) or layer by layer (--trace 1). See README.md in this
// directory for the metric → layer → workload map.
//
//	perfbench --workload paper-tables --seed 42 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero on any
// failed run or output check.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+joinNames(workloadList))
	seed := fs.Uint64("seed", goldenSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an instrumented run")
	goldenDir := fs.String("golden-dir", "internal/experiments/testdata", "directory of the committed table goldens")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", joinNames(workloadList))
		return 2
	}
	b := &bench{
		ctx: context.Background(), w: w, sz: fullSize, seed: *seed,
		dur: time.Duration(*seconds * float64(time.Second)), goldenDir: *goldenDir,
	}
	fmt.Fprintln(stdout, hostLine())
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traceFlag)
	if *traceFlag == 1 {
		report(stdout, perLayerMetrics, b.layers(stdout), b.runs, b.problems)
	} else {
		report(stdout, endToEndMetrics, b.endToEnd(stdout), b.runs, b.problems)
	}
	if b.failed() > 0 {
		return 1
	}
	return 0
}

// endToEnd measures the user-visible metrics on plain, uninstrumented
// units, then runs the output checks. One untimed warm-up unit comes
// first; it is the reference every later unit is held to. Set-up units and
// timed units then alternate in segments, so both medians span the whole
// run and a slow spell of the host weighs on both alike.
func (b *bench) endToEnd(out io.Writer) map[string]float64 {
	const segments = 6
	b.measure(0, 1, params{})
	var setups, plain []sample
	for range segments {
		setups = append(setups, b.measure(b.dur/(20*segments), 5, params{setup: true})...)
		plain = append(plain, b.measure(b.dur/segments, 1, params{})...)
	}
	setup := medianOf(setups, func(s sample) float64 { return s.wall.Seconds() })
	rss := maxRSSMB()
	b.checkGoldens()
	b.scalingPoint()
	passed, total := paperChecksPassed(b.seed)

	walls := make([]float64, len(plain))
	for i, s := range plain {
		walls[i] = s.wall.Seconds()
	}
	fmt.Fprintf(out, "wall_s: %s; setup_s: median of %d set-up units\n", spread(walls), len(setups))
	fmt.Fprintf(out, "error_rate: %d failed of %d runs; paper checks %d/%d\n", b.failed(), b.runs, passed, total)
	return map[string]float64{
		"wall_s":              median(walls),
		"ns_per_event":        medianOf(plain, sample.nsPerEvent),
		"setup_s":             setup,
		"allocs_per_event":    medianOf(plain, func(s sample) float64 { return float64(s.allocs) / float64(max(s.events, 1)) }),
		"max_rss_mb":          rss,
		"success_rate":        1 - float64(b.failed())/float64(max(b.runs, 1)),
		"paper_checks_passed": float64(passed),
	}
}

// layers measures the per-layer metrics: plain units for the untraced
// median, the serial scaling point, instrumented units for the shim
// counts, the trace-off variant of the sweep, and the microbenchmarked
// unit costs; it prints the decomposition of ns/event by layer.
func (b *bench) layers(out io.Writer) map[string]float64 {
	setup := b.setupTime()
	rt0 := readRuntime()
	plain := b.measure(b.dur/2, 3, params{})
	rt1 := readRuntime()
	b.checkGoldens()
	serial, hasSerial := b.scalingPoint()

	sh := &shims{}
	inst := b.measure(b.dur/2, 1, params{shims: sh})
	nInst := float64(len(inst))
	if got := sh.completed.Load(); b.w.name != "cluster-16node" && got != int64(len(inst)*b.ref.runs) {
		b.fail("progress reported %d completed runs, want %d", got, len(inst)*b.ref.runs)
	}
	transitions, prio := sh.tracerTotals()
	transitionsPerUnit, prioPerUnit := float64(transitions)/nInst, float64(prio)/nInst

	ref := b.ref.c
	events := ref.events()
	plainWall := medianOf(plain, func(s sample) float64 { return s.wall.Seconds() })
	instWall := medianOf(inst, func(s sample) float64 { return s.wall.Seconds() })
	busy, gcFrac, idleFrac, latP50 := runtimeDelta(rt0, rt1)
	var plainEvents uint64
	for _, s := range plain {
		plainEvents += s.events
	}
	// Unit costs are single-threaded, so they are held against the CPU
	// time per event the plain units kept busy, not wall time per event.
	cpuNS := busy * 1e9 / float64(plainEvents)

	var traceOverhead, traceNS float64
	if b.w.name == "traced-sweep" {
		off := b.measure(0, 3, params{traceOff: true})
		offWall := medianOf(off, func(s sample) float64 { return s.wall.Seconds() })
		traceOverhead = plainWall/offWall - 1
		traceNS = cpuNS * (1 - offWall/plainWall)
		// The recorder owns the tracer hook on traced runs: transitions
		// are counted on one trace-off unit, priority changes from the
		// recorded TaskTrace.Prios.
		shOff := &shims{}
		b.measure(0, 1, params{traceOff: true, shims: shOff})
		t, _ := shOff.tracerTotals()
		transitionsPerUnit, prioPerUnit = float64(t), float64(ref.prioChanges)
	}

	costs := measureUnitCosts(5)
	speedEvals := float64(sh.speedEvals.Load()) / nInst
	faultCompiles := 0.0
	if b.w.name == "traced-sweep" {
		faultCompiles = float64(b.ref.runs)
	}
	per, residual := decomposition(out, events, cpuNS, []term{
		{"sim", "events fired × wheel op", float64(ref.fired), costs.wheelOp},
		{"proc", "wakeups × round trip", float64(ref.wakeups), costs.roundtrip},
		{"mpi", "messages × own msg cost", float64(ref.msgs), costs.msg},
		{"power5", "speed evals × eval", speedEvals, costs.speedEval},
		{"faults", "fault compiles × compile", faultCompiles, costs.faultCompile * 1e9},
		{"trace", "share traced − untraced", float64(events), traceNS},
		{"setup", "set-up unit wall", 1, setup * 1e9},
	})
	fmt.Fprintf(out, "instrumented units: %d, median %.4fs against untraced median %.4fs (%d units)\n",
		len(inst), instWall, plainWall, len(plain))

	var windows1, shardSpeedup, parEff float64
	if hasSerial {
		switch b.w.name {
		case "cluster-16node":
			windows1 = float64(serial.c.windows)
			shardSpeedup = serial.wall.Seconds() / plainWall
		case "traced-sweep":
			parEff = serial.wall.Seconds() / (2 * plainWall)
		}
	}
	vals := map[string]float64{
		"sim.events_fired":                 float64(ref.fired),
		"sim.events_cancelled":             float64(ref.cancelled),
		"sim.ring_op_ns":                   costs.ringOp,
		"sim.wheel_op_ns":                  costs.wheelOp,
		"sim.heap_op_ns":                   costs.heapOp,
		"sched.ticks_elided":               float64(ref.ticksElided),
		"sched.wakeups":                    float64(ref.wakeups),
		"sched.migrations":                 float64(ref.migrations),
		"sched.transitions":                transitionsPerUnit,
		"proc.roundtrip_ns":                costs.roundtrip,
		"core.prio_changes":                prioPerUnit,
		"power5.speed_evals":               speedEvals,
		"power5.speed_eval_ns":             costs.speedEval,
		"mpi.msgs":                         float64(ref.msgs),
		"mpi.bytes":                        float64(ref.bytes),
		"mpi.remote_msgs":                  float64(ref.remote),
		"mpi.pingpong_ns":                  costs.pingpong,
		"trace.intervals":                  float64(ref.intervals),
		"trace.prv_bytes":                  float64(ref.prvBytes),
		"trace.export_s":                   medianOf(plain, func(s sample) float64 { return s.u.export.Seconds() }),
		"trace.overhead_frac":              traceOverhead,
		"faults.actions":                   float64(ref.faultActions),
		"faults.compile_s":                 costs.faultCompile,
		"cluster.windows_1shard":           windows1,
		"cluster.windows":                  float64(ref.windows),
		"cluster.windows_elided":           float64(ref.windowsElided),
		"cluster.windows_per_event":        float64(ref.windows) / float64(events),
		"cluster.shard_speedup":            shardSpeedup,
		"cluster.idle_cpu_frac":            idleFrac,
		"batch.replicas":                   float64(b.ref.runs),
		"batch.failed":                     float64(b.failed()),
		"batch.retried":                    float64(ref.retried),
		"batch.parallel_efficiency":        parEff,
		"experiments.residual_frac":        residual,
		"experiments.cpu_ns_per_event":     cpuNS,
		"mpi.msg_ns":                       costs.msg,
		"goruntime.gc_cpu_frac":            gcFrac,
		"goruntime.sched_latency_p50_us":   latP50,
		"bench.instrumented_overhead_frac": instWall/plainWall - 1,
		"host.nproc":                       float64(runtime.NumCPU()),
		"host.gomaxprocs":                  float64(runtime.GOMAXPROCS(0)),
	}
	for layer, v := range per {
		vals["experiments."+layer+"_ns_per_event"] = v
	}
	return vals
}
