package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step).
type metricDef struct{ name, unit, better string }

var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"ns_per_event", "ns", "lower"},
	{"setup_s", "s", "lower"},
	{"allocs_per_event", "allocs/event", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"success_rate", "frac", "higher"},
	{"paper_checks_passed", "count", "higher"},
}

var perLayerMetrics = []metricDef{
	{"sim.events_fired", "count", "lower"},
	{"sim.events_cancelled", "count", "lower"},
	{"sim.ring_op_ns", "ns", "lower"},
	{"sim.wheel_op_ns", "ns", "lower"},
	{"sim.heap_op_ns", "ns", "lower"},
	{"sched.ticks_elided", "count", "higher"},
	{"sched.wakeups", "count", "lower"},
	{"sched.migrations", "count", "lower"},
	{"sched.transitions", "count", "lower"},
	{"proc.roundtrip_ns", "ns", "lower"},
	{"core.prio_changes", "count", "lower"},
	{"power5.speed_evals", "count", "lower"},
	{"power5.speed_eval_ns", "ns", "lower"},
	{"mpi.msgs", "count", "lower"},
	{"mpi.bytes", "bytes", "lower"},
	{"mpi.remote_msgs", "count", "lower"},
	{"mpi.pingpong_ns", "ns", "lower"},
	{"mpi.msg_ns", "ns", "lower"},
	{"trace.intervals", "count", "lower"},
	{"trace.prv_bytes", "bytes", "lower"},
	{"trace.export_s", "s", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"faults.actions", "count", "lower"},
	{"faults.compile_s", "s", "lower"},
	{"cluster.windows_1shard", "count", "lower"},
	{"cluster.windows", "count", "lower"},
	{"cluster.windows_elided", "count", "higher"},
	{"cluster.windows_per_event", "1/event", "lower"},
	{"cluster.shard_speedup", "x", "higher"},
	{"cluster.idle_cpu_frac", "frac", "lower"},
	{"batch.replicas", "count", "higher"},
	{"batch.failed", "count", "lower"},
	{"batch.retried", "count", "lower"},
	{"batch.parallel_efficiency", "frac", "higher"},
	{"experiments.residual_frac", "frac", "lower"},
	{"experiments.cpu_ns_per_event", "ns", "lower"},
	{"experiments.sim_ns_per_event", "ns", "lower"},
	{"experiments.proc_ns_per_event", "ns", "lower"},
	{"experiments.mpi_ns_per_event", "ns", "lower"},
	{"experiments.power5_ns_per_event", "ns", "lower"},
	{"experiments.faults_ns_per_event", "ns", "lower"},
	{"experiments.trace_ns_per_event", "ns", "lower"},
	{"experiments.setup_ns_per_event", "ns", "lower"},
	{"goruntime.gc_cpu_frac", "frac", "lower"},
	{"goruntime.sched_latency_p50_us", "us", "lower"},
	{"bench.instrumented_overhead_frac", "frac", "lower"},
	{"host.nproc", "count", "higher"},
	{"host.gomaxprocs", "count", "higher"},
}

// result is the benchmark's machine-readable last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric of defs as a readable line, then the JSON
// result as the last line of out. A metric missing from vals is a bug.
func report(out io.Writer, defs []metricDef, vals map[string]float64, attempted int, problems []string) {
	res := result{
		Correct:   len(problems) == 0,
		Attempted: attempted,
		Failed:    len(problems),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("perfbench: metric " + d.name + " not measured")
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, p := range problems {
		fmt.Fprintf(out, "FAIL: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // only finite floats and strings: unreachable
	}
	fmt.Fprintf(out, "%s\n", line)
}

// hostLine describes the machine every result was measured on.
func hostLine() string {
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		runtime.GOOS, runtime.GOARCH, cpuModel())
}

// term is one line of the decomposition: a layer's count per unit times
// its measured unit cost, in ns per simulated event.
type term struct {
	layer, what string
	count       float64
	unitNS      float64
}

// decomposition renders Σ count × unit cost against the measured
// ns/event and returns the per-layer ns/event and the residual share.
func decomposition(out io.Writer, events uint64, measured float64, terms []term) (map[string]float64, float64) {
	per := map[string]float64{}
	sum := 0.0
	fmt.Fprintf(out, "decomposition: %d events/unit, measured %.2f CPU ns/event\n", events, measured)
	fmt.Fprintf(out, "  %-8s %-26s %14s %12s %10s %7s\n", "layer", "count per unit", "count", "unit ns", "ns/event", "share")
	for _, t := range terms {
		v := t.count * t.unitNS / float64(max(events, 1))
		per[t.layer] = v
		sum += v
		fmt.Fprintf(out, "  %-8s %-26s %14.0f %12.2f %10.2f %6.1f%%\n", t.layer, t.what, t.count, t.unitNS, v, 100*v/measured)
	}
	residual := measured - sum
	fmt.Fprintf(out, "  %-8s %-26s %14s %12s %10.2f %6.1f%%\n", "residual", "not explained by the above", "", "", residual, 100*residual/measured)
	return per, residual / measured
}

// spread renders the quartiles of a sample for the readable lines.
func spread(v []float64) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(f float64) float64 { return s[int(f*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("n=%d p25=%.4g p50=%.4g p75=%.4g", len(s), q(0.25), median(s), q(0.75))
}

func joinNames(ws []workload) string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
