package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"hpcsched/internal/cluster"
	"hpcsched/internal/core"
	"hpcsched/internal/faults"
	"hpcsched/internal/metrics"
	"hpcsched/internal/mpi"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
	"hpcsched/internal/workloads"
)

// clusterFaultSalt separates the per-node fault-compile seed streams: node
// 0 compiles from the run (or pinned) fault seed itself and every other
// node from cluster.NodeSeed(fseed, clusterFaultSalt, node), so a run's
// faults are reproducible and node-local.
const clusterFaultSalt = 0xfa17_c105_0000_0000

// ClusterInfo carries the per-node artifacts of a run. Every run has one:
// a single-node run is a 1-node cluster, which runs one window with
// Floor = sim.MaxTime (no cross-node traffic to pace).
type ClusterInfo struct {
	Nodes    int
	Topology string
	// Floor is the conservative lookahead floor the PDES ran with.
	Floor sim.Time
	// GVT is the final global virtual time (min over node ends).
	GVT sim.Time
	// NodeEnds[i] is node i's end instant: its last rank's exit, or the
	// horizon when Capped[i].
	NodeEnds []sim.Time
	Capped   []bool
	// RankNodes[i] is the node rank i was placed on.
	RankNodes []int
	// Recorders are the per-node trace recorders (nil entries unless
	// Config.Trace). Runs of more than one node reject Config.TraceSink
	// with a *TraceSinkError: a single sink cannot take the interleaved
	// windows of several node engines.
	Recorders []*trace.Recorder
	// Kernels are the per-node kernels, shut down; inspect counters only.
	Kernels []*sched.Kernel
	// Windows counts the windows the node calendar executed across all
	// nodes. Under the lookahead bound a window fires or injects at least
	// one event, save a node's horizon-capped final window and the windows
	// run while a cross-node send waits behind a compute; under floor
	// pacing one runs per latency floor of progress. WindowsElided
	// estimates the floor-cadence windows the lookahead collapsed. Both
	// describe the executor, not the simulation, so they are diagnostics —
	// deliberately absent from ClusterTimeline, which is pinned
	// byte-for-byte under either window cut.
	Windows       int64
	WindowsElided int64
}

// TraceSinkError reports a Config.TraceSink on a multi-node run. A sink is
// one time-ordered stream, and cluster nodes interleave their windows on
// one goroutine — each node's clock runs ahead of the others' by up to a
// window — so a shared sink would receive timestamps out of order;
// Config.Trace alone records each node in memory (ClusterInfo.Recorders).
type TraceSinkError struct {
	Nodes int
}

func (e *TraceSinkError) Error() string {
	return fmt.Sprintf("experiments: Config.TraceSink is not supported on a %d-node cluster run; "+
		"use Config.Trace for per-node in-memory recorders", e.Nodes)
}

// runJob is the one run path: it assembles max(Config.Nodes, 1) copies of
// the paper's machine (newNode) on the nodes of an internal/cluster
// cluster, tiles the job across them, installs per-node faults and
// watchdogs, and advances the node engines with the conservative node
// calendar. Nothing forks on the node count. Every per-node rule gives node 0 the
// streams of a lone machine — the run seed for its engine and faults, its
// ranks' jitter split from its engine — and one node runs one window to
// the horizon, so the single-node run is the 1-node cluster. The result is
// byte-identical under either window cut (Config.FloorPacing).
func runJob(ctx context.Context, cfg Config, build func(workloads.Placement) *workloads.Job) (Result, error) {
	nodes := max(cfg.Nodes, 1)
	if cfg.TraceSink != nil && nodes > 1 {
		return Result{Config: cfg}, &TraceSinkError{Nodes: nodes}
	}
	topology := cfg.Topology
	if topology == "" {
		topology = "flat"
	}
	hpcs := make([]*core.HPCClass, nodes)
	recs := make([]*trace.Recorder, nodes)
	wds := make([]*watchdog, nodes)

	cl, err := cluster.New(cluster.Config{
		Nodes:       nodes,
		Topology:    cfg.Topology,
		Seed:        cfg.Seed,
		FloorPacing: cfg.FloorPacing,
		MPI:         mpi.DefaultOptions(),
		NewNode: func(i int, eng *sim.Engine) *sched.Kernel {
			// Each node is a full copy of the paper's machine.
			n := newNode(cfg, eng)
			hpcs[i], recs[i] = n.hpc, n.rec
			return n.kernel
		},
		OnNodeStop: func(node int) error {
			if wd := wds[node]; wd != nil && wd.cause != nil {
				return wd.cause
			}
			return ctx.Err()
		},
	})
	if err != nil {
		return Result{Config: cfg}, err
	}
	defer func() {
		if v := recover(); v != nil {
			cl.Shutdown()
			panic(v)
		}
	}()
	job := build(cl)

	if cfg.Prelude != nil {
		cfg.Prelude(cl.Kernels[0])
	}

	// Fault injection is per node: every node compiles its own timeline from
	// its share of the fault seed (cluster.NodeSeed: node 0 takes the seed
	// itself) and installs it scoped to itself (mpidelay windows drive that
	// node's extra-delay knob, composing with the topology's pair add-ons
	// and the other nodes).
	injs := make([]*faults.Injector, nodes)
	if !cfg.Faults.Empty() {
		fseed := cfg.Seed
		if cfg.FaultSeed != nil {
			fseed = *cfg.FaultSeed
		}
		for node, k := range cl.Kernels {
			sc := faults.Compile(cfg.Faults, cluster.NodeSeed(fseed, clusterFaultSalt, node), k.NumCPUs())
			injs[node] = faults.InstallAt(k, job.World, node, sc)
		}
	}

	if cfg.Probe != nil {
		cfg.Probe(cl.Kernels[0], job)
	}

	// Cancellation and liveness: one watchdog per node engine, all watching
	// the same context. A triggered watchdog stops only its own engine; the
	// cluster layer turns that into a run-wide abort.
	if ctx.Done() != nil || cfg.StallTimeout > 0 {
		for node, k := range cl.Kernels {
			wd := newWatchdog(ctx, k, cfg.StallTimeout)
			wds[node] = wd
			k.Engine.SetInterrupt(interruptStride, wd.check)
		}
	}

	if err := cl.Finalize(); err != nil {
		cl.Shutdown()
		return Result{Config: cfg}, err
	}

	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = 3600 * sim.Second
	}
	end, runErr := cl.Run(horizon)

	info := &ClusterInfo{
		Nodes:     nodes,
		Topology:  topology,
		Floor:     cl.Floor(),
		GVT:       cl.GVT(),
		NodeEnds:  make([]sim.Time, nodes),
		Capped:    make([]bool, nodes),
		RankNodes: make([]int, job.World.Size()),
		Recorders: recs,
		Kernels:   cl.Kernels,

		Windows:       cl.Windows(),
		WindowsElided: cl.WindowsElided(),
	}
	for i := 0; i < nodes; i++ {
		info.NodeEnds[i] = cl.NodeEnd(i)
		info.Capped[i] = cl.Capped(i)
	}
	for i := range info.RankNodes {
		info.RankNodes[i] = cl.RankNode(i)
	}
	res := Result{
		Config:        cfg,
		ExecTime:      end,
		HPC:           hpcs[0],
		World:         job.World,
		Tasks:         job.Tasks,
		Kernel:        cl.Kernels[0],
		FaultTimeline: clusterFaultTimeline(injs),
		Cluster:       info,
	}

	if runErr != nil {
		node, reason, cause := 0, runErr.Error(), runErr
		var ie *cluster.InterruptError
		if errors.As(runErr, &ie) {
			node = ie.Node
			cause = ie.Cause
			if wd := wds[node]; wd != nil && wd.reason != "" {
				reason = fmt.Sprintf("node %d: %s", node, wd.reason)
				cause = wd.cause
			}
		}
		aerr := &AbortError{Reason: reason, Cause: cause, Dump: DiagnosticDump(cl.Kernels[node])}
		writeDiagDump(fmt.Sprintf("%s-node%d", cfg.Workload, node), aerr)
		cl.Shutdown()
		return res, aerr
	}

	cl.Settle()
	for node, rec := range recs {
		if rec != nil {
			rec.Finish(info.NodeEnds[node])
			rec.SortByName()
		}
	}
	res.Summaries = metrics.Summarize(job.Tasks, end)
	res.Imbalance = metrics.Imbalance(res.Summaries)
	if cfg.Trace {
		res.Recorder = recs[0]
	}
	cl.Shutdown()
	return res, nil
}

// clusterFaultTimeline merges the per-node applied-action logs, each line
// prefixed with its node ("n0 ", "n1 ", ...), in node order. It is a pure
// function of (spec, seed, machine, topology) — the determinism tests
// compare it byte-for-byte across worker counts and window cuts.
func clusterFaultTimeline(injs []*faults.Injector) string {
	var b strings.Builder
	for node, inj := range injs {
		if inj == nil {
			continue
		}
		for _, line := range inj.Timeline() {
			fmt.Fprintf(&b, "n%d %s\n", node, line)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// ClusterTimeline renders a cluster run's deterministic fingerprint: the
// run parameters, per-node ends and message counters, one line per rank
// with its placement and summary metrics, and the fault timeline. Two runs
// of the same configuration produce byte-identical timelines under either
// window cut and at any GOMAXPROCS — the goldens pin exactly this string.
func ClusterTimeline(res Result) string {
	ci := res.Cluster
	if ci == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s mode=%s nodes=%d topology=%s seed=%d\n",
		res.Config.Workload, res.Config.Mode, ci.Nodes, ci.Topology, res.Config.Seed)
	fmt.Fprintf(&b, "floor=%v exec=%v gvt=%v imbalance=%.4f\n",
		ci.Floor, res.ExecTime, ci.GVT, res.Imbalance)
	for i := 0; i < ci.Nodes; i++ {
		count, bytes, remote := res.World.NodeMsgStats(i)
		capped := ""
		if ci.Capped[i] {
			capped = " capped"
		}
		fmt.Fprintf(&b, "n%d end=%v msgs=%d bytes=%d remote=%d%s\n",
			i, ci.NodeEnds[i], count, bytes, remote, capped)
	}
	// Every builder returns rank i as job.Tasks[i], so the summary
	// index is the rank.
	for i, s := range res.Summaries {
		fmt.Fprintf(&b, "%s n%d comp=%.2f prio=%d exec=%v sleep=%v wait=%v wakeups=%d\n",
			s.Name, ci.RankNodes[i], s.CompPct, s.HWPrio,
			s.ExecTime, s.SleepTime, s.WaitTime, s.Wakeups)
	}
	if res.FaultTimeline != "" {
		b.WriteString(res.FaultTimeline)
		b.WriteString("\n")
	}
	return b.String()
}
