package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"hpcsched/internal/experiments"
	"hpcsched/internal/faults"
	"hpcsched/internal/sim"
	"hpcsched/internal/workloads"
)

// sweepFaults is the selector's combined perturbation profile: persistent
// per-context heterogeneity, two transient core stalls and one window of
// extra MPI latency.
const sweepFaults = "hetero:scales=1/0.75/0.9/0.6;stall:n=2,dur=1500ms,by=20s;mpidelay:n=1,extra=300us,dur=8s,by=20s"

// sizing fixes how much simulation one workload unit does. The benchmark
// runs fullSize; the tests run tinySize.
type sizing struct {
	tables       []string // paper-tables: the workloads of Tables III–VI
	clusterIters int      // cluster-16node: BT-MZ iterations
	sweepSeeds   int      // traced-sweep: replica seeds
	sweepIters   int      // traced-sweep: BT-MZ iterations (0 = default)
}

var (
	fullSize = sizing{
		tables:       []string{"metbench", "metbenchvar", "btmz", "siesta"},
		clusterIters: 60,
		sweepSeeds:   4,
	}
	tinySize = sizing{
		tables:       []string{"metbench"},
		clusterIters: 2,
		sweepSeeds:   1,
		sweepIters:   4,
	}
)

// params select the variant of a unit to run.
type params struct {
	seed uint64
	// setup bounds every run at 1 simulated ns: assembly, goroutine spawn,
	// fault compile, cluster finalize and teardown, with no simulated work.
	setup bool
	// serial runs the cluster on 1 shard and the sweep on 1 worker: the
	// scaling points, and the reference for the invariance checks.
	serial bool
	// traceOff runs the traced sweep with interval recording off.
	traceOff bool
	// shims, when non-nil, instruments the runs.
	shims *shims
}

// unit is the outcome of one workload unit.
type unit struct {
	runs     int      // simulation runs attempted
	problems []string // one line per failed run or failed check
	wall     time.Duration
	export   time.Duration // share of wall spent in ExportPRV
	c        counts
	// digest covers every output of the unit; core leaves out the .prv
	// bytes. replicas holds one digest per simulation run, tables the
	// rendered paper tables.
	digest, core string
	replicas     []string
	tables       []string
}

func (u *unit) failf(format string, args ...any) {
	u.problems = append(u.problems, fmt.Sprintf(format, args...))
}

// workload is one closed-loop input set of the benchmark: every call of
// run executes one unit of simulation on the calling goroutine's process.
type workload struct {
	name, why string
	run       func(ctx context.Context, sz sizing, p params) unit
}

var workloadList = []workload{
	{
		name: "paper-tables",
		why:  "Tables III-VI via RunTable: the single-node hot path a paper reader runs; never touches cluster, trace or batch retries",
		run:  runPaperTables,
	},
	{
		name: "cluster-16node",
		why:  "16-node BT-MZ (64 ranks) on the sharded PDES at 2 shards: cluster sync windows and routed MPI over the same per-node work",
		run:  runCluster,
	},
	{
		name: "traced-sweep",
		why:  "BT-MZ x table modes x 4 seeds with faults and .prv export on a 2-worker pool: batch, faults, trace and GC",
		run:  runTracedSweep,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func hashOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// defaultHorizon is the bound experiments applies to a run with Horizon 0.
const defaultHorizon = 3600 * sim.Second

func horizonOf(p params) sim.Time {
	if p.setup {
		return 1
	}
	return 0
}

// checkRun records a failed run: an abort (or any run error) and, on full
// runs, a simulation that hit its horizon before every rank exited.
func checkRun(u *unit, p params, what string, r experiments.Result, err error) {
	var aerr *experiments.AbortError
	switch {
	case errors.As(err, &aerr):
		u.failf("%s: aborted: %s", what, aerr.Reason)
	case err != nil:
		u.failf("%s: %v", what, err)
	case p.setup:
	case r.Cluster != nil:
		for node, capped := range r.Cluster.Capped {
			if capped {
				u.failf("%s: node %d capped at the horizon", what, node)
			}
		}
	case r.Kernel != nil && r.ExecTime >= defaultHorizon:
		u.failf("%s: capped at the horizon", what)
	}
}

// runPaperTables reproduces the paper's tables in sequence. The plain full
// unit goes through experiments.RunTable; set-up and instrumented units run
// the identical scenario through RunScenario, which takes the hooks.
func runPaperTables(ctx context.Context, sz sizing, p params) unit {
	var u unit
	var rows []experiments.Result
	start := time.Now()
	for _, wl := range sz.tables {
		var tr experiments.TableResult
		if !p.setup && p.shims == nil {
			tr = experiments.RunTable(wl, p.seed)
		} else {
			// The scenario RunTable runs for one table.
			spec := experiments.ScenarioSpec{
				Workload: wl, Seed: p.seed, Modes: experiments.TableModes(wl),
				Horizon: horizonOf(p),
			}
			if p.shims != nil {
				spec.Advanced = &experiments.Config{}
				p.shims.configure(spec.Advanced)
				spec.Exec.Progress = p.shims.progress
			}
			sr, err := experiments.RunScenario(ctx, spec)
			if err != nil {
				u.failf("%s table: %v", wl, err)
			}
			tr = experiments.TableResult{Workload: wl, Rows: sr.Results}
		}
		rows = append(rows, tr.Rows...)
		u.tables = append(u.tables, tr.Format())
	}
	u.wall = time.Since(start)
	for _, r := range rows {
		u.runs++
		checkRun(&u, p, r.Config.Workload+" "+r.Config.Mode.String(), r, nil)
		u.c.addResult(r)
	}
	u.digest = hashOf(u.tables...)
	u.core = u.digest
	return u
}

// runCluster runs 16-node BT-MZ under Uniform on a flat topology.
func runCluster(ctx context.Context, sz sizing, p params) unit {
	cfg := experiments.Config{
		Workload: "btmz", Mode: experiments.ModeUniform, Seed: p.seed,
		Nodes: 16, Topology: "flat", Shards: 2,
		Horizon:   horizonOf(p),
		TweakBTMZ: func(c *workloads.BTMZConfig) { c.Iterations = sz.clusterIters },
	}
	if p.serial {
		cfg.Shards = 1
	}
	if p.shims != nil {
		p.shims.configure(&cfg)
	}
	var u unit
	start := time.Now()
	r, err := experiments.RunCtx(ctx, cfg)
	u.wall = time.Since(start)
	u.runs = 1
	checkRun(&u, p, "cluster", r, err)
	u.c.addResult(r)
	u.digest = hashOf(experiments.ClusterTimeline(r))
	u.core = u.digest
	u.replicas = []string{u.digest}
	return u
}

// runTracedSweep runs one fault-injected, traced ScenarioSpec through
// SweepScenarios on a hardened 2-worker pool and exports every run's .prv.
func runTracedSweep(ctx context.Context, sz sizing, p params) unit {
	spec := experiments.ScenarioSpec{
		Name:     "traced-sweep",
		Workload: "btmz",
		Modes:    experiments.TableModes("btmz"),
		Seed:     p.seed,
		Replicas: sz.sweepSeeds,
		Faults:   faults.MustParse(sweepFaults),
		Horizon:  horizonOf(p),
		Trace:    !p.traceOff,
		Advanced: &experiments.Config{},
	}
	if sz.sweepIters > 0 {
		spec.Advanced.TweakBTMZ = func(c *workloads.BTMZConfig) { c.Iterations = sz.sweepIters }
	}
	opts := experiments.ExecOptions{Workers: 2, Harden: true}
	if p.serial {
		opts.Workers = 1
	}
	if p.shims != nil {
		spec.Advanced.Trace = spec.Trace
		p.shims.configure(spec.Advanced)
		opts.Progress = p.shims.progress
	}
	u := unit{runs: len(spec.Configs())}
	start := time.Now()
	srs, err := experiments.SweepScenarios(ctx, []experiments.ScenarioSpec{spec}, opts)
	sweepWall := time.Since(start)
	if err != nil {
		u.failf("sweep: %v", err)
		return u
	}
	sr := srs[0]
	for _, je := range sr.Failed {
		u.failf("sweep replica %d: %s", je.Index, je.Error())
		u.c.retried += je.Attempts - 1
	}
	prvs := make([]string, len(sr.Results))
	start = time.Now()
	for i, r := range sr.Results {
		if sr.OK[i] && r.Recorder != nil {
			prvs[i] = r.Recorder.ExportPRV()
		}
	}
	u.export = time.Since(start)
	u.wall = sweepWall + u.export

	var cores []string
	for i, r := range sr.Results {
		if !sr.OK[i] {
			continue
		}
		checkRun(&u, p, fmt.Sprintf("sweep replica %d", i), r, nil)
		u.c.addResult(r)
		u.c.prvBytes += len(prvs[i])
		row := experiments.TableResult{Workload: "btmz", Rows: []experiments.Result{r}}.Format()
		core := hashOf(row, r.FaultTimeline)
		cores = append(cores, core)
		u.replicas = append(u.replicas, hashOf(core, prvs[i]))
	}
	u.core = hashOf(cores...)
	u.digest = hashOf(u.replicas...)
	return u
}
